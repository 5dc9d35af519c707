// Shared types for the functional GPU-kernel simulators.
//
// Every kernel in this directory has two halves, kept as separate
// functions (docs/REPRODUCTION.md §1):
//   1. *Execute* (SpmmCsr, SpmmShflBw, Conv2dDense, ...): computes the
//      output matrix with fp16 operands and fp32 accumulation, in the
//      order the corresponding CUDA kernel accumulates (tile loads,
//      in-buffer stitching, reordered write-back). It takes no GpuSpec
//      and no TileConfig: the result is the same on every modelled GPU
//      and tiling. All kernels accumulate along K in ascending order, so
//      their outputs are bit-identical to the dense reference on the
//      same masked weights. Algorithm 1's software pipeline is modelled,
//      not executed: PipelineSchedule returns its step trace, and the
//      VW-family execute is a direct register-blocked gather-MMA.
//   2. *Stats model* (the *Stats functions): counts the DRAM/L2 traffic
//      and MAC instructions the CUDA kernel would issue on a GpuSpec at
//      a TileConfig; the arch cost model converts these into modelled
//      time on V100/T4/A100. Nothing here runs the execute to get them.
//
// Kernel classes that differ only in their stats share one execute:
// both dense classes (tensor-core, CUDA-core) run GemmReference; the
// cuSPARSE and Sputnik classes run SpmmCsr; the VW, Tilewise and
// VectorSparse classes run SpmmVectorWise, and differ only in the stats
// configs TilewiseConfig() / VectorSparseConfig().
//
// Wide-batch contract: N (the dense-operand column count) is a free
// dimension, not a fixed model property. Output column j depends only
// on input column j, accumulated along K in ascending order regardless
// of N or of the column-tile decomposition, and operand fp16 rounding
// is elementwise. Therefore packing K independent activations
// side-by-side into one N*K-column operand yields, in each column
// block, bits identical to K separate narrow launches — the invariant
// the runtime's cross-request fused batching (Engine::RunBatched) is
// built on. Kernels must not let a column's result depend on its
// neighbours (no cross-column reductions, no N-dependent accumulation
// reordering).
#pragma once

#include <algorithm>
#include <cmath>

#include "arch/kernel_stats.h"
#include "common/check.h"
#include "common/matrix.h"

namespace shflbw {

/// Bytes per stored element (half precision).
inline constexpr double kHalfBytes = 2.0;

/// An execute's output paired with its stats model, as returned by the
/// GpuSpec overloads of SpmmShflBw, SpmmVectorWise and Conv2dDense.
struct KernelResult {
  Matrix<float> c;    // M x N output (fp16-representable values)
  KernelStats stats;  // resource counts for the cost model
};

/// Threadblock tile configuration. Defaults follow the paper's kernels
/// (TM is set per-kernel: V for vector/Shfl-BW kernels, 128 for dense).
struct TileConfig {
  int tn = 128;  // output-tile columns
  int tk = 16;   // K-step per MMA main-loop iteration
  int pipeline_stages = 2;      // double buffering (Fig. 4(d))
  int meta_prefetch_stage = 4;  // MetaPrefetchStage of Algorithm 1
};

/// Rejects a TileConfig the models cannot use, with a named error: tn,
/// tk and meta_prefetch_stage must be >= 1, and pipeline_stages >=
/// min_pipeline_stages (0 for the stats models, whose stages ablation
/// models an unpipelined kernel; 1 for PipelineSchedule).
inline void ValidateTileConfig(const TileConfig& cfg,
                               int min_pipeline_stages) {
  SHFLBW_CHECK_MSG(cfg.tn >= 1, "TileConfig.tn must be >= 1, got " << cfg.tn);
  SHFLBW_CHECK_MSG(cfg.tk >= 1, "TileConfig.tk must be >= 1, got " << cfg.tk);
  SHFLBW_CHECK_MSG(cfg.meta_prefetch_stage >= 1,
                   "TileConfig.meta_prefetch_stage must be >= 1, got "
                       << cfg.meta_prefetch_stage);
  SHFLBW_CHECK_MSG(cfg.pipeline_stages >= min_pipeline_stages,
                   "TileConfig.pipeline_stages must be >= "
                       << min_pipeline_stages << ", got "
                       << cfg.pipeline_stages);
}

/// Tensor-core MMA instruction granularity (mma.sync.m16n8k16, §2.1).
inline constexpr int kMmaM = 16;
inline constexpr int kMmaN = 8;
inline constexpr int kMmaK = 16;

/// Number of 16x8x16 MMA instructions needed to cover a TM x TN x TK
/// dense tile multiply (each dimension rounded up to the granularity).
inline double MmaInstructionCount(double tm, double tn, double tk) {
  const double m_tiles = std::ceil(tm / kMmaM);
  const double n_tiles = std::ceil(tn / kMmaN);
  const double k_tiles = std::ceil(tk / kMmaK);
  return m_tiles * n_tiles * k_tiles;
}

/// DRAM reload factor for a dense operand that is re-read across tile
/// passes: 1 if it fits in (80% of) the L2, otherwise every pass misses.
inline double ReloadFactor(double unique_bytes, double l2_capacity,
                           double passes) {
  return unique_bytes <= 0.8 * l2_capacity ? 1.0 : std::max(1.0, passes);
}

}  // namespace shflbw
