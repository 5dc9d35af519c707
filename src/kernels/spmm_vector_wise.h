// Our vector-wise tensor-core SpMM — the paper's own "VW" kernel
// (Fig. 6), and the execution engine shared with Shfl-BW: Shfl-BW *is*
// this kernel plus the row-index indirection in the write-back phase.
#pragma once

#include <vector>

#include "arch/gpu_spec.h"
#include "format/vector_wise.h"
#include "kernels/kernel_api.h"

namespace shflbw {

/// C = A_vw * B on tensor-cores (rows written back in storage order).
/// Also the execute of the Tilewise and VectorSparse baselines, which
/// differ from VW only in their stats configs (TilewiseConfig() /
/// VectorSparseConfig()).
Matrix<float> SpmmVectorWise(const VectorWiseMatrix& a, const Matrix<float>& b);

/// Stats model of SpmmVectorWise on `a` with n activation columns, at
/// the default tile configuration.
KernelStats SpmmVectorWiseStats(const VectorWiseMatrix& a, int n,
                                const GpuSpec& spec);

/// Execute plus stats at the default tile configuration.
KernelResult SpmmVectorWise(const VectorWiseMatrix& a, const Matrix<float>& b,
                            const GpuSpec& spec);

/// Stats-only model of SpmmVectorWise for a layer of shape (m, n, k)
/// pruned to vector size v at stored density `alpha`, with the kept
/// vectors spread evenly across groups (UniformKeptPerGroup).
KernelStats SpmmVectorWiseStats(int m, int n, int k, double alpha, int v,
                                const GpuSpec& spec,
                                const TileConfig& cfg = {});

/// Kept vectors per row group of an m x k layer at stored density
/// `alpha`, spread evenly: m/v groups of round(alpha * k) columns each.
/// Throws shflbw::Error when v does not divide m.
std::vector<int> UniformKeptPerGroup(int m, int k, double alpha, int v);

/// Shared VW-family stats model: v-tall dense tiles over kept vectors.
/// kept_per_group holds the number of kept columns of each row group;
/// extra_metadata_bytes covers kernel-specific additions (the Shfl-BW
/// row-index array). Throws shflbw::Error on a malformed cfg
/// (ValidateTileConfig, pipeline_stages >= 0).
KernelStats VwFamilyStats(int m, int n, int k,
                          const std::vector<int>& kept_per_group, int v,
                          const GpuSpec& spec, const TileConfig& cfg,
                          KernelClass klass, double extra_metadata_bytes);

/// One iteration of Algorithm 1's software pipeline: the skewed
/// {metaload, load, mma} step counters, and whether the tile stitched in
/// this iteration had its metadata bulk-loaded in time.
struct PipelineEvent {
  int metaload_step;
  int load_step;
  int mma_step;
  bool meta_ready;  // stitched tile's metadata was prefetched in time
};

/// Algorithm 1's two-level pipeline as a model: the PipelineEvent of
/// every main-loop iteration of one (row group, column tile) that holds
/// `kept` kept vectors, under cfg's tk, pipeline_stages and
/// meta_prefetch_stage. The schedule depends on (kept, cfg) alone, not
/// on the data, and the CPU execute does not run it (docs/REPRODUCTION.md
/// §1). Throws shflbw::Error on a negative kept or a malformed cfg
/// (ValidateTileConfig, pipeline_stages >= 1).
std::vector<PipelineEvent> PipelineSchedule(int kept, const TileConfig& cfg);

/// Shared execute of the VW family (Fig. 4 steps (b)-(e)): for every
/// (row group, column block), walks the group's kept vectors in
/// ascending order, multiplies each kept value by its gathered B row
/// into an fp32 register block, and writes output row r of group g to
/// row row_map[g*v + r] of C. Passing the identity map gives the VW
/// kernel; passing storage_to_original gives Shfl-BW's reordered
/// write-back. Runs at ActiveKernelTier(); every tier gives the same
/// bits (docs/PERFORMANCE.md "Kernel tiers").
Matrix<float> RunVwFamilyKernel(const VectorWiseMatrix& a,
                                const std::vector<int>& row_map,
                                const Matrix<float>& b);

/// Instruction-set tiers the VW-family execute is built for, in one
/// translation unit with per-function target attributes. Each tier
/// includes the ones before it.
enum class KernelTier {
  kBaseline,  // the build's own target (SSE2 on x86-64)
  kX86_64_V3,  // AVX2 + FMA
  kX86_64_V4,  // AVX-512 F/VL/BW/DQ
};

/// "baseline", "x86-64-v3" or "x86-64-v4" — the name BENCH_*.json
/// provenance and statusz report.
const char* KernelTierName(KernelTier tier);

/// The highest tier this host supports, detected once per process; the
/// tier RunVwFamilyKernel runs at.
KernelTier ActiveKernelTier();

/// Whether this host can run `tier` (every tier up to ActiveKernelTier()).
bool KernelTierSupported(KernelTier tier);

namespace detail {
/// RunVwFamilyKernel at an explicit tier, so tests and bench_hotpath can
/// compare tiers in one process. Throws shflbw::Error when the host
/// does not support `tier`.
Matrix<float> RunVwFamilyKernelAt(KernelTier tier, const VectorWiseMatrix& a,
                                  const std::vector<int>& row_map,
                                  const Matrix<float>& b);
}  // namespace detail

}  // namespace shflbw
