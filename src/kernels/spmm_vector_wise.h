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
/// Also the execute of the Tilewise and VectorSparse baselines, run at
/// TilewiseConfig() / VectorSparseConfig().
Matrix<float> SpmmVectorWise(const VectorWiseMatrix& a, const Matrix<float>& b,
                             const TileConfig& cfg = {});

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
/// row-index array).
KernelStats VwFamilyStats(int m, int n, int k,
                          const std::vector<int>& kept_per_group, int v,
                          const GpuSpec& spec, const TileConfig& cfg,
                          KernelClass klass, double extra_metadata_bytes);

/// Shared functional engine (Fig. 4 steps (b)-(e)): executes the
/// pipelined stitch + MMA loop over every (row-group, column-tile) pair
/// and writes each output row r of group g to row row_map[g*v + r] of C.
/// Passing the identity map gives the VW kernel; passing
/// storage_to_original gives Shfl-BW's reordered write-back.
/// pipeline_trace, when non-null, records {metaload, load, mma} step
/// counters for every pipeline iteration of the first tile (used by
/// tests to verify the two-level prefetch invariant of Algorithm 1).
struct PipelineEvent {
  int metaload_step;
  int load_step;
  int mma_step;
  bool meta_ready;  // stitched tile's metadata was prefetched in time
};

Matrix<float> RunVwFamilyKernel(const VectorWiseMatrix& a,
                                const std::vector<int>& row_map,
                                const Matrix<float>& b, const TileConfig& cfg,
                                std::vector<PipelineEvent>* pipeline_trace);

}  // namespace shflbw
