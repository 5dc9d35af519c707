// VectorSparse baseline (Chen et al., SC'21): tensor-core vector-wise
// SpMM tuned for fine-grained vectors (V <= 8). The paper finds it "less
// performant than ours because their small vector size (V=8) limits data
// reuse" — which falls straight out of the VW-family traffic model: L2
// traffic for the dense operand scales with 1/V.
#pragma once

#include "arch/gpu_spec.h"
#include "kernels/spmm_vector_wise.h"

namespace shflbw {

inline constexpr int kVectorSparseV = 8;

/// Tile configuration of the VectorSparse stats model. Its execute is
/// SpmmVectorWise on a V<=8 matrix; the config differs from VW's only in
/// what the stats model counts.
TileConfig VectorSparseConfig();

/// Stats-only model at stored density alpha (V fixed to 8).
KernelStats SpmmVectorSparseStats(int m, int n, int k, double alpha,
                                  const GpuSpec& spec);

}  // namespace shflbw
