// Tilewise baseline (Guo et al., SC'20): tile-wise sparsity executed as
// per-tile dense GEMMs on CUDA multi-streams (V=128 granularity). The
// paper observes that "due to the overhead when the number of streams
// grows, their multi-stream approach cannot exceed the dense baseline
// under real weight shapes" — modelled here as one kernel launch per row
// group spread over a fixed stream pool.
#pragma once

#include "arch/gpu_spec.h"
#include "kernels/spmm_vector_wise.h"

namespace shflbw {

inline constexpr int kTilewiseV = 128;
inline constexpr int kTilewiseStreams = 8;

/// Tile configuration of the Tilewise stats model. Its execute is
/// SpmmVectorWise on a V=128 matrix; the config differs from VW's only
/// in what the stats model counts.
TileConfig TilewiseConfig();

/// Stats-only model at stored density alpha (V fixed to 128).
KernelStats SpmmTilewiseStats(int m, int n, int k, double alpha,
                              const GpuSpec& spec);

}  // namespace shflbw
