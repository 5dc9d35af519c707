#include "kernels/spmm_tilewise.h"

#include <algorithm>

namespace shflbw {

TileConfig TilewiseConfig() {
  TileConfig cfg;
  cfg.tn = 128;
  cfg.tk = 32;
  cfg.pipeline_stages = 2;
  cfg.meta_prefetch_stage = 2;
  return cfg;
}

KernelStats SpmmTilewiseStats(int m, int n, int k, double alpha,
                              const GpuSpec& spec) {
  KernelStats s = VwFamilyStats(
      m, n, k, UniformKeptPerGroup(m, k, alpha, kTilewiseV), kTilewiseV, spec,
      TilewiseConfig(), KernelClass::kTilewise, /*extra_metadata_bytes=*/0.0);
  // One dense-GEMM launch per kept row-group tile, issued round-robin
  // over a fixed stream pool. Stream sync + launch overheads are what
  // sink this approach at real layer shapes. (Functional execution goes
  // through the shared tile-parallel VW engine — the launch overhead is
  // a property of the modelled GPU schedule, not of the simulator.)
  s.num_kernel_launches = std::max(1, m / kTilewiseV);
  s.num_streams = kTilewiseStreams;
  return s;
}

}  // namespace shflbw
