#include "kernels/spmm_tilewise.h"

#include "common/check.h"

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
  SHFLBW_CHECK_MSG(m % kTilewiseV == 0,
                   "m=" << m << " not divisible by V=128");
  const int groups = m / kTilewiseV;
  const int per_group =
      static_cast<int>(std::llround(alpha * static_cast<double>(k)));
  std::vector<int> kept(static_cast<std::size_t>(groups), per_group);
  KernelStats s =
      VwFamilyStats(m, n, k, kept, kTilewiseV, spec, TilewiseConfig(),
                    KernelClass::kTilewise, /*extra_metadata_bytes=*/0.0);
  // One dense-GEMM launch per kept row-group tile, issued round-robin
  // over a fixed stream pool. Stream sync + launch overheads are what
  // sink this approach at real layer shapes. (Functional execution goes
  // through the shared tile-parallel VW engine — the launch overhead is
  // a property of the modelled GPU schedule, not of the simulator.)
  s.num_kernel_launches = std::max(1, groups);
  s.num_streams = kTilewiseStreams;
  return s;
}

}  // namespace shflbw
