#include "kernels/spmm_tilewise.h"

#include <numeric>

#include "common/check.h"

namespace shflbw {
namespace {

TileConfig TilewiseConfig() {
  TileConfig cfg;
  cfg.tn = 128;
  cfg.tk = 32;
  cfg.pipeline_stages = 2;
  cfg.meta_prefetch_stage = 2;
  return cfg;
}

void ApplyLaunchModel(KernelStats& s, int groups) {
  // One dense-GEMM launch per kept row-group tile, issued round-robin
  // over a fixed stream pool. Stream sync + launch overheads are what
  // sink this approach at real layer shapes. (Functional execution goes
  // through the shared tile-parallel VW engine — the launch overhead is
  // a property of the modelled GPU schedule, not of the simulator.)
  s.num_kernel_launches = std::max(1, groups);
  s.num_streams = kTilewiseStreams;
}

}  // namespace

KernelResult SpmmTilewise(const VectorWiseMatrix& a, const Matrix<float>& b,
                          const GpuSpec& spec) {
  SHFLBW_CHECK_MSG(a.v == kTilewiseV,
                   "Tilewise uses V=128, got V=" << a.v);
  const TileConfig cfg = TilewiseConfig();
  std::vector<int> identity(static_cast<std::size_t>(a.rows));
  std::iota(identity.begin(), identity.end(), 0);
  KernelResult r;
  // Hot path lives in RunVwFamilyKernel's ExecuteVwTile (the SHFLBW_HOT
  // region in spmm_vector_wise.cpp).
  r.c = RunVwFamilyKernel(a, identity, b, cfg, nullptr);
  r.stats = VwFamilyStats(a.rows, b.cols(), a.cols, a.KeptPerGroup(), a.v,
                          spec, cfg, KernelClass::kTilewise,
                          /*extra_metadata_bytes=*/0.0);
  ApplyLaunchModel(r.stats, a.Groups());
  return r;
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
  ApplyLaunchModel(s, groups);
  return s;
}

}  // namespace shflbw
