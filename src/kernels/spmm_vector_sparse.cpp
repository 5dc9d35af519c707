#include "kernels/spmm_vector_sparse.h"

#include <numeric>

#include "common/check.h"

namespace shflbw {
namespace {

TileConfig VectorSparseConfig() {
  TileConfig cfg;
  cfg.tn = 64;  // narrower tiles: small V leaves less register budget
  cfg.tk = 16;
  cfg.pipeline_stages = 2;
  cfg.meta_prefetch_stage = 2;
  return cfg;
}

}  // namespace

KernelResult SpmmVectorSparse(const VectorWiseMatrix& a,
                              const Matrix<float>& b, const GpuSpec& spec) {
  SHFLBW_CHECK_MSG(a.v <= kVectorSparseV,
                   "VectorSparse supports V<=8, got V=" << a.v);
  const TileConfig cfg = VectorSparseConfig();
  std::vector<int> identity(static_cast<std::size_t>(a.rows));
  std::iota(identity.begin(), identity.end(), 0);
  KernelResult r;
  // Hot path lives in RunVwFamilyKernel's ExecuteVwTile (the SHFLBW_HOT
  // region in spmm_vector_wise.cpp).
  r.c = RunVwFamilyKernel(a, identity, b, cfg, nullptr);
  r.stats = VwFamilyStats(a.rows, b.cols(), a.cols, a.KeptPerGroup(), a.v,
                          spec, cfg, KernelClass::kVectorSparse,
                          /*extra_metadata_bytes=*/0.0);
  return r;
}

KernelStats SpmmVectorSparseStats(int m, int n, int k, double alpha,
                                  const GpuSpec& spec) {
  const int groups = m / kVectorSparseV;
  const int per_group =
      static_cast<int>(std::llround(alpha * static_cast<double>(k)));
  std::vector<int> kept(static_cast<std::size_t>(groups), per_group);
  return VwFamilyStats(m, n, k, kept, kVectorSparseV, spec,
                       VectorSparseConfig(), KernelClass::kVectorSparse,
                       /*extra_metadata_bytes=*/0.0);
}

}  // namespace shflbw
