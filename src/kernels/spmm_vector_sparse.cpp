#include "kernels/spmm_vector_sparse.h"

namespace shflbw {

TileConfig VectorSparseConfig() {
  TileConfig cfg;
  cfg.tn = 64;  // narrower tiles: small V leaves less register budget
  cfg.tk = 16;
  cfg.pipeline_stages = 2;
  cfg.meta_prefetch_stage = 2;
  return cfg;
}

KernelStats SpmmVectorSparseStats(int m, int n, int k, double alpha,
                                  const GpuSpec& spec) {
  return VwFamilyStats(m, n, k,
                       UniformKeptPerGroup(m, k, alpha, kVectorSparseV),
                       kVectorSparseV, spec, VectorSparseConfig(),
                       KernelClass::kVectorSparse,
                       /*extra_metadata_bytes=*/0.0);
}

}  // namespace shflbw
