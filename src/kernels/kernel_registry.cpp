#include "kernels/kernel_registry.h"

#include <cmath>

#include "common/check.h"
#include "kernels/gemm_dense.h"
#include "kernels/spmm_balanced24.h"
#include "kernels/spmm_bsr.h"
#include "kernels/spmm_csr.h"
#include "kernels/spmm_shfl_bw.h"
#include "kernels/spmm_tilewise.h"
#include "kernels/spmm_vector_sparse.h"

namespace shflbw {

std::optional<KernelStats> LayerStats(KernelClass klass,
                                      const LayerProblem& p,
                                      const GpuSpec& spec) {
  SHFLBW_CHECK_MSG(p.m > 0 && p.n > 0 && p.k > 0,
                   "bad layer shape " << p.m << "/" << p.n << "/" << p.k);
  SHFLBW_CHECK_MSG(p.density > 0.0 && p.density <= 1.0,
                   "density " << p.density);
  const double nnz = p.density * p.m * p.k;

  switch (klass) {
    case KernelClass::kDenseTensorCore:
      return GemmTensorCoreStats(p.m, p.n, p.k, spec);
    case KernelClass::kDenseCudaCore:
      return GemmCudaCoreStats(p.m, p.n, p.k, spec);
    case KernelClass::kCsrScalar:
      return SpmmCsrScalarStats(p.m, p.n, p.k, nnz, spec);
    case KernelClass::kSputnik:
      return SpmmSputnikStats(p.m, p.n, p.k, nnz, spec);
    case KernelClass::kBsrTensorCore: {
      if (p.m % p.v != 0 || p.k % p.v != 0) return std::nullopt;
      const double nnz_blocks =
          p.density * (static_cast<double>(p.m) / p.v) *
          (static_cast<double>(p.k) / p.v);
      return SpmmBsrStats(p.m, p.n, p.k, nnz_blocks, p.v, spec);
    }
    case KernelClass::kVectorWiseTensorCore:
      if (p.m % p.v != 0) return std::nullopt;
      return SpmmVectorWiseStats(p.m, p.n, p.k, p.density, p.v, spec);
    case KernelClass::kShflBwTensorCore:
      if (p.m % p.v != 0) return std::nullopt;
      return SpmmShflBwStats(p.m, p.n, p.k, p.density, p.v, spec);
    case KernelClass::kBalanced24:
      // Hardware 2:4 exists only at 50% density and only on A100.
      if (std::abs(p.density - 0.5) > 1e-9) return std::nullopt;
      if (spec.arch != GpuArch::kA100) return std::nullopt;
      if (p.k % 4 != 0) return std::nullopt;
      return SpmmBalanced24Stats(p.m, p.n, p.k, spec);
    case KernelClass::kVectorSparse:
      if (p.m % kVectorSparseV != 0) return std::nullopt;
      return SpmmVectorSparseStats(p.m, p.n, p.k, p.density, spec);
    case KernelClass::kTilewise:
      if (p.m % kTilewiseV != 0) return std::nullopt;
      return SpmmTilewiseStats(p.m, p.n, p.k, p.density, spec);
  }
  return std::nullopt;
}

std::optional<double> LayerSeconds(KernelClass klass, const LayerProblem& p,
                                   const GpuSpec& spec) {
  const auto stats = LayerStats(klass, p, spec);
  if (!stats) return std::nullopt;
  return CostModel(spec).Seconds(*stats);
}

std::optional<double> SpeedupOverDense(KernelClass klass,
                                       const LayerProblem& p,
                                       const GpuSpec& spec) {
  const auto sparse_s = LayerSeconds(klass, p, spec);
  if (!sparse_s) return std::nullopt;
  const auto dense_s =
      LayerSeconds(KernelClass::kDenseTensorCore, p, spec);
  return *dense_s / *sparse_s;
}

}  // namespace shflbw
