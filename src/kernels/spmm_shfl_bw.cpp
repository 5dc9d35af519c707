#include "kernels/spmm_shfl_bw.h"

namespace shflbw {

Matrix<float> SpmmShflBw(const ShflBwMatrix& a, const Matrix<float>& b) {
  // Hot path lives in RunVwFamilyKernel (the SHFLBW_HOT region in
  // spmm_vector_wise.cpp); this wrapper only shapes operands.
  return RunVwFamilyKernel(a.vw, a.storage_to_original, b);
}

KernelStats SpmmShflBwStats(const ShflBwMatrix& a, int n,
                            const GpuSpec& spec) {
  return VwFamilyStats(a.rows(), n, a.cols(), a.vw.KeptPerGroup(), a.v(), spec,
                       TileConfig{}, KernelClass::kShflBwTensorCore,
                       /*extra_metadata_bytes=*/4.0 * a.rows());
}

KernelResult SpmmShflBw(const ShflBwMatrix& a, const Matrix<float>& b,
                        const GpuSpec& spec) {
  return {SpmmShflBw(a, b), SpmmShflBwStats(a, b.cols(), spec)};
}

KernelStats SpmmShflBwStats(int m, int n, int k, double alpha, int v,
                            const GpuSpec& spec, const TileConfig& cfg) {
  return VwFamilyStats(m, n, k, UniformKeptPerGroup(m, k, alpha, v), v, spec,
                       cfg, KernelClass::kShflBwTensorCore,
                       /*extra_metadata_bytes=*/4.0 * m);
}

}  // namespace shflbw
