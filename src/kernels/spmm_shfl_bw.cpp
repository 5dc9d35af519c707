#include "kernels/spmm_shfl_bw.h"

#include "common/check.h"

namespace shflbw {
namespace {

/// Evenly-spread kept-vector counts for a stats-only layer model: total
/// kept vectors = alpha * (m/v groups) * k columns, rounded per group.
std::vector<int> UniformKept(int m, int k, double alpha, int v) {
  SHFLBW_CHECK_MSG(v > 0 && m % v == 0,
                   "m=" << m << " not divisible by v=" << v);
  const int groups = m / v;
  const int per_group =
      static_cast<int>(std::llround(alpha * static_cast<double>(k)));
  return std::vector<int>(static_cast<std::size_t>(groups), per_group);
}

}  // namespace

Matrix<float> SpmmShflBw(const ShflBwMatrix& a, const Matrix<float>& b,
                         const TileConfig& cfg,
                         std::vector<PipelineEvent>* pipeline_trace) {
  // Hot path lives in RunVwFamilyKernel's ExecuteVwTile (the SHFLBW_HOT
  // region in spmm_vector_wise.cpp); this wrapper only shapes operands.
  return RunVwFamilyKernel(a.vw, a.storage_to_original, b, cfg,
                           pipeline_trace);
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
  return VwFamilyStats(m, n, k, UniformKept(m, k, alpha, v), v, spec, cfg,
                       KernelClass::kShflBwTensorCore,
                       /*extra_metadata_bytes=*/4.0 * m);
}

KernelStats SpmmVectorWiseStats(int m, int n, int k, double alpha, int v,
                                const GpuSpec& spec, const TileConfig& cfg) {
  return VwFamilyStats(m, n, k, UniformKept(m, k, alpha, v), v, spec, cfg,
                       KernelClass::kVectorWiseTensorCore,
                       /*extra_metadata_bytes=*/0.0);
}

}  // namespace shflbw
