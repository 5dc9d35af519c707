#include "core/sparse_linear.h"

#include <utility>

#include "core/pipeline.h"
#include "kernels/gemm_dense.h"

namespace shflbw {

SparseLinear::SparseLinear(const Matrix<float>& weights,
                           const Options& options)
    : options_(options) {
  PruneResult pr = PruneWithPattern(weights, options.format, options.density,
                                    options.v);
  packed_.format = options.format;
  runtime::Ops(options.format)
      .pack(pr.pruned_weights, options.v, pr.storage_to_original, packed_);
  pruned_weights_ = std::move(pr.pruned_weights);
  mask_ = std::move(pr.mask);
}

Matrix<float> SparseLinear::Forward(const Matrix<float>& x) const {
  return runtime::Ops(options_.format).gemm(packed_, x);
}

KernelStats SparseLinear::Stats(int n, const GpuSpec& spec) const {
  return runtime::Ops(options_.format).gemm_stats(packed_, n, spec);
}

TimeBreakdown SparseLinear::ModelTime(int n, const GpuSpec& spec) const {
  return CostModel(spec).Estimate(Stats(n, spec));
}

double SparseLinear::SpeedupOverDense(int n, const GpuSpec& spec) const {
  const CostModel model(spec);
  const double dense_s =
      model.Seconds(GemmTensorCoreStats(rows(), n, cols(), spec));
  const double sparse_s = ModelTime(n, spec).total_s;
  return dense_s / sparse_s;
}

double SparseLinear::AchievedDensity() const {
  return 1.0 - Sparsity(mask_);
}

}  // namespace shflbw
