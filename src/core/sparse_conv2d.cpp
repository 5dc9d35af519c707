#include "core/sparse_conv2d.h"

#include <utility>

#include "common/check.h"
#include "core/pipeline.h"

namespace shflbw {

SparseConv2d::SparseConv2d(const Matrix<float>& filter_matrix,
                           const ConvShape& shape, const Options& options)
    : options_(options), shape_(shape) {
  SHFLBW_CHECK_MSG(filter_matrix.rows() == shape.out_c &&
                       filter_matrix.cols() == shape.GemmK(),
                   "filter matrix " << filter_matrix.rows() << "x"
                                    << filter_matrix.cols()
                                    << " does not match conv shape");
  const runtime::FormatOps& ops = runtime::Ops(options.format);
  SHFLBW_CHECK_MSG(ops.conv != nullptr,
                   "SparseConv2d needs a format with a conv kernel (dense, "
                   "vw or shfl-bw); got "
                       << ops.name);
  PruneResult pr = PruneWithPattern(filter_matrix, options.format,
                                    options.density, options.v);
  packed_.format = options.format;
  ops.pack(pr.pruned_weights, options.v, pr.storage_to_original, packed_);
  pruned_weights_ = std::move(pr.pruned_weights);
}

Matrix<float> SparseConv2d::Forward(const Tensor4& input) const {
  return runtime::Ops(options_.format).conv(packed_, shape_, input);
}

KernelStats SparseConv2d::Stats(const GpuSpec& spec) const {
  // Never nullopt here: dense has no V, and the constructor's VW-family
  // prune already required V to divide out_c.
  return *runtime::Ops(options_.format)
              .conv_model(shape_, options_.density, options_.v, spec)
              .stats;
}

TimeBreakdown SparseConv2d::ModelTime(const GpuSpec& spec) const {
  return CostModel(spec).Estimate(Stats(spec));
}

double SparseConv2d::SpeedupOverDense(const GpuSpec& spec) const {
  const CostModel model(spec);
  const double dense_s = model.Seconds(Conv2dDenseStats(shape_, spec));
  return dense_s / ModelTime(spec).total_s;
}

}  // namespace shflbw
