// SparseConv2d — the paper's sparse convolution layer (implicit GEMM,
// §4.1), in any format whose runtime::Ops entry has a conv kernel:
// dense (the cuDNN-style baseline), vector-wise or Shfl-BW.
#pragma once

#include "arch/cost_model.h"
#include "kernels/conv2d.h"
#include "runtime/format.h"

namespace shflbw {

/// A 2D convolution whose filters are pruned to a conv-capable format.
/// Filter weights live in implicit-GEMM layout: out_c x (in_c*kh*kw).
class SparseConv2d {
 public:
  struct Options {
    runtime::Format format = runtime::Format::kShflBw;
    double density = 0.25;
    int v = 32;
  };

  SparseConv2d(const Matrix<float>& filter_matrix, const ConvShape& shape,
               const Options& options);

  /// Runs the convolution; output is out_c x (batch*oh*ow).
  Matrix<float> Forward(const Tensor4& input) const;

  KernelStats Stats(const GpuSpec& spec) const;
  TimeBreakdown ModelTime(const GpuSpec& spec) const;
  double SpeedupOverDense(const GpuSpec& spec) const;

  const Matrix<float>& pruned_weights() const { return pruned_weights_; }
  const ConvShape& shape() const { return shape_; }

 private:
  Options options_;
  ConvShape shape_;
  Matrix<float> pruned_weights_;
  runtime::PackedWeight packed_;  // what Forward executes
};

}  // namespace shflbw
