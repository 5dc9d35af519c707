// SparseLinear — the flagship public API: a weight-pruned linear layer
// that owns the whole paper pipeline (prune -> compress -> execute on the
// format's kernel -> model the GPU time), dispatched through the same
// runtime::Ops entries the inference runtime packs and executes with.
//
// Typical use (see examples/quickstart.cpp):
//   SparseLinear::Options opt;
//   opt.format = runtime::Format::kShflBw;
//   opt.density = 0.25;           // 75% sparsity
//   opt.v = 64;
//   SparseLinear layer(weights, opt);
//   Matrix<float> y = layer.Forward(x);
//   double speedup = layer.SpeedupOverDense(x.cols(), GetGpuSpec(arch));
#pragma once

#include "arch/cost_model.h"
#include "arch/gpu_spec.h"
#include "common/matrix.h"
#include "runtime/format.h"

namespace shflbw {

/// A pruned, compressed linear layer: y = W_sparse * x.
class SparseLinear {
 public:
  struct Options {
    runtime::Format format = runtime::Format::kShflBw;
    double density = 0.25;
    int v = 32;
  };

  /// Prunes `weights` (M x K, original order) per the options and
  /// compresses into the format's packed representation.
  SparseLinear(const Matrix<float>& weights, const Options& options);

  /// Executes the layer on activations x (K x N) with the format's
  /// kernel; returns M x N. Bit-identical to GemmReference on the pruned
  /// weights.
  Matrix<float> Forward(const Matrix<float>& x) const;

  /// Kernel resource counts for a batch of n columns on `spec`.
  KernelStats Stats(int n, const GpuSpec& spec) const;

  /// Modelled execution time for a batch of n columns on `spec`.
  TimeBreakdown ModelTime(int n, const GpuSpec& spec) const;

  /// Modelled speedup over the dense tensor-core baseline.
  double SpeedupOverDense(int n, const GpuSpec& spec) const;

  const Matrix<float>& pruned_weights() const { return pruned_weights_; }
  const Matrix<float>& mask() const { return mask_; }
  const Options& options() const { return options_; }
  int rows() const { return pruned_weights_.rows(); }
  int cols() const { return pruned_weights_.cols(); }
  /// Achieved (exact) density after pruning.
  double AchievedDensity() const;

 private:
  Options options_;
  Matrix<float> pruned_weights_;  // dense masked weights, original order
  Matrix<float> mask_;
  runtime::PackedWeight packed_;  // what Forward executes
};

}  // namespace shflbw
