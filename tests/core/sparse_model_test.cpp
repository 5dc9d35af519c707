#include "core/sparse_model.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "kernels/gemm_dense.h"

namespace shflbw {
namespace {

const GpuSpec& V100() { return GetGpuSpec(GpuArch::kV100); }

SparseLinear::Options ShflBwOpt(double density, int v) {
  SparseLinear::Options o;
  o.format = runtime::Format::kShflBw;
  o.density = density;
  o.v = v;
  return o;
}

TEST(SparseModel, ForwardMatchesPerLayerReference) {
  Rng rng(701);
  const Matrix<float> w1 = rng.NormalMatrix(64, 32);
  const Matrix<float> w2 = rng.NormalMatrix(16, 64);
  SparseModel model;
  model.AddLayer("fc1", w1, ShflBwOpt(0.25, 8), Activation::kRelu);
  model.AddLayer("fc2", w2, ShflBwOpt(0.25, 8), Activation::kNone);

  const Matrix<float> x = rng.NormalMatrix(32, 12);
  const Matrix<float> y = model.Forward(x);

  Matrix<float> h = GemmReference(model.layer(0).linear.pruned_weights(), x);
  for (auto& v : h.storage()) v = v > 0.0f ? v : 0.0f;
  const Matrix<float> expected =
      GemmReference(model.layer(1).linear.pruned_weights(), h);
  EXPECT_EQ(y, expected);
}

TEST(SparseModel, ShapeMismatchRejected) {
  Rng rng(709);
  SparseModel model;
  model.AddLayer("fc1", rng.NormalMatrix(64, 32), ShflBwOpt(0.25, 8));
  EXPECT_THROW(
      model.AddLayer("fc2", rng.NormalMatrix(16, 48), ShflBwOpt(0.25, 8)),
      Error);
}

TEST(SparseModel, EmptyModelRejected) {
  SparseModel model;
  EXPECT_THROW(model.Forward(Matrix<float>(4, 4)), Error);
  EXPECT_THROW(model.SpeedupOverDense(4, V100()), Error);
}

TEST(SparseModel, ModelSecondsSumsLayers) {
  Rng rng(719);
  SparseModel model;
  model.AddLayer("fc1", rng.NormalMatrix(256, 128), ShflBwOpt(0.25, 32));
  model.AddLayer("fc2", rng.NormalMatrix(128, 256), ShflBwOpt(0.25, 32));
  const double total = model.ModelSeconds(64, V100());
  const double sum = model.layer(0).linear.ModelTime(64, V100()).total_s +
                     model.layer(1).linear.ModelTime(64, V100()).total_s;
  EXPECT_DOUBLE_EQ(total, sum);
}

TEST(SparseModel, CompressionAccounting) {
  Rng rng(727);
  SparseModel model;
  model.AddLayer("fc", rng.NormalMatrix(512, 512), ShflBwOpt(0.25, 32));
  EXPECT_DOUBLE_EQ(model.DenseBytes(), 2.0 * 512 * 512);
  // ~25% of values + metadata: well under half the dense size.
  EXPECT_LT(model.CompressedBytes(), 0.5 * model.DenseBytes());
  EXPECT_GT(model.CompressedBytes(), 0.25 * 2.0 * 512 * 512);
}

TEST(SparseModel, SpeedupPositiveAtHighSparsity) {
  Rng rng(733);
  SparseModel model;
  model.AddLayer("fc1", rng.NormalMatrix(2048, 512), ShflBwOpt(0.25, 64));
  model.AddLayer("fc2", rng.NormalMatrix(512, 2048), ShflBwOpt(0.25, 64));
  EXPECT_GT(model.SpeedupOverDense(512, V100()), 1.0);
}

TEST(SparseModel, MixedPatternsPerLayer) {
  Rng rng(739);
  SparseModel model;
  SparseLinear::Options dense_opt;
  dense_opt.format = runtime::Format::kDense;
  dense_opt.density = 1.0;
  model.AddLayer("embed", rng.NormalMatrix(64, 32), dense_opt);
  model.AddLayer("fc", rng.NormalMatrix(32, 64), ShflBwOpt(0.5, 8),
                 Activation::kNone);
  const Matrix<float> x = rng.NormalMatrix(32, 4);
  EXPECT_EQ(model.Forward(x).rows(), 32);
  EXPECT_EQ(model.NumLayers(), 2u);
}

}  // namespace
}  // namespace shflbw
