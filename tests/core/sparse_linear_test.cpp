#include "core/sparse_linear.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "kernels/gemm_dense.h"

namespace shflbw {
namespace {

using runtime::Format;

const GpuSpec& V100() { return GetGpuSpec(GpuArch::kV100); }

SparseLinear::Options Opt(Format f, double density, int v) {
  SparseLinear::Options o;
  o.format = f;
  o.density = density;
  o.v = v;
  return o;
}

class AllPatterns : public ::testing::TestWithParam<Format> {};

TEST_P(AllPatterns, ForwardMatchesReferenceOnPrunedWeights) {
  Rng rng(283);
  const Matrix<float> w = rng.NormalMatrix(32, 32);
  const Matrix<float> x = rng.NormalMatrix(32, 12);
  const double density =
      GetParam() == Format::kBalanced24 ? 0.5 : 0.25;
  const SparseLinear layer(w, Opt(GetParam(), density, 8));
  EXPECT_EQ(layer.Forward(x), GemmReference(layer.pruned_weights(), x));
}

TEST_P(AllPatterns, AchievedDensityNearTarget) {
  Rng rng(293);
  const Matrix<float> w = rng.NormalMatrix(64, 64);
  const double density =
      GetParam() == Format::kBalanced24 ? 0.5 : 0.25;
  const SparseLinear layer(w, Opt(GetParam(), density, 16));
  if (GetParam() == Format::kDense) {
    EXPECT_DOUBLE_EQ(layer.AchievedDensity(), 1.0);
  } else {
    EXPECT_NEAR(layer.AchievedDensity(), density, 0.02);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, AllPatterns,
    ::testing::ValuesIn(runtime::AllFormats()));

TEST(SparseLinear, MaskedWeightsAreSubsetOfOriginal) {
  Rng rng(307);
  const Matrix<float> w = rng.NormalMatrix(32, 32);
  const SparseLinear layer(w, Opt(Format::kShflBw, 0.25, 8));
  for (int r = 0; r < 32; ++r) {
    for (int c = 0; c < 32; ++c) {
      const float pv = layer.pruned_weights()(r, c);
      EXPECT_TRUE(pv == 0.0f || pv == w(r, c));
    }
  }
}

TEST(SparseLinear, ShflBwSpeedupOverDenseAt75PercentSparsity) {
  Rng rng(311);
  const Matrix<float> w = rng.NormalMatrix(2048, 2048);
  const SparseLinear layer(w, Opt(Format::kShflBw, 0.25, 64));
  // Fig. 1 region C: tensor-core sparse beats tensor-core dense at
  // 75% sparsity.
  EXPECT_GT(layer.SpeedupOverDense(128, V100()), 1.0);
}

TEST(SparseLinear, UnstructuredSlowerThanDenseOnTensorCoreBaseline) {
  Rng rng(313);
  const Matrix<float> w = rng.NormalMatrix(2048, 2048);
  const SparseLinear layer(w, Opt(Format::kCsr, 0.25, 64));
  // §6.2: unstructured cannot exceed the TC dense baseline even at
  // high sparsity (here 75%).
  EXPECT_LT(layer.SpeedupOverDense(128, V100()), 1.0);
}

TEST(SparseLinear, StatsConsistentWithModelTime) {
  Rng rng(317);
  const Matrix<float> w = rng.NormalMatrix(256, 256);
  const SparseLinear layer(w, Opt(Format::kShflBw, 0.25, 32));
  const KernelStats s = layer.Stats(64, V100());
  const TimeBreakdown t = layer.ModelTime(64, V100());
  EXPECT_DOUBLE_EQ(CostModel(V100()).Estimate(s).total_s, t.total_s);
  EXPECT_EQ(s.kernel_class, KernelClass::kShflBwTensorCore);
}

TEST(SparseLinear, Balanced24RequiresHalfDensity) {
  Rng rng(331);
  const Matrix<float> w = rng.NormalMatrix(16, 16);
  EXPECT_THROW(SparseLinear(w, Opt(Format::kBalanced24, 0.25, 8)),
               Error);
}

TEST(SparseLinear, DensePatternKeepsAllWeights) {
  Rng rng(337);
  const Matrix<float> w = rng.NormalMatrix(16, 16);
  const SparseLinear layer(w, Opt(Format::kDense, 1.0, 8));
  EXPECT_EQ(layer.pruned_weights(), w);
}

}  // namespace
}  // namespace shflbw
