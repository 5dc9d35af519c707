#include "kernels/kernel_registry.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace shflbw {
namespace {

const GpuSpec& V100() { return GetGpuSpec(GpuArch::kV100); }
const GpuSpec& A100() { return GetGpuSpec(GpuArch::kA100); }

TEST(Registry, AllClassesProduceStatsOnFriendlyShape) {
  LayerProblem p{2048, 128, 2048, 0.5, 32};
  for (KernelClass k :
       {KernelClass::kCsrScalar, KernelClass::kSputnik,
        KernelClass::kVectorSparse, KernelClass::kTilewise,
        KernelClass::kBsrTensorCore, KernelClass::kVectorWiseTensorCore,
        KernelClass::kShflBwTensorCore}) {
    EXPECT_TRUE(LayerStats(k, p, V100()).has_value())
        << KernelClassName(k);
  }
  EXPECT_TRUE(LayerStats(KernelClass::kBalanced24, p, A100()).has_value());
}

TEST(Registry, Balanced24OnlyOnA100At50) {
  LayerProblem p{2048, 128, 2048, 0.5, 32};
  EXPECT_FALSE(LayerStats(KernelClass::kBalanced24, p, V100()).has_value());
  p.density = 0.25;
  EXPECT_FALSE(LayerStats(KernelClass::kBalanced24, p, A100()).has_value());
}

TEST(Registry, VConstraintsEnforced) {
  LayerProblem p{100, 128, 2048, 0.5, 32};  // m=100 not divisible by 32
  EXPECT_FALSE(
      LayerStats(KernelClass::kShflBwTensorCore, p, V100()).has_value());
  EXPECT_FALSE(LayerStats(KernelClass::kTilewise, p, V100()).has_value());
  // Unstructured kernels have no V constraint.
  EXPECT_TRUE(LayerStats(KernelClass::kSputnik, p, V100()).has_value());
}

TEST(Registry, SpeedupOverDenseDefinition) {
  LayerProblem p{4096, 128, 1024, 0.25, 64};
  const auto speedup =
      SpeedupOverDense(KernelClass::kShflBwTensorCore, p, V100());
  ASSERT_TRUE(speedup.has_value());
  const auto dense_s = LayerSeconds(KernelClass::kDenseTensorCore, p, V100());
  const auto sparse_s =
      LayerSeconds(KernelClass::kShflBwTensorCore, p, V100());
  EXPECT_NEAR(*speedup, *dense_s / *sparse_s, 1e-12);
}

TEST(Registry, DenseSpeedupIsOne) {
  LayerProblem p{1024, 128, 1024, 1.0, 32};
  const auto s = SpeedupOverDense(KernelClass::kDenseTensorCore, p, V100());
  ASSERT_TRUE(s.has_value());
  EXPECT_NEAR(*s, 1.0, 1e-12);
}

TEST(Registry, BadShapesThrow) {
  LayerProblem p{0, 128, 1024, 0.25, 32};
  EXPECT_THROW(LayerStats(KernelClass::kSputnik, p, V100()), Error);
  LayerProblem p2{128, 128, 1024, 0.0, 32};
  EXPECT_THROW(LayerStats(KernelClass::kSputnik, p2, V100()), Error);
}

}  // namespace
}  // namespace shflbw
