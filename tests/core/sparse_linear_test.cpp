// A pruned linear layer on the runtime surface: the weight
// runtime::PackWeight packs keeps only the master's own entries at the
// target density, and ModeledLayerSeconds puts Shfl-BW above and
// unstructured sparsity below the tensor-core dense baseline at 75%
// sparsity (Fig. 1 region C, §6.2).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "runtime/planner.h"
#include "runtime/weight_cache.h"

namespace shflbw {
namespace runtime {
namespace {

/// Modelled speedup over dense of an m x k weight kept at 25% density
/// in `f` (V=64) on n activation columns, on V100.
double SpeedupAt75PercentSparsity(Format f, int m, int n, int k) {
  LayerDesc l;
  l.gemm = {"fc", m, n, k};
  PlannerOptions opts;
  opts.density = 0.25;
  opts.v = 64;
  const auto dense_s = ModeledLayerSeconds(l, Format::kDense, opts);
  const auto sparse_s = ModeledLayerSeconds(l, f, opts);
  EXPECT_TRUE(dense_s && sparse_s) << FormatName(f);
  return dense_s && sparse_s ? *dense_s / *sparse_s : 0.0;
}

TEST(SparseLinear, ShflBwKeepsMasterEntriesAtTheTargetDensity) {
  Rng rng(307);
  const Matrix<float> w = rng.NormalMatrix(64, 64);
  const Matrix<float> kept =
      PackWeight(Format::kShflBw, w, 0.25, 16).shflbw.ToDense();
  for (int r = 0; r < w.rows(); ++r) {
    for (int c = 0; c < w.cols(); ++c) {
      EXPECT_TRUE(kept(r, c) == 0.0f || kept(r, c) == w(r, c))
          << r << "," << c;
    }
  }
  EXPECT_NEAR(1.0 - Sparsity(kept), 0.25, 0.02);
}

TEST(SparseLinear, ShflBwSpeedupOverDenseAt75PercentSparsity) {
  // Fig. 1 region C: tensor-core sparse beats tensor-core dense.
  EXPECT_GT(SpeedupAt75PercentSparsity(Format::kShflBw, 2048, 128, 2048), 1.0);
}

TEST(SparseLinear, UnstructuredSlowerThanDenseOnTensorCoreBaseline) {
  // §6.2: unstructured cannot exceed the tensor-core dense baseline even
  // at high sparsity.
  EXPECT_LT(SpeedupAt75PercentSparsity(Format::kCsr, 2048, 128, 2048), 1.0);
}

}  // namespace
}  // namespace runtime
}  // namespace shflbw
