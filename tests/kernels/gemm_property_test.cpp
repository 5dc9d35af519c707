// Parameterized GEMM property sweeps across shapes: algebraic identities
// the fp16-reference kernel must satisfy, and stats invariants every
// kernel class must uphold.
#include <tuple>

#include <gtest/gtest.h>

#include "arch/cost_model.h"
#include "common/rng.h"
#include "kernels/gemm_dense.h"
#include "kernels/spmm_csr.h"

namespace shflbw {
namespace {

using ShapeCase = std::tuple<int, int, int>;  // m, n, k

class GemmShapeSweep : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(GemmShapeSweep, ZeroOperandGivesZero) {
  const auto [m, n, k] = GetParam();
  Rng rng(1200 + m + n + k);
  const Matrix<float> b = rng.NormalMatrix(k, n);
  EXPECT_EQ(GemmReference(Matrix<float>(m, k), b), Matrix<float>(m, n));
}

TEST_P(GemmShapeSweep, ScalingCommutesThroughFp16) {
  // (2A)B == 2(AB) exactly: scaling by a power of two only changes the
  // exponent, so every rounding decision is identical.
  const auto [m, n, k] = GetParam();
  Rng rng(1300 + m + n + k);
  const Matrix<float> a = rng.NormalMatrix(m, k);
  const Matrix<float> b = rng.NormalMatrix(k, n);
  Matrix<float> a2 = a;
  for (auto& v : a2.storage()) v *= 2.0f;
  const Matrix<float> lhs = GemmReference(a2, b);
  Matrix<float> rhs = GemmReference(a, b);
  for (auto& v : rhs.storage()) v *= 2.0f;
  // rhs scaling happens after the final fp16 round; re-round to align.
  for (auto& v : rhs.storage()) v = Fp16(v).ToFloat();
  EXPECT_EQ(lhs, rhs);
}

TEST_P(GemmShapeSweep, BlockDiagonalDecomposes) {
  // A GEMM against a block-diagonal A equals two half-size GEMMs.
  const auto [m, n, k] = GetParam();
  if (m % 2 != 0 || k % 2 != 0) GTEST_SKIP();
  Rng rng(1400 + m + n + k);
  const Matrix<float> a1 = rng.NormalMatrix(m / 2, k / 2);
  const Matrix<float> a2 = rng.NormalMatrix(m / 2, k / 2);
  const Matrix<float> b = rng.NormalMatrix(k, n);

  Matrix<float> block(m, k);
  for (int r = 0; r < m / 2; ++r) {
    for (int c = 0; c < k / 2; ++c) {
      block(r, c) = a1(r, c);
      block(m / 2 + r, k / 2 + c) = a2(r, c);
    }
  }
  const Matrix<float> full = GemmReference(block, b);

  Matrix<float> b1(k / 2, n), b2(k / 2, n);
  for (int r = 0; r < k / 2; ++r) {
    for (int c = 0; c < n; ++c) {
      b1(r, c) = b(r, c);
      b2(r, c) = b(k / 2 + r, c);
    }
  }
  const Matrix<float> top = GemmReference(a1, b1);
  const Matrix<float> bottom = GemmReference(a2, b2);
  for (int r = 0; r < m / 2; ++r) {
    for (int c = 0; c < n; ++c) {
      EXPECT_EQ(full(r, c), top(r, c));
      EXPECT_EQ(full(m / 2 + r, c), bottom(r, c));
    }
  }
}

TEST_P(GemmShapeSweep, StatsInvariantsForEveryKernelClass) {
  const auto [m, n, k] = GetParam();
  const GpuSpec& spec = GetGpuSpec(GpuArch::kV100);
  const double nnz = 0.5 * m * k;
  for (const KernelStats& stats :
       {GemmTensorCoreStats(m, n, k, spec), GemmCudaCoreStats(m, n, k, spec),
        SpmmCsrScalarStats(m, n, k, nnz, spec),
        SpmmSputnikStats(m, n, k, nnz, spec)}) {
    SCOPED_TRACE(stats.kernel_name);
    // Bytes and ops non-negative; issued >= useful/2; DRAM reads are a
    // lower bound of L2 reads plus the gap the L2 absorbs.
    EXPECT_GE(stats.issued_macs, stats.useful_flops / 2.0 - 1e-9);
    EXPECT_GT(stats.dram_read_bytes, 0.0);
    EXPECT_GT(stats.dram_write_bytes, 0.0);
    EXPECT_GE(stats.l2_read_bytes, 0.0);
    // Modelled time strictly positive and finite.
    const double t = CostModel(spec).Seconds(stats);
    EXPECT_GT(t, 0.0);
    EXPECT_TRUE(std::isfinite(t));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeSweep,
    ::testing::Values(ShapeCase{4, 4, 4}, ShapeCase{16, 8, 32},
                      ShapeCase{32, 1, 16}, ShapeCase{1, 32, 16},
                      ShapeCase{20, 12, 28}, ShapeCase{64, 64, 64},
                      ShapeCase{10, 3, 50}));

}  // namespace
}  // namespace shflbw
