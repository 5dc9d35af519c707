// Numerical correctness of every sparse kernel: each must produce output
// bit-identical to the dense reference GEMM on the same masked weights
// (all kernels accumulate along ascending K in fp32; see kernel_api.h).
#include <numeric>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "kernels/conv2d.h"
#include "kernels/gemm_dense.h"
#include "kernels/spmm_balanced24.h"
#include "kernels/spmm_bsr.h"
#include "kernels/spmm_csr.h"
#include "kernels/spmm_shfl_bw.h"
#include "kernels/spmm_tilewise.h"
#include "kernels/spmm_vector_sparse.h"
#include "kernels/spmm_vector_wise.h"
#include "prune/balanced24_prune.h"
#include "prune/block_wise.h"
#include "prune/shfl_bw_search.h"
#include "prune/unstructured.h"
#include "prune/vector_wise_prune.h"

namespace shflbw {
namespace {

struct SpmmCase {
  int m, n, k;
  double density;
};

class SpmmCorrectness : public ::testing::TestWithParam<SpmmCase> {
 protected:
  void SetUp() override {
    const SpmmCase& c = GetParam();
    Rng rng(1000 + c.m + c.n + c.k);
    weights_ = rng.NormalMatrix(c.m, c.k);
    b_ = rng.NormalMatrix(c.k, c.n);
  }
  Matrix<float> weights_;
  Matrix<float> b_;
};

TEST_P(SpmmCorrectness, CsrScalarMatchesReference) {
  const Matrix<float> pruned =
      PruneUnstructured(weights_, GetParam().density);
  const CsrMatrix csr = CsrMatrix::FromDense(pruned);
  EXPECT_EQ(SpmmCsr(csr, b_), GemmReference(pruned, b_));
}

TEST_P(SpmmCorrectness, BsrMatchesReference) {
  const int v = 8;
  if (GetParam().m % v != 0 || GetParam().k % v != 0) GTEST_SKIP();
  const Matrix<float> pruned =
      PruneBlockWise(weights_, GetParam().density, v);
  const BsrMatrix bsr = BsrMatrix::FromDense(pruned, v);
  EXPECT_EQ(SpmmBsr(bsr, b_), GemmReference(pruned, b_));
}

TEST_P(SpmmCorrectness, VectorWiseMatchesReference) {
  const int v = 8;
  if (GetParam().m % v != 0) GTEST_SKIP();
  const Matrix<float> pruned =
      PruneVectorWise(weights_, GetParam().density, v);
  const VectorWiseMatrix vw = VectorWiseMatrix::FromDense(pruned, v);
  EXPECT_EQ(SpmmVectorWise(vw, b_), GemmReference(pruned, b_));
}

TEST_P(SpmmCorrectness, ShflBwMatchesReference) {
  const int v = 8;
  if (GetParam().m % v != 0) GTEST_SKIP();
  const ShflBwMatrix m = PruneToShflBw(weights_, GetParam().density, v);
  // The kernel writes rows back in ORIGINAL order; reference runs on the
  // pruned dense matrix in original order.
  EXPECT_EQ(SpmmShflBw(m, b_), GemmReference(m.ToDense(), b_));
}

TEST_P(SpmmCorrectness, VectorSparseMatchesReference) {
  if (GetParam().m % kVectorSparseV != 0) GTEST_SKIP();
  const Matrix<float> pruned =
      PruneVectorWise(weights_, GetParam().density, kVectorSparseV);
  const VectorWiseMatrix vw =
      VectorWiseMatrix::FromDense(pruned, kVectorSparseV);
  EXPECT_EQ(SpmmVectorWise(vw, b_), GemmReference(pruned, b_));
}

TEST_P(SpmmCorrectness, Balanced24MatchesReference) {
  if (GetParam().k % 4 != 0) GTEST_SKIP();
  const Matrix<float> pruned = PruneBalanced24(weights_);
  const Balanced24Matrix m = Balanced24Matrix::FromDense(pruned);
  EXPECT_EQ(SpmmBalanced24(m, b_), GemmReference(pruned, b_));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpmmCorrectness,
    ::testing::Values(SpmmCase{16, 8, 16, 0.5}, SpmmCase{32, 16, 32, 0.25},
                      SpmmCase{64, 24, 48, 0.25}, SpmmCase{64, 33, 64, 0.1},
                      SpmmCase{128, 7, 96, 0.15}, SpmmCase{40, 12, 20, 0.5},
                      SpmmCase{64, 128, 64, 0.05},
                      SpmmCase{96, 17, 128, 0.75}));

TEST(SpmmTilewiseCorrectness, MatchesReference) {
  Rng rng(71);
  const Matrix<float> w = rng.NormalMatrix(256, 64);
  const Matrix<float> b = rng.NormalMatrix(64, 16);
  const Matrix<float> pruned = PruneVectorWise(w, 0.25, kTilewiseV);
  const VectorWiseMatrix vw = VectorWiseMatrix::FromDense(pruned, kTilewiseV);
  EXPECT_EQ(SpmmVectorWise(vw, b), GemmReference(pruned, b));
}

TEST(SpmmEdgeCases, EmptySparseMatrixGivesZeros) {
  Rng rng(73);
  const Matrix<float> b = rng.NormalMatrix(16, 8);
  const VectorWiseMatrix vw =
      VectorWiseMatrix::FromDense(Matrix<float>(16, 16), 4);
  EXPECT_EQ(SpmmVectorWise(vw, b), Matrix<float>(16, 8));
}

TEST(SpmmEdgeCases, FullyDenseShflBwMatchesDenseGemm) {
  Rng rng(79);
  const Matrix<float> w = rng.NormalMatrix(16, 16);
  const Matrix<float> b = rng.NormalMatrix(16, 8);
  const ShflBwMatrix m = PruneToShflBw(w, 1.0, 4);
  EXPECT_EQ(SpmmShflBw(m, b), GemmReference(m.ToDense(), b));
  // At density 1.0 nothing is pruned.
  EXPECT_EQ(m.ToDense(), w);
}

TEST(SpmmEdgeCases, SingleColumnActivation) {
  Rng rng(83);
  const Matrix<float> w = rng.NormalMatrix(8, 8);
  const Matrix<float> b = rng.NormalMatrix(8, 1);
  const ShflBwMatrix m = PruneToShflBw(w, 0.5, 4);
  EXPECT_EQ(SpmmShflBw(m, b), GemmReference(m.ToDense(), b));
}

TEST(SpmmEdgeCases, ShapeMismatchThrows) {
  const VectorWiseMatrix vw =
      VectorWiseMatrix::FromDense(Matrix<float>(8, 8), 4);
  EXPECT_THROW(SpmmVectorWise(vw, Matrix<float>(9, 4)), Error);
}

// The reordered write-back property in isolation: permuting the rows of
// the weight matrix and carrying the permutation in the format must give
// exactly the same output as not permuting at all.
TEST(ReorderedWriteBack, PermutationInvariance) {
  Rng rng(89);
  const Matrix<float> w = rng.NormalMatrix(32, 32);
  const Matrix<float> b = rng.NormalMatrix(32, 8);
  const Matrix<float> pruned = PruneVectorWise(w, 0.25, 8);

  // Identity permutation.
  std::vector<int> identity(32);
  std::iota(identity.begin(), identity.end(), 0);
  const ShflBwMatrix id = ShflBwMatrix::FromDense(pruned, 8, identity);

  // Random permutation: the vector-wise structure inside each group is
  // destroyed, but auto-grouping restores contiguity; outputs match.
  Rng prng(97);
  const std::vector<int> perm = prng.Permutation(32);
  const ShflBwMatrix shuffled = ShflBwMatrix::FromDense(pruned, 8, perm);

  const Matrix<float> expected = GemmReference(pruned, b);
  EXPECT_EQ(SpmmShflBw(id, b), expected);
  EXPECT_EQ(SpmmShflBw(shuffled, b), expected);
}

// The GpuSpec overloads kept for callers that want both halves at once
// return exactly the execute's output and the stats model's counts.
void ExpectSameStats(const KernelStats& got, const KernelStats& want) {
  EXPECT_EQ(got.kernel_name, want.kernel_name);
  EXPECT_EQ(got.useful_flops, want.useful_flops);
  EXPECT_EQ(got.issued_macs, want.issued_macs);
  EXPECT_EQ(got.dram_read_bytes, want.dram_read_bytes);
  EXPECT_EQ(got.l2_read_bytes, want.l2_read_bytes);
  EXPECT_EQ(got.threadblocks, want.threadblocks);
}

TEST(GpuSpecOverloads, PairTheExecuteWithItsStatsModel) {
  const GpuSpec& spec = GetGpuSpec(GpuArch::kT4);
  Rng rng(101);
  const Matrix<float> w = rng.NormalMatrix(32, 48);
  const Matrix<float> b = rng.NormalMatrix(48, 20);

  const ShflBwMatrix sm = PruneToShflBw(w, 0.25, 8);
  const KernelResult shfl = SpmmShflBw(sm, b, spec);
  EXPECT_EQ(shfl.c, SpmmShflBw(sm, b));
  ExpectSameStats(shfl.stats, SpmmShflBwStats(sm, b.cols(), spec));

  const VectorWiseMatrix vw =
      VectorWiseMatrix::FromDense(PruneVectorWise(w, 0.25, 8), 8);
  const KernelResult vec = SpmmVectorWise(vw, b, spec);
  EXPECT_EQ(vec.c, SpmmVectorWise(vw, b));
  ExpectSameStats(vec.stats, SpmmVectorWiseStats(vw, b.cols(), spec));

  ConvShape shape;
  shape.in_c = 3;
  shape.in_h = shape.in_w = 6;
  shape.out_c = 8;
  shape.kh = shape.kw = 3;
  shape.pad = 1;
  Tensor4 input(1, 3, 6, 6);
  for (float& x : input.data) x = static_cast<float>(rng.Normal());
  const Matrix<float> filters = rng.NormalMatrix(8, shape.GemmK());
  const KernelResult conv = Conv2dDense(input, filters, shape, spec);
  EXPECT_EQ(conv.c, Conv2dDense(input, filters, shape));
  ExpectSameStats(conv.stats, Conv2dDenseStats(shape, spec));
}

}  // namespace
}  // namespace shflbw
