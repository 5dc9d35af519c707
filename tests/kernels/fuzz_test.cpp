// Randomized cross-kernel differential tests: for many random shapes
// and sparsities, every kernel's output must be
// bit-identical to the dense reference on the same masked weights.
// This is the failure-injection net under the whole kernel layer.
#include <numeric>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "kernels/gemm_dense.h"
#include "kernels/spmm_balanced24.h"
#include "kernels/spmm_bsr.h"
#include "kernels/spmm_csr.h"
#include "kernels/spmm_shfl_bw.h"
#include "kernels/spmm_vector_wise.h"
#include "prune/balanced24_prune.h"
#include "prune/block_wise.h"
#include "prune/shfl_bw_search.h"
#include "prune/unstructured.h"
#include "prune/vector_wise_prune.h"

namespace shflbw {
namespace {

class KernelFuzz : public ::testing::TestWithParam<int> {};

TEST_P(KernelFuzz, AllKernelsAgreeOnRandomProblem) {
  Rng rng(static_cast<std::uint64_t>(10000 + GetParam()));
  // Random problem: v in {2,4,8,16}, m a multiple of 4v, odd-ish n/k.
  const int v = 1 << rng.UniformInt(1, 4);
  const int m = v * rng.UniformInt(2, 6) * 4;
  const int k = 4 * rng.UniformInt(3, 24);
  const int n = rng.UniformInt(1, 40);
  const double density = rng.Uniform(0.05, 0.95);

  const Matrix<float> w = rng.NormalMatrix(m, k);
  const Matrix<float> b = rng.NormalMatrix(k, n);

  // Unstructured -> CSR (the Sputnik / cuSPARSE execute).
  {
    const Matrix<float> pruned = PruneUnstructured(w, density);
    EXPECT_EQ(SpmmCsr(CsrMatrix::FromDense(pruned), b),
              GemmReference(pruned, b))
        << "csr m=" << m << " k=" << k << " n=" << n;
  }
  // Vector-wise.
  {
    const Matrix<float> pruned = PruneVectorWise(w, density, v);
    const VectorWiseMatrix vw = VectorWiseMatrix::FromDense(pruned, v);
    EXPECT_EQ(SpmmVectorWise(vw, b), GemmReference(pruned, b))
        << "vw v=" << v;
  }
  // Shfl-BW through the full search.
  {
    const ShflBwMatrix sm = PruneToShflBw(w, density, v);
    EXPECT_EQ(SpmmShflBw(sm, b), GemmReference(sm.ToDense(), b))
        << "shflbw v=" << v << " density=" << density;
  }
  // Block-wise (needs k % v == 0).
  if (k % v == 0) {
    const Matrix<float> pruned = PruneBlockWise(w, density, v);
    EXPECT_EQ(SpmmBsr(BsrMatrix::FromDense(pruned, v), b),
              GemmReference(pruned, b))
        << "bsr v=" << v;
  }
  // Balanced 2:4.
  {
    const Matrix<float> pruned = PruneBalanced24(w);
    EXPECT_EQ(SpmmBalanced24(Balanced24Matrix::FromDense(pruned), b),
              GemmReference(pruned, b));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelFuzz, ::testing::Range(0, 24));

class FormatFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FormatFuzz, RoundTripsOnRandomSparseMatrices) {
  Rng rng(static_cast<std::uint64_t>(20000 + GetParam()));
  const int v = 1 << rng.UniformInt(1, 3);
  const int m = v * rng.UniformInt(1, 8);
  const int k = rng.UniformInt(1, 50);
  const double density = rng.Uniform(0.0, 1.0);
  const Matrix<float> d = rng.SparseMatrix(m, k, density);

  const CsrMatrix csr = CsrMatrix::FromDense(d);
  csr.Validate();
  EXPECT_EQ(csr.ToDense(), d);

  const VectorWiseMatrix vw = VectorWiseMatrix::FromDense(d, v);
  vw.Validate();
  EXPECT_EQ(vw.ToDense(), d);

  const ShflBwMatrix sm = ShflBwMatrix::FromDenseAuto(d, v);
  sm.Validate();
  EXPECT_EQ(sm.ToDense(), d);

  if (m % v == 0 && k % v == 0 && k > 0) {
    const BsrMatrix bsr = BsrMatrix::FromDense(d, v);
    bsr.Validate();
    EXPECT_EQ(bsr.ToDense(), d);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormatFuzz, ::testing::Range(0, 24));

class SearchFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SearchFuzz, SearchInvariantsOnRandomScores) {
  Rng rng(static_cast<std::uint64_t>(30000 + GetParam()));
  const int v = 1 << rng.UniformInt(2, 4);
  const int m = v * rng.UniformInt(2, 6);
  const int k = 8 * rng.UniformInt(2, 16);
  const double density = rng.Uniform(0.05, 0.6);
  const Matrix<float> scores = rng.UniformMatrix(m, k, 0.0f, 1.0f);

  const ShflBwSearchResult r = ShflBwSearch(scores, density, v);
  // (1) permutation is valid
  std::vector<char> seen(static_cast<std::size_t>(m), 0);
  for (int x : r.storage_to_original) {
    ASSERT_GE(x, 0);
    ASSERT_LT(x, m);
    ASSERT_FALSE(seen[x]);
    seen[x] = 1;
  }
  // (2) mask is binary and close to the target density
  for (float x : r.mask.storage()) {
    ASSERT_TRUE(x == 0.0f || x == 1.0f);
  }
  EXPECT_NEAR(1.0 - Sparsity(r.mask), density, 0.5 / (m / double(v)));
  // (3) groups share identical patterns under the permutation
  for (int g = 0; g < m / v; ++g) {
    for (int c = 0; c < k; ++c) {
      float sum = 0;
      for (int i = 0; i < v; ++i) {
        sum += r.mask(r.storage_to_original[g * v + i], c);
      }
      ASSERT_TRUE(sum == 0.0f || sum == static_cast<float>(v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SearchFuzz, ::testing::Range(0, 16));

}  // namespace
}  // namespace shflbw
