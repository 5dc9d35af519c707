// Parallel-vs-serial determinism: every SpMM-family kernel must produce
// BIT-identical output at any thread count, because the tile / row
// decomposition writes disjoint output regions and accumulation order
// within each output element never changes. Shapes deliberately include
// ragged tails (n % tn != 0, kept % tk != 0, n < kMmaN).
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
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

const GpuSpec& Spec() { return GetGpuSpec(GpuArch::kV100); }

constexpr int kThreadSweep[] = {1, 2, 8};

/// Runs `kernel` at 1, 2 and 8 threads and requires bit-identical
/// output matrices (Matrix::operator== compares raw storage).
template <typename KernelFn>
void ExpectThreadCountInvariant(const KernelFn& kernel, const char* what) {
  SetParallelThreads(kThreadSweep[0]);
  const Matrix<float> ref = kernel();
  for (std::size_t i = 1; i < std::size(kThreadSweep); ++i) {
    SetParallelThreads(kThreadSweep[i]);
    EXPECT_EQ(kernel(), ref)
        << what << " differs at " << kThreadSweep[i] << " threads";
  }
  SetParallelThreads(0);
}

struct ParallelCase {
  int m, n, k;
  double density;
};

class SpmmParallelDeterminism : public ::testing::TestWithParam<ParallelCase> {
 protected:
  void SetUp() override {
    const ParallelCase& c = GetParam();
    Rng rng(7000 + c.m + c.n + c.k);
    weights_ = rng.NormalMatrix(c.m, c.k);
    b_ = rng.NormalMatrix(c.k, c.n);
  }
  void TearDown() override { SetParallelThreads(0); }
  Matrix<float> weights_;
  Matrix<float> b_;
};

TEST_P(SpmmParallelDeterminism, VectorWise) {
  const Matrix<float> pruned =
      PruneVectorWise(weights_, GetParam().density, 8);
  const VectorWiseMatrix vw = VectorWiseMatrix::FromDense(pruned, 8);
  ExpectThreadCountInvariant([&] { return SpmmVectorWise(vw, b_); },
                             "vector-wise");
}

TEST_P(SpmmParallelDeterminism, ShflBw) {
  const ShflBwMatrix m = PruneToShflBw(weights_, GetParam().density, 8);
  ExpectThreadCountInvariant([&] { return SpmmShflBw(m, b_); }, "shfl-bw");
}

TEST_P(SpmmParallelDeterminism, CsrScalar) {
  const Matrix<float> pruned =
      PruneUnstructured(weights_, GetParam().density);
  const CsrMatrix csr = CsrMatrix::FromDense(pruned);
  ExpectThreadCountInvariant([&] { return SpmmCsr(csr, b_); }, "csr-scalar");
}

TEST_P(SpmmParallelDeterminism, Bsr) {
  if (GetParam().k % 8 != 0) GTEST_SKIP();
  const Matrix<float> pruned =
      PruneBlockWise(weights_, GetParam().density, 8);
  const BsrMatrix bsr = BsrMatrix::FromDense(pruned, 8);
  ExpectThreadCountInvariant([&] { return SpmmBsr(bsr, b_); }, "bsr");
}

TEST_P(SpmmParallelDeterminism, Balanced24) {
  if (GetParam().k % 4 != 0) GTEST_SKIP();
  const Matrix<float> pruned = PruneBalanced24(weights_);
  const Balanced24Matrix m = Balanced24Matrix::FromDense(pruned);
  ExpectThreadCountInvariant([&] { return SpmmBalanced24(m, b_); },
                             "balanced-2:4");
}

TEST_P(SpmmParallelDeterminism, VectorSparse) {
  const Matrix<float> pruned =
      PruneVectorWise(weights_, GetParam().density, kVectorSparseV);
  const VectorWiseMatrix vw =
      VectorWiseMatrix::FromDense(pruned, kVectorSparseV);
  ExpectThreadCountInvariant(
      [&] { return SpmmVectorWise(vw, b_); },
      "vector-sparse");
}

TEST_P(SpmmParallelDeterminism, DenseGemm) {
  ExpectThreadCountInvariant([&] { return GemmReference(weights_, b_); },
                             "dense-gemm");
}

// Every m is a multiple of 8 (the vector length); n and k sweep ragged
// tails: n % tn != 0, n < kMmaN, kept % tk != 0 (kept counts follow
// from density), and one shape where a single group holds everything.
INSTANTIATE_TEST_SUITE_P(
    Shapes, SpmmParallelDeterminism,
    ::testing::Values(ParallelCase{64, 33, 64, 0.25},   // ragged n
                      ParallelCase{128, 7, 96, 0.15},   // n < kMmaN
                      ParallelCase{40, 12, 20, 0.5},    // tiny, kept%tk!=0
                      ParallelCase{96, 17, 128, 0.75},  // dense-ish
                      ParallelCase{8, 130, 44, 0.3},    // 1 group, n%tn!=0
                      ParallelCase{256, 64, 64, 0.05},  // many groups
                      ParallelCase{64, 128, 52, 0.2}));

TEST(SpmmParallelDeterminismTilewise, MatchesAcrossThreadCounts) {
  Rng rng(411);
  const Matrix<float> w = rng.NormalMatrix(256, 96);
  const Matrix<float> b = rng.NormalMatrix(96, 40);
  const Matrix<float> pruned = PruneVectorWise(w, 0.25, kTilewiseV);
  const VectorWiseMatrix vw = VectorWiseMatrix::FromDense(pruned, kTilewiseV);
  ExpectThreadCountInvariant(
      [&] { return SpmmVectorWise(vw, b); }, "tilewise");
  SetParallelThreads(0);
}

// The engine's executed tiling now matches VwFamilyStats for n < kMmaN:
// both clamp the tile width to min(cfg.tn, max(kMmaN, n)), so the
// modelled threadblock count equals the number of executed tiles.
TEST(VwTileWidthConsistency, StatsMatchExecutedTilingForNarrowN) {
  Rng rng(431);
  const int m = 32, k = 64, n = 5;  // n < kMmaN
  const Matrix<float> pruned =
      PruneVectorWise(rng.NormalMatrix(m, k), 0.5, 8);
  const VectorWiseMatrix vw = VectorWiseMatrix::FromDense(pruned, 8);
  const Matrix<float> b = rng.NormalMatrix(k, n);
  const KernelResult r = SpmmVectorWise(vw, b, Spec());
  // One column tile per group: stats must agree with the executed grid.
  EXPECT_EQ(r.stats.threadblocks, vw.Groups());
  // And the output is still correct on the narrow activation.
  EXPECT_EQ(r.c, GemmReference(pruned, b));
}

}  // namespace
}  // namespace shflbw
