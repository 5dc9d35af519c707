#include "format/convert.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "prune/shfl_bw_search.h"

namespace shflbw {
namespace {

TEST(Convert, ExtractAndApplyMask) {
  Matrix<float> d(2, 2, {1.5f, 0, 0, -2});
  const Matrix<float> mask = ExtractMask(d);
  EXPECT_EQ(mask, Matrix<float>(2, 2, {1, 0, 0, 1}));
  const Matrix<float> other(2, 2, {10, 20, 30, 40});
  EXPECT_EQ(ApplyMask(other, mask), Matrix<float>(2, 2, {10, 0, 0, 40}));
}

TEST(Convert, VectorWiseToCsrPreservesValues) {
  Rng rng(53);
  const Matrix<float> d = rng.SparseMatrix(16, 16, 0.4);
  const VectorWiseMatrix vw = VectorWiseMatrix::FromDense(d, 4);
  const CsrMatrix csr = VectorWiseToCsr(vw);
  EXPECT_EQ(csr.ToDense(), d);
}

// The paper's central structural claim (Fig. 3): a Shfl-BW matrix
// transforms into a block-wise matrix via row grouping + column
// stitching. The stitched BSR must contain exactly the same values,
// reorganized, with only zero padding added.
TEST(Convert, ShflBwToBlockWiseStitching) {
  Rng rng(59);
  const Matrix<float> w = rng.NormalMatrix(32, 32);
  const ShflBwMatrix m = PruneToShflBw(w, 0.25, 8);
  const BsrMatrix bsr = ShflBwToBlockWise(m);
  EXPECT_NO_THROW(bsr.Validate());
  EXPECT_EQ(bsr.block_size, 8);
  EXPECT_EQ(bsr.rows, 32);

  // Value multiset preserved: every non-zero of the Shfl-BW matrix
  // appears in the stitched blocks, and everything else is padding.
  std::vector<float> original = m.vw.values;
  std::vector<float> stitched = bsr.values;
  std::erase(original, 0.0f);
  std::erase(stitched, 0.0f);
  std::sort(original.begin(), original.end());
  std::sort(stitched.begin(), stitched.end());
  EXPECT_EQ(original, stitched);
}

TEST(Convert, ShflBwToBlockWiseBlockCounts) {
  // Column stitching packs each group's kept vectors into ceil(kept/V)
  // blocks (the last one zero-padded).
  Rng rng(61);
  const Matrix<float> w = rng.UniformMatrix(16, 16, 0.5f, 1.0f);
  const ShflBwMatrix m = PruneToShflBw(w, 0.5, 4);
  const BsrMatrix bsr = ShflBwToBlockWise(m);
  for (int g = 0; g < m.vw.Groups(); ++g) {
    const int kept = m.vw.KeptColumnsInGroup(g);
    EXPECT_EQ(bsr.block_row_ptr[g + 1] - bsr.block_row_ptr[g],
              (kept + 3) / 4)
        << "group " << g;
  }
}

}  // namespace
}  // namespace shflbw
