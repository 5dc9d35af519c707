// The prune-then-pack pipeline on the runtime surface: each format's
// Ops(f).mask chooses what to keep of a weight's magnitude scores, and
// runtime::PackWeight stores exactly the weight under that mask — with
// the Shfl-BW row permutation the mask search found, and 2:4's
// two-of-four constraint met.
#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "format/convert.h"
#include "prune/importance.h"
#include "runtime/weight_cache.h"

namespace shflbw {
namespace runtime {
namespace {

TEST(Pipeline, DenseMaskKeepsEverythingUnpermuted) {
  Rng rng(373);
  const Matrix<float> w = rng.NormalMatrix(8, 8);
  const FormatMask m = Ops(Format::kDense).mask(MagnitudeScores(w), 1.0, 32);
  EXPECT_EQ(CountNonZeros(m.mask), 64u);
  EXPECT_TRUE(m.storage_to_original.empty());
}

TEST(Pipeline, ShflBwPacksTheMaskSearchPermutation) {
  Rng rng(379);
  const Matrix<float> w = rng.NormalMatrix(32, 32);
  const FormatMask m =
      Ops(Format::kShflBw).mask(MagnitudeScores(w), 0.25, 8);
  std::vector<int> rows = m.storage_to_original;
  std::sort(rows.begin(), rows.end());
  std::vector<int> identity(32);
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_EQ(rows, identity);
  EXPECT_EQ(PackWeight(Format::kShflBw, w, 0.25, 8).shflbw.storage_to_original,
            m.storage_to_original);
}

TEST(Pipeline, PackedWeightIsTheWeightUnderItsFormatMask) {
  Rng rng(383);
  const Matrix<float> w = rng.NormalMatrix(32, 32);
  const Matrix<float> scores = MagnitudeScores(w);
  const auto masked = [&](Format f) {
    return ApplyMask(w, Ops(f).mask(scores, 0.25, 8).mask);
  };
  EXPECT_EQ(PackWeight(Format::kCsr, w, 0.25, 8).csr.ToDense(),
            masked(Format::kCsr));
  EXPECT_EQ(PackWeight(Format::kBsr, w, 0.25, 8).bsr.ToDense(),
            masked(Format::kBsr));
  EXPECT_EQ(PackWeight(Format::kVectorWise, w, 0.25, 8).vw.ToDense(),
            masked(Format::kVectorWise));
  EXPECT_EQ(PackWeight(Format::kShflBw, w, 0.25, 8).shflbw.ToDense(),
            masked(Format::kShflBw));
}

TEST(Pipeline, Balanced24PackSatisfiesTheConstraint) {
  Rng rng(389);
  const Matrix<float> w = rng.NormalMatrix(16, 32);
  EXPECT_TRUE(Satisfies24(
      PackWeight(Format::kBalanced24, w, 0.5, 32).balanced24.ToDense()));
  EXPECT_THROW(
      (void)Ops(Format::kBalanced24).mask(MagnitudeScores(w), 0.3, 32), Error);
}

}  // namespace
}  // namespace runtime
}  // namespace shflbw
