#include "core/pipeline.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "format/balanced24.h"
#include "prune/importance.h"

namespace shflbw {
namespace {

using runtime::Format;

TEST(Pipeline, DensePatternIsAllOnes) {
  Rng rng(373);
  const Matrix<float> w = rng.NormalMatrix(8, 8);
  const PruneResult r = PruneWithPattern(w, Format::kDense, 1.0, 32);
  EXPECT_EQ(CountNonZeros(r.mask), 64u);
  EXPECT_EQ(r.pruned_weights, w);
  EXPECT_TRUE(r.storage_to_original.empty());
}

TEST(Pipeline, ShflBwCarriesPermutation) {
  Rng rng(379);
  const Matrix<float> w = rng.NormalMatrix(32, 32);
  const PruneResult r = PruneWithPattern(w, Format::kShflBw, 0.25, 8);
  EXPECT_EQ(r.storage_to_original.size(), 32u);
}

TEST(Pipeline, PrunedWeightsEqualMaskTimesWeights) {
  Rng rng(383);
  const Matrix<float> w = rng.NormalMatrix(32, 32);
  for (Format f : {Format::kCsr, Format::kBsr, Format::kVectorWise,
                   Format::kShflBw}) {
    const PruneResult r = PruneWithPattern(w, f, 0.25, 8);
    for (std::size_t i = 0; i < w.size(); ++i) {
      EXPECT_EQ(r.pruned_weights.storage()[i],
                w.storage()[i] * r.mask.storage()[i]);
    }
  }
}

TEST(Pipeline, Balanced24MaskSatisfiesConstraint) {
  Rng rng(389);
  const Matrix<float> w = rng.NormalMatrix(16, 32);
  const PruneResult r = PruneWithPattern(w, Format::kBalanced24, 0.5, 32);
  EXPECT_TRUE(Satisfies24(r.pruned_weights));
  EXPECT_THROW(PruneWithPattern(w, Format::kBalanced24, 0.3, 32), Error);
}

TEST(Pipeline, PatternMaskMatchesPruneWithPattern) {
  Rng rng(397);
  const Matrix<float> w = rng.NormalMatrix(32, 32);
  const Matrix<float> scores = MagnitudeScores(w);
  const Matrix<float> mask =
      PatternMask(scores, Format::kVectorWise, 0.25, 8);
  const PruneResult r = PruneWithPattern(w, Format::kVectorWise, 0.25, 8);
  EXPECT_EQ(mask, r.mask);
}

}  // namespace
}  // namespace shflbw
