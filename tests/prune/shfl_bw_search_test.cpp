#include "prune/shfl_bw_search.h"

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "model/weight_synth.h"
#include "prune/block_wise.h"
#include "prune/importance.h"
#include "prune/unstructured.h"
#include "prune/vector_wise_prune.h"

namespace shflbw {
namespace {

TEST(ShflBwSearch, MaskHasTargetDensity) {
  Rng rng(179);
  const Matrix<float> scores = MagnitudeScores(rng.NormalMatrix(64, 64));
  for (double density : {0.5, 0.25, 0.1}) {
    const ShflBwSearchResult r = ShflBwSearch(scores, density, 16);
    EXPECT_NEAR(1.0 - Sparsity(r.mask), density, 0.02) << density;
  }
}

TEST(ShflBwSearch, MaskIsVectorWiseUnderDiscoveredPermutation) {
  Rng rng(181);
  const Matrix<float> scores = MagnitudeScores(rng.NormalMatrix(32, 32));
  const ShflBwSearchResult r = ShflBwSearch(scores, 0.25, 8);
  // Permute the mask rows by the discovered permutation: every group of
  // 8 rows must share an identical pattern.
  for (int g = 0; g < 4; ++g) {
    for (int c = 0; c < 32; ++c) {
      float sum = 0;
      for (int i = 0; i < 8; ++i) {
        sum += r.mask(r.storage_to_original[g * 8 + i], c);
      }
      EXPECT_TRUE(sum == 0.0f || sum == 8.0f)
          << "group " << g << " col " << c;
    }
  }
}

TEST(ShflBwSearch, RecoversPlantedRowTypes) {
  // Weights with strong latent row types: the search should retain
  // nearly as much importance as unstructured pruning.
  SynthWeightOptions opt;
  opt.row_types = 4;
  opt.type_strength = 5.0;
  opt.noise = 0.05;
  opt.seed = 77;
  const Matrix<float> w = SynthesizeWeights(64, 64, opt);
  const Matrix<float> scores = MagnitudeScores(w);
  const double density = 0.25;
  const ShflBwSearchResult r = ShflBwSearch(scores, density, 16);
  const double shflbw_ratio = RetainedScoreRatio(scores, r.mask);
  const double unstructured_ratio =
      RetainedScoreRatio(scores, UnstructuredMask(scores, density));
  EXPECT_GT(shflbw_ratio, 0.80 * unstructured_ratio);
}

TEST(ShflBwSearch, BeatsVectorWiseOnClusteredWeights) {
  // Table 1's mechanism: with scattered row clusters, the shuffle finds
  // groupings contiguous vector-wise cannot.
  SynthWeightOptions opt;
  opt.row_types = 8;
  opt.type_strength = 3.0;
  opt.noise = 0.3;
  opt.seed = 191;
  const Matrix<float> w = SynthesizeWeights(128, 128, opt);
  const Matrix<float> scores = MagnitudeScores(w);
  for (double density : {0.2, 0.1}) {
    const double shflbw = RetainedScoreRatio(
        scores, ShflBwSearch(scores, density, 32).mask);
    const double vw =
        RetainedScoreRatio(scores, VectorWiseMask(scores, density, 32));
    const double bw =
        RetainedScoreRatio(scores, BlockWiseMask(scores, density, 32));
    EXPECT_GT(shflbw, vw) << "density=" << density;
    EXPECT_GT(vw, bw) << "density=" << density;
  }
}

TEST(ShflBwSearch, BetaRatioKnobStaysInBand) {
  // §5 prefers beta = 2*alpha; that preference comes from training
  // dynamics (the looser mask leaves room for fine-tuning recovery),
  // which the static retained-score proxy cannot capture — on frozen
  // scores, clustering on the exact target mask (beta = alpha) is
  // trivially better aligned. What must hold is that the knob is mild:
  // both settings retain similar importance, and both beat plain
  // vector-wise grouping.
  SynthWeightOptions opt;
  opt.row_types = 8;
  opt.seed = 193;
  const Matrix<float> w = SynthesizeWeights(128, 128, opt);
  const Matrix<float> scores = MagnitudeScores(w);
  ShflBwSearchOptions beta1;
  beta1.beta_ratio = 1.0;
  ShflBwSearchOptions beta2;
  beta2.beta_ratio = 2.0;
  const double r1 = RetainedScoreRatio(
      scores, ShflBwSearch(scores, 0.15, 32, beta1).mask);
  const double r2 = RetainedScoreRatio(
      scores, ShflBwSearch(scores, 0.15, 32, beta2).mask);
  EXPECT_GE(r2, r1 * 0.90);
  EXPECT_GE(r1, r2 * 0.90);
  const double vw =
      RetainedScoreRatio(scores, VectorWiseMask(scores, 0.15, 32));
  EXPECT_GT(r1, vw);
  EXPECT_GT(r2, vw);
}

TEST(ShflBwSearch, PruneToShflBwAppliesMask) {
  Rng rng(197);
  const Matrix<float> w = rng.NormalMatrix(32, 32);
  const ShflBwMatrix m = PruneToShflBw(w, 0.25, 8);
  const Matrix<float> back = m.ToDense();
  // Every surviving value matches the original weight.
  for (int r = 0; r < 32; ++r) {
    for (int c = 0; c < 32; ++c) {
      if (back(r, c) != 0.0f) {
        EXPECT_EQ(back(r, c), w(r, c));
      }
    }
  }
  EXPECT_NEAR(1.0 - Sparsity(back), 0.25, 0.03);
}

TEST(ShflBwSearch, InvalidArgsThrow) {
  Matrix<float> scores(32, 32);
  EXPECT_THROW(ShflBwSearch(scores, 0.0, 8), Error);
  EXPECT_THROW(ShflBwSearch(scores, 0.5, 5), Error);  // 32 % 5 != 0
}

TEST(ShflBwSearch, MalformedOptionsThrowErrorsNamingTheOption) {
  // Unchecked, kmeans_iterations = 0 left every row unassigned (an
  // empty permutation), a NaN beta_ratio kept every weight in the
  // clustering mask, and a negative one failed inside the unstructured
  // masker under the name "density".
  Rng rng(211);
  const Matrix<float> scores = MagnitudeScores(rng.NormalMatrix(32, 32));
  const auto expect_error_naming = [&](const ShflBwSearchOptions& opts,
                                       const std::string& option) {
    try {
      ShflBwSearch(scores, 0.25, 8, opts);
      ADD_FAILURE() << option << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(option), std::string::npos)
          << e.what();
    }
  };
  for (int iterations : {0, -3}) {
    expect_error_naming({.kmeans_iterations = iterations},
                        "ShflBwSearchOptions.kmeans_iterations");
  }
  for (double ratio : {std::nan(""), -1.0, 0.0,
                       std::numeric_limits<double>::infinity()}) {
    expect_error_naming({.beta_ratio = ratio},
                        "ShflBwSearchOptions.beta_ratio");
  }
}

class SearchDensitySweep : public ::testing::TestWithParam<double> {};

TEST_P(SearchDensitySweep, ShflBwAtLeastMatchesVectorWise) {
  // Property: the shuffle search never does worse than contiguous
  // grouping on clustered weights (it can always fall back to it).
  SynthWeightOptions opt;
  opt.seed = 199;
  const Matrix<float> w = SynthesizeWeights(128, 96, opt);
  const Matrix<float> scores = MagnitudeScores(w);
  const double density = GetParam();
  const double shflbw =
      RetainedScoreRatio(scores, ShflBwSearch(scores, density, 32).mask);
  const double vw =
      RetainedScoreRatio(scores, VectorWiseMask(scores, density, 32));
  EXPECT_GE(shflbw, vw * 0.98) << "density=" << density;
}

INSTANTIATE_TEST_SUITE_P(Densities, SearchDensitySweep,
                         ::testing::Values(0.05, 0.1, 0.15, 0.2, 0.25, 0.3,
                                           0.5));

}  // namespace
}  // namespace shflbw
