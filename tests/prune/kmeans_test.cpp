#include "prune/kmeans.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "prune/importance.h"
#include "prune/unstructured.h"

namespace shflbw {
namespace {

/// A 0/1 mask keeping `density` of random scores, the kind of mask the
/// Shfl-BW search clusters. With a power-of-two V it takes the integer
/// path; Rng::SparseMatrix (non-binary) takes the reference path.
Matrix<float> BinaryMask(int rows, int cols, double density,
                         std::uint64_t seed) {
  Rng rng(seed);
  return UnstructuredMask(MagnitudeScores(rng.NormalMatrix(rows, cols)),
                          density);
}

/// Bit-for-bit equality with the reference's grouping.
void ExpectSameAsReference(const Matrix<float>& mask, int v,
                           const KMeansOptions& opts,
                           const std::string& what) {
  const RowGrouping got = BalancedKMeansRows(mask, v, opts);
  const RowGrouping want = BalancedKMeansRowsReference(mask, v, opts);
  EXPECT_EQ(got.storage_to_original, want.storage_to_original) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.total_distance),
            std::bit_cast<std::uint64_t>(want.total_distance))
      << what << ": " << got.total_distance << " vs "
      << want.total_distance;
}

void ExpectBalancedPermutation(const RowGrouping& g, int rows) {
  ASSERT_EQ(g.storage_to_original.size(), static_cast<std::size_t>(rows));
  std::set<int> seen(g.storage_to_original.begin(),
                     g.storage_to_original.end());
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(rows));  // all distinct
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), rows - 1);
}

TEST(KMeans, OutputIsBalancedPermutation) {
  Rng rng(163);
  ExpectBalancedPermutation(
      BalancedKMeansRows(rng.SparseMatrix(32, 16, 0.5), 8), 32);
  ExpectBalancedPermutation(
      BalancedKMeansRows(BinaryMask(32, 16, 0.5, 163), 8), 32);
}

TEST(KMeans, RecoversPlantedClusters) {
  // Two planted patterns interleaved row-by-row: clustering must group
  // rows of the same pattern together.
  Matrix<float> mask(8, 8);
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 4; ++c) {
      if (r % 2 == 0) mask(r, c) = 1;          // pattern A: cols 0-3
      else mask(r, c + 4) = 1;                 // pattern B: cols 4-7
    }
  }
  const RowGrouping g = BalancedKMeansRows(mask, 4);
  // Each group of 4 must be all-even or all-odd rows.
  for (int grp = 0; grp < 2; ++grp) {
    std::set<int> parities;
    for (int i = 0; i < 4; ++i) {
      parities.insert(g.storage_to_original[grp * 4 + i] % 2);
    }
    EXPECT_EQ(parities.size(), 1u) << "group " << grp << " mixes patterns";
  }
  EXPECT_NEAR(g.total_distance, 0.0, 1e-9);  // perfect clustering
}

TEST(KMeans, DeterministicWithSeed) {
  Rng rng(167);
  KMeansOptions opts;
  opts.seed = 5;
  const Matrix<float> sparse = rng.SparseMatrix(24, 12, 0.4);
  EXPECT_EQ(BalancedKMeansRows(sparse, 6, opts).storage_to_original,
            BalancedKMeansRows(sparse, 6, opts).storage_to_original);
  const Matrix<float> binary = BinaryMask(24, 12, 0.4, 167);
  EXPECT_EQ(BalancedKMeansRows(binary, 8, opts).storage_to_original,
            BalancedKMeansRows(binary, 8, opts).storage_to_original);
}

TEST(KMeans, SingleGroupDegenerates) {
  Rng rng(173);
  // One cluster: every row lands in it.
  ExpectBalancedPermutation(
      BalancedKMeansRows(rng.SparseMatrix(8, 8, 0.5), 8), 8);
  ExpectBalancedPermutation(BalancedKMeansRows(BinaryMask(8, 8, 0.5, 173), 8),
                            8);
}

TEST(KMeans, GroupSizeMustDivideRows) {
  EXPECT_THROW(BalancedKMeansRows(Matrix<float>(10, 4), 3), Error);
}

TEST(KMeans, IterationsMustBePositive) {
  // With no round, no row is ever assigned and the permutation would
  // come back empty.
  KMeansOptions opts;
  for (int iterations : {0, -1}) {
    opts.iterations = iterations;
    for (const auto& run : {BalancedKMeansRows, BalancedKMeansRowsReference}) {
      try {
        run(BinaryMask(16, 8, 0.5, 1), 4, opts);
        ADD_FAILURE() << "iterations=" << iterations << " was accepted";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("KMeansOptions.iterations"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(KMeans, MoreIterationsNeverWorseOnPlanted) {
  // With planted structure, 10 iterations reach zero distance; 1
  // iteration may not, but never goes below zero.
  Matrix<float> mask(16, 16);
  for (int r = 0; r < 16; ++r) {
    const int type = r % 4;
    for (int c = 0; c < 4; ++c) mask(r, type * 4 + c) = 1;
  }
  KMeansOptions many;
  many.iterations = 10;
  const RowGrouping g = BalancedKMeansRows(mask, 4, many);
  EXPECT_GE(g.total_distance, 0.0);
  EXPECT_NEAR(g.total_distance, 0.0, 1e-9);
}

// ---- The integer path against the double reference, bit for bit ------

TEST(KMeansOracle, UnstructuredMasksMatchReference) {
  // k = 100, 130, 1 cover partial 64-bit words; 64 a whole one.
  struct Shape {
    int m, k;
  };
  for (const Shape s : {Shape{128, 100}, Shape{128, 64}, Shape{64, 130},
                        Shape{64, 1}}) {
    for (double density : {0.25, 0.5}) {
      const Matrix<float> mask =
          BinaryMask(s.m, s.k, density, 1000 + s.m + s.k);
      for (int v : {4, 8, 16, 32, 64, 128}) {
        if (s.m % v != 0) continue;
        for (int iterations : {1, 10}) {
          for (std::uint64_t seed : {1, 2, 3}) {
            ExpectSameAsReference(
                mask, v, {iterations, seed},
                std::to_string(s.m) + "x" + std::to_string(s.k) +
                    " density=" + std::to_string(density) +
                    " V=" + std::to_string(v) +
                    " iterations=" + std::to_string(iterations) +
                    " seed=" + std::to_string(seed));
          }
        }
      }
    }
  }
}

TEST(KMeansOracle, TiesAndConstantMasksMatchReference) {
  // Heavy ties: 128 rows drawn from 5 patterns, so most distances tie
  // and the (row, cluster) tie-break decides the grouping.
  const Matrix<float> patterns = BinaryMask(5, 70, 0.5, 7);
  Rng rng(11);
  Matrix<float> repeated(128, 70);
  for (int r = 0; r < 128; ++r) {
    const int p = rng.UniformInt(0, 4);
    for (int c = 0; c < 70; ++c) repeated(r, c) = patterns(p, c);
  }
  Matrix<float> zeros(64, 70);
  Matrix<float> ones(64, 70);
  for (float& x : ones.storage()) x = 1.0f;
  for (int v : {4, 8, 16, 32, 64}) {
    for (std::uint64_t seed : {1, 2, 3}) {
      const KMeansOptions opts{10, seed};
      const std::string what =
          " V=" + std::to_string(v) + " seed=" + std::to_string(seed);
      ExpectSameAsReference(repeated, v, opts, "repeated rows" + what);
      ExpectSameAsReference(zeros, v, opts, "all-zero" + what);
      ExpectSameAsReference(ones, v, opts, "all-one" + what);
    }
  }
  // 2048 rows of 8 columns: ties again, and an 11-bit row field in the
  // sort key, as for ResNet conv5's 2048 rows.
  ExpectSameAsReference(BinaryMask(2048, 8, 0.5, 13), 128, {10, 1},
                        "2048x8, V=128");
}

TEST(KMeansOracle, InputsOffTheIntegerPathReturnTheReference) {
  // A V that is not a power of two, non-binary entries, and a binary
  // mask with a single 0.5 all take the reference path.
  Rng rng(31);
  Matrix<float> almost_binary = BinaryMask(48, 40, 0.5, 31);
  almost_binary(17, 23) = 0.5f;
  for (std::uint64_t seed : {1, 2, 3}) {
    ExpectSameAsReference(BinaryMask(48, 40, 0.5, 37), 6, {10, seed},
                          "binary, V=6");
    ExpectSameAsReference(BinaryMask(48, 40, 0.5, 41), 12, {10, seed},
                          "binary, V=12");
    ExpectSameAsReference(rng.SparseMatrix(48, 40, 0.5), 8, {10, seed},
                          "non-binary, V=8");
    ExpectSameAsReference(almost_binary, 8, {10, seed},
                          "one 0.5 entry, V=8");
  }
}

}  // namespace
}  // namespace shflbw
