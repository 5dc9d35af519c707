#include "common/rng.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace shflbw {
namespace {

TEST(Rng, DeterministicWithSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1 << 20) == b.UniformInt(0, 1 << 20)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(7);
  const std::vector<int> p = rng.Permutation(257);
  std::vector<int> sorted = p;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 257; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Rng, SparseMatrixDensityApproximate) {
  Rng rng(11);
  const Matrix<float> m = rng.SparseMatrix(200, 200, 0.25);
  const double density = 1.0 - Sparsity(m);
  EXPECT_NEAR(density, 0.25, 0.02);
}

TEST(Rng, SparseMatrixExtremes) {
  Rng rng(5);
  EXPECT_EQ(CountNonZeros(rng.SparseMatrix(10, 10, 0.0)), 0u);
  EXPECT_EQ(CountNonZeros(rng.SparseMatrix(10, 10, 1.0)), 100u);
  EXPECT_THROW(rng.SparseMatrix(4, 4, 1.5), Error);
}

TEST(Rng, NormalMatrixMoments) {
  Rng rng(13);
  const Matrix<float> m = rng.NormalMatrix(100, 100, 2.0f, 0.5f);
  double mean = 0;
  for (float v : m.storage()) mean += v;
  mean /= static_cast<double>(m.size());
  EXPECT_NEAR(mean, 2.0, 0.05);
}

// Scalar Philox4x32-10 (Salmon et al., SC'11): the reference the
// vectorized fill is held to.
std::array<std::uint32_t, 4> Philox4x32_10(std::array<std::uint32_t, 4> c,
                                           std::uint32_t k0,
                                           std::uint32_t k1) {
  for (int round = 0; round < 10; ++round) {
    const std::uint64_t p0 = std::uint64_t{0xD2511F53u} * c[0];
    const std::uint64_t p1 = std::uint64_t{0xCD9E8D57u} * c[2];
    c = {static_cast<std::uint32_t>(p1 >> 32) ^ c[1] ^ k0,
         static_cast<std::uint32_t>(p1),
         static_cast<std::uint32_t>(p0 >> 32) ^ c[3] ^ k1,
         static_cast<std::uint32_t>(p0)};
    k0 += 0x9E3779B9u;
    k1 += 0xBB67AE85u;
  }
  return c;
}

TEST(PhiloxNormalFill, ReadsPhilox4x32_10) {
  // Known-answer vectors of the Random123 distribution.
  using Words = std::array<std::uint32_t, 4>;
  EXPECT_EQ(Philox4x32_10({0, 0, 0, 0}, 0, 0),
            (Words{0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8}));
  EXPECT_EQ(Philox4x32_10({0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff},
                          0xffffffff, 0xffffffff),
            (Words{0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd}));
  EXPECT_EQ(Philox4x32_10({0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344},
                          0xa4093822, 0x299f31d0),
            (Words{0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1}));

  // Value i is the Irwin–Hall sum of the four 16-bit lanes of words
  // 2(i%2), 2(i%2)+1 of Philox(counter i/2, key seed), centred and
  // scaled. The slice starts at counter 2^32 - 3, so it crosses into
  // the counter's high word.
  const std::uint64_t seed = 0x0123456789abcdefULL;
  const std::uint64_t first = (std::uint64_t{1} << 33) - 6;
  constexpr int kCount = 21;
  std::vector<float> got(kCount);
  PhiloxNormalFill(seed, first, kCount, got.data());
  const auto lanes = [](std::uint32_t w) { return (w & 0xFFFFu) + (w >> 16); };
  for (int k = 0; k < kCount; ++k) {
    const std::uint64_t i = first + static_cast<std::uint64_t>(k);
    const std::uint64_t counter = i / 2;
    const Words w = Philox4x32_10({static_cast<std::uint32_t>(counter),
                                   static_cast<std::uint32_t>(counter >> 32),
                                   0, 0},
                                  static_cast<std::uint32_t>(seed),
                                  static_cast<std::uint32_t>(seed >> 32));
    const int h = static_cast<int>(2 * (i % 2));
    const auto sum = static_cast<std::int32_t>(lanes(w[h]) + lanes(w[h + 1]));
    EXPECT_EQ(got[static_cast<std::size_t>(k)],
              static_cast<float>(sum - 2 * 65535) *
                  (1.7320508075688772f / 65536.0f))
        << "value " << i;
  }
}

TEST(PhiloxNormalFill, GoldenFirstValues) {
  const std::vector<float> want_ac71 = {
      0x1.908968p-6f, -0x1.92ba98p-1f, 0x1.4da2e4p-5f, 0x1.34403cp+0f,
      0x1.67668ap-3f, 0x1.b24fcep-2f,  0x1.eb8cf4p-1f, -0x1.21233p+0f};
  const std::vector<float> want_0123 = {
      0x1.164e2ep-1f, 0x1.47851ep-2f, -0x1.8096f6p+0f, 0x1.5a3192p-5f,
      0x1.803b2ap-1f, 0x1.6f3fb8p-2f, 0x1.3b499p-2f,   0x1.977df4p-1f};
  std::vector<float> got(8);
  PhiloxNormalFill(0xac71ULL, 0, got.size(), got.data());
  EXPECT_EQ(got, want_ac71);
  PhiloxNormalFill(0x0123456789abcdefULL, 0, got.size(), got.data());
  EXPECT_EQ(got, want_0123);
}

TEST(PhiloxNormalFill, AnySliceEqualsTheLongFill) {
  constexpr std::size_t kLen = 1000;
  std::vector<float> whole(kLen);
  PhiloxNormalFill(77, 0, kLen, whole.data());
  // Every start parity, lengths below, at and across the fill's
  // internal chunk, and the empty slice.
  for (std::size_t first : {0u, 1u, 2u, 31u, 32u, 33u, 63u, 500u, 999u}) {
    for (std::size_t count : {0u, 1u, 2u, 3u, 31u, 32u, 33u, 64u, 65u, 400u}) {
      if (first + count > kLen) continue;
      std::vector<float> part(count + 1, 42.0f);
      PhiloxNormalFill(77, first, count, part.data());
      for (std::size_t k = 0; k < count; ++k) {
        ASSERT_EQ(part[k], whole[first + k]) << first << "+" << k;
      }
      EXPECT_EQ(part[count], 42.0f) << "wrote past count at " << first;
    }
  }
  // Another seed is another stream.
  std::vector<float> other(kLen);
  PhiloxNormalFill(78, 0, kLen, other.data());
  EXPECT_NE(other, whole);
}

TEST(PhiloxNormalFill, MomentsAndBound) {
  constexpr std::size_t kN = std::size_t{1} << 20;
  std::vector<float> v(kN);
  PhiloxNormalFill(0xac71ULL, 0, kN, v.data());
  const double bound = 2.0 * std::sqrt(3.0);
  double sum = 0, sum_sq = 0;
  for (float x : v) {
    ASSERT_LE(std::abs(static_cast<double>(x)), bound);
    sum += x;
    sum_sq += static_cast<double>(x) * x;
  }
  const double mean = sum / kN;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / kN - mean * mean, 1.0, 0.01);
}

}  // namespace
}  // namespace shflbw
