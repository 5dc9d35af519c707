// Unit tests of the benchmark's own measurement code (src/measure.h):
// the ten-beyond percentile rule, median and quartiles as Python's
// statistics module gives them, span self time, seed derivation, and
// the output check catching a single flipped bit.
#include "measure.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

namespace perfbench {
namespace {

TEST(TailPercentile, NeedsTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(0), 0);
  EXPECT_EQ(TailPercentile(99), 0);   // p90 would have 9 beyond
  EXPECT_EQ(TailPercentile(100), 90);
  EXPECT_EQ(TailPercentile(999), 90);  // p99 would have 9 beyond
  EXPECT_EQ(TailPercentile(1000), 99);
  EXPECT_EQ(TailPercentile(50000), 99);
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(1001, 99), 10u);
  EXPECT_EQ(MinSamplesFor(90), 100u);
  EXPECT_EQ(MinSamplesFor(99), 1000u);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_EQ(Percentile(v, 90), 90);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile({7}, 99), 7);
}

TEST(OrderStatistics, MatchPythonStatistics) {
  // Expected values from statistics.median / statistics.quantiles(n=4).
  EXPECT_DOUBLE_EQ(Median({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5);
  EXPECT_DOUBLE_EQ(Median({3.5, 1.25, 9.0, 4.75}), 4.125);
  EXPECT_DOUBLE_EQ(Median({2, 8, 4, 16, 1, 32, 64}), 8);
  EXPECT_DOUBLE_EQ(Median({}), 0);

  Quartiles q = QuartilesOf({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  q = QuartilesOf({3.5, 1.25, 9.0, 4.75});
  EXPECT_DOUBLE_EQ(q.q1, 1.8125);
  EXPECT_DOUBLE_EQ(q.q2, 4.125);
  EXPECT_DOUBLE_EQ(q.q3, 7.9375);
  q = QuartilesOf({5, 1});  // Python extrapolates at the ends
  EXPECT_DOUBLE_EQ(q.q1, 0.0);
  EXPECT_DOUBLE_EQ(q.q2, 3.0);
  EXPECT_DOUBLE_EQ(q.q3, 6.0);
  q = QuartilesOf({2, 8, 4, 16, 1, 32, 64});
  EXPECT_DOUBLE_EQ(q.q1, 2.0);
  EXPECT_DOUBLE_EQ(q.q2, 8.0);
  EXPECT_DOUBLE_EQ(q.q3, 32.0);
}

TEST(SelfSeconds, SubtractsTheUnionOfChildrenInsideTheParent) {
  Trace t;
  const int root = t.Add("launch", 0, 10);
  t.Add("a", 1, 3, root);
  t.Add("b", 2, 5, root);   // overlaps a: [1, 5] counts once
  t.Add("c", 8, 12, root);  // only [8, 10] lies inside the parent
  const int leaf_parent = t.Add("d", 6, 7, root);
  t.Add("e", 6.25, 6.5, leaf_parent);
  const std::vector<double> self = SelfSeconds(t.spans());
  EXPECT_DOUBLE_EQ(self[0], 10 - 4 - 2 - 1);
  EXPECT_DOUBLE_EQ(self[1], 2);
  EXPECT_DOUBLE_EQ(self[3], 4);  // children beyond a parent don't shrink it
  EXPECT_DOUBLE_EQ(self[4], 0.75);
  EXPECT_DOUBLE_EQ(self[5], 0.25);
}

TEST(SelfSeconds, ScopedSpansNestAndANullTraceRecordsNothing) {
  Trace t;
  {
    ScopedSpan outer(&t, "outer");
    ScopedSpan inner(&t, "inner", outer.index(), 7, "layer");
    EXPECT_EQ(inner.index(), 1);
  }
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[1].id, 7u);
  EXPECT_LE(t.spans()[0].start, t.spans()[1].start);
  EXPECT_GE(t.spans()[0].end, t.spans()[1].end);
  const std::vector<double> self = SelfSeconds(t.spans());
  EXPECT_NEAR(self[0], t.spans()[0].Seconds() - t.spans()[1].Seconds(), 1e-12);

  ScopedSpan none(nullptr, "untraced");
  EXPECT_EQ(none.index(), -1);
}

TEST(DeriveSeed, DeterministicAndDistinct) {
  EXPECT_EQ(DeriveSeed(1, 1, 0), DeriveSeed(1, 1, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t seed : {0ULL, 1ULL, 2ULL}) {
    for (std::uint64_t stream : {1ULL, 2ULL, 3ULL}) {
      for (std::uint64_t i = 0; i < 1000; ++i) {
        seen.insert(DeriveSeed(seed, stream, i));
      }
    }
  }
  EXPECT_EQ(seen.size(), 3u * 3u * 1000u);  // no collisions across seeds,
                                            // streams or indices
  EXPECT_NE(DeriveSeed(1, 1, 0), 1u);       // the program never sees the
  EXPECT_NE(DeriveSeed(0, 0, 0), 0u);       // workload seed itself
}

shflbw::Matrix<float> Sample() {
  shflbw::Matrix<float> m(3, 5);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 5; ++c) m(r, c) = 0.25f * r - 1.5f * c + 0.125f;
  }
  return m;
}

TEST(OutputCheck, CatchesEverySingleFlippedBit) {
  const shflbw::Matrix<float> served = Sample();
  const std::vector<Served> outputs = {{42, Digest(served)}};
  EXPECT_EQ(CountMismatches(outputs, [](std::uint64_t) { return Sample(); }),
            0u);
  for (std::size_t e = 0; e < served.size(); ++e) {
    for (int bit = 0; bit < 32; ++bit) {
      const auto flipped = [&](std::uint64_t seed) {
        EXPECT_EQ(seed, 42u);
        shflbw::Matrix<float> m = Sample();
        std::uint32_t word = 0;
        std::memcpy(&word, m.data() + e, sizeof word);
        word ^= 1u << bit;
        std::memcpy(m.data() + e, &word, sizeof word);
        return m;
      };
      EXPECT_EQ(CountMismatches(outputs, flipped), 1u)
          << "element " << e << " bit " << bit;
    }
  }
}

TEST(OutputCheck, ShapeIsPartOfTheDigest) {
  const shflbw::Matrix<float> a(2, 6, 1.0f);
  const shflbw::Matrix<float> b(3, 4, 1.0f);
  EXPECT_NE(Digest(a), Digest(b));
}

}  // namespace
}  // namespace perfbench
