// Metrics-registry contract: sharded counters count exactly under
// concurrency, log-bucketed histogram quantiles stay within the
// documented 2^(1/8) factor of the exact sorted-sample quantiles,
// snapshots taken while recording are consistent (counter reads are
// monotone, histogram count never exceeds what was recorded), and the
// Prometheus exposition is well-formed.
#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "obs/metrics.h"

namespace shflbw {
namespace obs {
namespace {

TEST(Counter, ExactUnderConcurrentSharding) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(c.Value(), static_cast<double>(kThreads) * kPerThread);
}

TEST(Counter, WeightedAddsSum) {
  Counter c;
  c.Add(2.5);
  c.Add(0.5);
  c.Add();  // default 1
  EXPECT_DOUBLE_EQ(c.Value(), 4.0);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.Set(3.0);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.Value(), 2.0);
}

// The headline histogram guarantee: for samples inside the bucketed
// range, every quantile is within a factor QuantileErrorFactor() ==
// 2^(1/8) of the exact sorted-sample quantile — without retaining one
// sample. Checked against three differently shaped distributions.
TEST(Histogram, QuantileWithinDocumentedBoundOfExact) {
  std::mt19937_64 rng(0x0b5e55ed);
  struct Case {
    const char* name;
    std::vector<double> samples;
  };
  std::vector<Case> cases;
  {
    Case c{"uniform", {}};
    std::uniform_real_distribution<double> d(1e-4, 1e-1);
    for (int i = 0; i < 20000; ++i) c.samples.push_back(d(rng));
    cases.push_back(std::move(c));
  }
  {
    Case c{"lognormal", {}};
    std::lognormal_distribution<double> d(-6.0, 1.5);
    for (int i = 0; i < 20000; ++i) c.samples.push_back(d(rng));
    cases.push_back(std::move(c));
  }
  {
    Case c{"bimodal", {}};
    std::normal_distribution<double> fast(1e-3, 1e-4), slow(5e-2, 5e-3);
    for (int i = 0; i < 20000; ++i) {
      c.samples.push_back(std::abs(i % 10 == 0 ? slow(rng) : fast(rng)));
    }
    cases.push_back(std::move(c));
  }

  const double bound = Histogram::QuantileErrorFactor();
  for (Case& c : cases) {
    Histogram h(1e-6);
    for (double s : c.samples) h.Record(s);
    std::sort(c.samples.begin(), c.samples.end());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
      // Exact nearest-rank quantile over the sorted samples — the same
      // rank convention Quantile() uses over buckets.
      const std::size_t rank = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::ceil(q * static_cast<double>(c.samples.size()))));
      const double exact = c.samples[rank - 1];
      const double approx = h.Quantile(q);
      EXPECT_GT(approx, 0.0) << c.name << " q=" << q;
      const double ratio = approx / exact;
      EXPECT_LE(ratio, bound * (1 + 1e-12))
          << c.name << " q=" << q << " exact=" << exact
          << " approx=" << approx;
      EXPECT_GE(ratio, 1.0 / bound * (1 - 1e-12))
          << c.name << " q=" << q << " exact=" << exact
          << " approx=" << approx;
    }
    EXPECT_EQ(h.Count(), c.samples.size());
  }
}

TEST(Histogram, UnderflowAndOverflowBucketsCatchEverything) {
  Histogram h(1e-3);
  h.Record(0.0);                     // underflow
  h.Record(-5.0);                    // underflow (negative)
  h.Record(std::nan(""));            // underflow by convention
  h.Record(1e9);                     // overflow
  h.Record(1e-2);                    // in range
  EXPECT_EQ(h.Count(), 5u);
  const std::vector<std::uint64_t> b = h.MergedBuckets();
  EXPECT_EQ(b.front(), 3u);
  EXPECT_EQ(b.back(), 1u);
}

TEST(Histogram, ConcurrentRecordingLosesNothing) {
  Histogram h(1e-6);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) + 1);
      std::uniform_real_distribution<double> d(1e-5, 1e-1);
      for (int i = 0; i < kPerThread; ++i) h.Record(d(rng));
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(h.Count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_GT(h.Sum(), 0.0);
}

// Snapshot-while-recording consistency: a reader polling Value()/
// Count() concurrently with writers must see monotone non-decreasing
// values (per-cell modification orders are coherent; sums of coherent
// cells read by one thread can only grow).
TEST(Registry, SnapshotWhileRecordingIsMonotone) {
  Registry reg;
  Counter& c = reg.GetCounter("shflbw_test_total");
  Histogram& h = reg.GetHistogram("shflbw_test_seconds");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        c.Add();
        h.Record(1e-3);
      }
    });
  }
  double last_v = 0;
  std::uint64_t last_n = 0;
  for (int i = 0; i < 2000; ++i) {
    const double v = c.Value();
    const std::uint64_t n = h.Count();
    EXPECT_GE(v, last_v);
    EXPECT_GE(n, last_n);
    last_v = v;
    last_n = n;
  }
  stop.store(true);
  for (std::thread& th : writers) th.join();
  EXPECT_EQ(c.Value(), static_cast<double>(h.Count()));
}

TEST(Registry, SameNameReturnsSameMetricDifferentTypeThrows) {
  Registry reg;
  Counter& a = reg.GetCounter("shflbw_x_total");
  Counter& b = reg.GetCounter("shflbw_x_total");
  EXPECT_EQ(&a, &b);
  EXPECT_THROW(reg.GetGauge("shflbw_x_total"), Error);
  EXPECT_EQ(reg.FindCounter("shflbw_x_total"), &a);
  EXPECT_EQ(reg.FindGauge("shflbw_x_total"), nullptr);
  EXPECT_EQ(reg.FindCounter("absent"), nullptr);
}

TEST(Registry, ExpositionTextIsWellFormed) {
  Registry reg;
  reg.GetCounter("shflbw_req_total{reason=\"ok\"}", "Requests").Add(3);
  reg.GetCounter("shflbw_req_total{reason=\"shed\"}").Add(1);
  reg.GetGauge("shflbw_depth", "Queue depth").Set(7);
  Histogram& h = reg.GetHistogram("shflbw_lat_seconds", "Latency");
  h.Record(1e-3);
  h.Record(2e-3);
  const std::string text = reg.ExpositionText();

  // One HELP/TYPE per family, labeled series both present.
  EXPECT_NE(text.find("# HELP shflbw_req_total Requests"), std::string::npos);
  EXPECT_NE(text.find("# TYPE shflbw_req_total counter"), std::string::npos);
  EXPECT_NE(text.find("shflbw_req_total{reason=\"ok\"} 3"), std::string::npos);
  EXPECT_NE(text.find("shflbw_req_total{reason=\"shed\"} 1"),
            std::string::npos);
  EXPECT_EQ(text.find("# TYPE shflbw_req_total counter",
                      text.find("# TYPE shflbw_req_total counter") + 1),
            std::string::npos)
      << "TYPE emitted once per family";
  EXPECT_NE(text.find("# TYPE shflbw_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("shflbw_depth 7"), std::string::npos);
  // Histogram: cumulative buckets ending at +Inf == _count, plus
  // _sum/_count lines.
  EXPECT_NE(text.find("# TYPE shflbw_lat_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("shflbw_lat_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("shflbw_lat_seconds_count 2"), std::string::npos);
  EXPECT_NE(text.find("shflbw_lat_seconds_sum"), std::string::npos);
  // Cumulative monotonicity of the bucket lines.
  std::istringstream lines(text);
  std::string line;
  std::uint64_t last_cum = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("shflbw_lat_seconds_bucket", 0) == 0) {
      const std::size_t sp = line.rfind(' ');
      const std::uint64_t cum = std::stoull(line.substr(sp + 1));
      EXPECT_GE(cum, last_cum) << line;
      last_cum = cum;
    }
  }
  EXPECT_EQ(last_cum, 2u);
}

}  // namespace
}  // namespace obs
}  // namespace shflbw
