// Metrics registry for the serving stack: typed counters, gauges and
// log-bucketed latency histograms with a Prometheus-style text
// exposition. Built for the hot path the BatchServer and Engine live
// on:
//
//   - Counters and histograms are SHARDED PER THREAD: Add()/Record()
//     touch one cache-line-private atomic cell with a relaxed
//     fetch_add, so concurrent replicas never contend on a shared
//     counter line. Reads (Value, Quantile, ExpositionText) merge the
//     shards — reads are the cold path, writes are the hot one.
//   - Histograms are log-bucketed (4 buckets per octave), so p50/p90/
//     p99/p99.9 come out of a fixed 1 KiB bucket array without
//     retaining a single sample. The price is bounded relative error:
//     a quantile is reported at the geometric midpoint of its bucket,
//     within a factor of 2^(1/8) (~9%) of the exact sample quantile
//     (tests/obs/metrics_test.cpp pins the bound).
//   - Registration (name -> metric) takes a mutex once per metric;
//     call sites cache the returned pointer, which stays valid for the
//     registry's lifetime.
//
// Metric names follow the Prometheus convention and may carry an
// inline label set: `shflbw_kernel_seconds_total{layer="enc0_ffn1",
// format="shfl_bw"}`. The exposition groups families (the part before
// '{') and emits standard `# HELP` / `# TYPE` headers, cumulative
// `_bucket{le=...}` lines for histograms, and `_sum`/`_count`.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace shflbw {
namespace obs {

/// Number of per-thread shards counters and histograms fan writes over.
/// A power of two; threads are assigned round-robin, so up to kShards
/// writers proceed with zero cache-line contention.
inline constexpr std::size_t kShards = 16;

/// This thread's shard index (assigned round-robin on first use).
std::size_t ThisThreadShard();

/// Monotonic counter (double-valued: counts and second/FLOP totals use
/// the same type; doubles are exact to 2^53 for integer counts).
/// Add() is one relaxed atomic fetch_add on a thread-private cell.
class Counter {
 public:
  void Add(double d = 1.0) {
    cells_[ThisThreadShard()].v.fetch_add(d, std::memory_order_relaxed);
  }

  /// Merged value over all shards. Safe concurrently with Add();
  /// repeated reads from one thread are monotone non-decreasing (each
  /// cell's modification order is coherent).
  double Value() const {
    double sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<double> v{0.0};
  };
  Cell cells_[kShards];
};

/// Point-in-time value (queue depth, ladder level, drift ratio).
class Gauge {
 public:
  void Set(double d) { v_.store(d, std::memory_order_relaxed); }
  void Add(double d) { v_.fetch_add(d, std::memory_order_relaxed); }
  double Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log-bucketed histogram: bucket i covers [min*2^(i/4), min*2^((i+1)/4)).
/// 128 buckets span min_value * [1, 2^32) (with 1e-6 s as the default
/// min, that is 1 us .. ~71 min) plus underflow/overflow buckets, so
/// recording never branches on range. Record() is two relaxed atomic
/// adds (bucket + sum) on thread-private cells; no sample is retained.
class Histogram {
 public:
  static constexpr int kSubBuckets = 4;          // buckets per octave
  static constexpr int kBuckets = 128;           // 32 octaves
  /// Relative half-width of one bucket: Quantile() returns the
  /// geometric midpoint, so it sits within a factor kQuantileBound of
  /// the exact sample quantile (for in-range samples).
  static double QuantileErrorFactor() { return 1.0905077326652577; }  // 2^(1/8)

  explicit Histogram(double min_value = 1e-6);

  void Record(double value) {
    const int b = BucketOf(value);
    Shard& s = shards_[ThisThreadShard()];
    s.buckets[static_cast<std::size_t>(b)].fetch_add(
        1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
  }

  /// Total samples recorded (merged over shards).
  std::uint64_t Count() const;
  /// Sum of recorded values.
  double Sum() const;
  /// Quantile q in [0, 1] by nearest rank over the merged buckets,
  /// reported at the bucket's geometric midpoint (underflow reports
  /// min_value, overflow the top bucket bound). 0 with no samples.
  double Quantile(double q) const;
  double min_value() const { return min_value_; }

  /// Merged per-bucket counts: index 0 = underflow, 1..kBuckets =
  /// log buckets, kBuckets+1 = overflow. For exposition and tests.
  std::vector<std::uint64_t> MergedBuckets() const;
  /// Upper bound of merged bucket index i (inf for the overflow).
  double BucketUpperBound(std::size_t i) const;

 private:
  /// 0 = underflow, 1..kBuckets = log buckets, kBuckets+1 = overflow.
  int BucketOf(double value) const;

  struct alignas(64) Shard {
    std::atomic<std::uint64_t> buckets[kBuckets + 2];
    std::atomic<double> sum{0.0};
  };

  double min_value_;
  double inv_min_;
  std::unique_ptr<Shard[]> shards_;  // kShards entries
};

/// Named metric registry with Prometheus text exposition. GetX()
/// registers on first use (mutex; cold path) and returns a stable
/// pointer call sites cache; the same name always maps to the same
/// metric, and requesting an existing name as a different type throws.
class Registry {
 public:
  Counter& GetCounter(const std::string& name, const std::string& help = "")
      SHFLBW_EXCLUDES(mu_);
  Gauge& GetGauge(const std::string& name, const std::string& help = "")
      SHFLBW_EXCLUDES(mu_);
  Histogram& GetHistogram(const std::string& name,
                          const std::string& help = "",
                          double min_value = 1e-6) SHFLBW_EXCLUDES(mu_);

  /// Lookup without registration; nullptr when absent or a different
  /// type. Safe concurrently with recording.
  const Counter* FindCounter(const std::string& name) const
      SHFLBW_EXCLUDES(mu_);
  const Gauge* FindGauge(const std::string& name) const SHFLBW_EXCLUDES(mu_);
  const Histogram* FindHistogram(const std::string& name) const
      SHFLBW_EXCLUDES(mu_);

  /// All registered metric names, sorted.
  std::vector<std::string> Names() const SHFLBW_EXCLUDES(mu_);

  /// Prometheus text exposition (version 0.0.4): families grouped and
  /// sorted, `# HELP`/`# TYPE` once per family, histogram cumulative
  /// buckets + `_sum` + `_count`. Safe concurrently with recording
  /// (values are a consistent-enough snapshot: each metric is read
  /// once; counters never decrease).
  std::string ExpositionText() const SHFLBW_EXCLUDES(mu_);

 private:
  enum class Type { kCounter, kGauge, kHistogram };
  struct Entry {
    Type type;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& GetEntry(const std::string& name, Type type, const std::string& help,
                  double min_value) SHFLBW_EXCLUDES(mu_);

  /// Guards the map TOPOLOGY only (registration is the cold path);
  /// recording into a Counter/Gauge/Histogram is lock-free on
  /// thread-sharded atomics and needs no capability. Rank
  /// kLockRankRegistry — the INNERMOST rank, because MetricsText
  /// refreshes gauges while holding the server mutex.
  mutable Mutex mu_{kLockRankRegistry};
  std::map<std::string, Entry> metrics_ SHFLBW_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace shflbw
