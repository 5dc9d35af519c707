// Measurement primitives of the repo benchmark: order statistics, the
// ten-beyond percentile rule, workload seed derivation, the output
// digest the serial-reference check compares, and an in-memory span
// trace with self-time arithmetic. Everything here is deterministic and
// free of the library's runtime, so tests/measure_test.cpp pins it
// directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/matrix.h"

namespace perfbench {

/// Median with the even-count midpoint, as Python's statistics.median.
/// Empty input gives 0.
double Median(std::vector<double> values);

/// First, second and third quartile by Python's
/// statistics.quantiles(values, n=4) (the default 'exclusive' method),
/// the definition the benchmark's spread is judged by. Needs >= 2
/// values.
struct Quartiles {
  double q1 = 0, q2 = 0, q3 = 0;
};
Quartiles QuartilesOf(std::vector<double> values);

/// Nearest-rank percentile: the ceil(pct/100 * n)-th smallest sample.
double Percentile(std::vector<double> values, double pct);

/// Samples strictly above the nearest-rank `pct` percentile of n.
std::size_t SamplesBeyond(std::size_t n, double pct);

/// The highest of p90 / p99 that still has at least ten samples beyond
/// it among n samples, or 0 when not even p90 does (n < 100).
int TailPercentile(std::size_t n);

/// Fewest samples for which the `pct` percentile has ten beyond it.
std::size_t MinSamplesFor(int pct);

/// Derives the activation seed of request `index` on stream `stream`
/// from the workload seed (splitmix64 over the three). The program only
/// ever sees derived seeds, and distinct (stream, index) pairs give
/// unrelated seeds.
std::uint64_t DeriveSeed(std::uint64_t workload_seed, std::uint64_t stream,
                         std::uint64_t index);

/// 64-bit digest of a matrix's shape and exact float bits (FNV-1a over
/// 32-bit words). Every step is a bijection of the running state, so
/// two matrices differing in one element — a single flipped bit
/// included — always digest differently.
std::uint64_t Digest(const shflbw::Matrix<float>& m);

/// A served output as the timed loop keeps it: its request's activation
/// seed and the digest of what came back.
struct Served {
  std::uint64_t seed = 0;
  std::uint64_t digest = 0;
};

/// Outputs whose digest differs from the digest of `reference(seed)`,
/// the serial engine's output for the same seed.
std::uint64_t CountMismatches(
    const std::vector<Served>& served,
    const std::function<shflbw::Matrix<float>(std::uint64_t)>& reference);

/// One timed interval of the benchmark's own calls into the library.
struct Span {
  std::string name;
  double start = 0;  // steady-clock seconds
  double end = 0;
  int parent = -1;   // index into the trace, -1 for a root
  std::uint64_t id = 0;  // launch or request id
  std::string layer;     // model layer the call worked on, if any

  [[nodiscard]] double Seconds() const { return end - start; }
};

/// Spans kept in memory for the whole run and written once at the end.
class Trace {
 public:
  /// Opens a span now; returns its index for Close and as a parent.
  int Open(std::string name, int parent = -1, std::uint64_t id = 0,
           std::string layer = {});
  void Close(int span);
  /// Records an already-measured interval.
  int Add(std::string name, double start, double end, int parent = -1,
          std::uint64_t id = 0, std::string layer = {});

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as a JSON array; false when the file cannot be
  /// written.
  [[nodiscard]] bool WriteJson(const std::string& path,
                               const std::string& kernel_source) const;

 private:
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a null
/// trace (the untraced run) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, std::string name, int parent = -1,
             std::uint64_t id = 0, std::string layer = {})
      : trace_(trace),
        index_(trace != nullptr
                   ? trace->Open(std::move(name), parent, id, std::move(layer))
                   : -1) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int index() const { return index_; }

 private:
  Trace* trace_;
  int index_;
};

/// Self seconds of every span: its duration minus the part of its
/// interval that its children cover (overlapping children count once,
/// parts outside the parent do not count).
std::vector<double> SelfSeconds(const std::vector<Span>& spans);

}  // namespace perfbench
