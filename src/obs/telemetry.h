// The telemetry bundle one server (and its engines) share: a metrics
// Registry, a TraceRecorder, a FlightRecorder, and their runtime
// enable flags.
//
// Ownership: BatchServer constructs one Telemetry from
// ServerOptions::telemetry and hands a shared_ptr to every Engine
// replica via EngineOptions::telemetry, so kernel spans and profiling
// counters from a fused launch land in the same registry/trace as the
// serving-side spans. A standalone Engine may also be given its own
// Telemetry directly.
//
// Cost model: with `metrics` off, histograms and kernel profiling are
// skipped (counters/gauges — the ServerStats mechanism — stay live).
// With `tracing` off (the default), span recording is skipped and the
// ring buffer is never touched.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace shflbw {
namespace obs {

/// Per-server runtime telemetry switches (ServerOptions::telemetry).
struct TelemetryOptions {
  /// Latency histograms + kernel profiling accumulation. Counters and
  /// gauges are unaffected — they back ServerStats.
  bool metrics = true;
  /// Per-request span tracing into the ring buffer. Off by default:
  /// tracing is an opt-in debugging/analysis surface.
  bool tracing = false;
  /// Span ring capacity; the trace keeps the first `trace_capacity`
  /// spans of the run and drops the rest (TraceRecorder::dropped()).
  std::size_t trace_capacity = 1 << 16;
  /// Flight-recorder ring capacity (always-on postmortem buffer of the
  /// last N scheduler events; see obs/flight_recorder.h).
  std::size_t flight_capacity = FlightRecorder::kDefaultCapacity;
};

class Telemetry {
 public:
  explicit Telemetry(const TelemetryOptions& options = {});

  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }
  TraceRecorder& trace() { return trace_; }
  const TraceRecorder& trace() const { return trace_; }
  FlightRecorder& flight() { return flight_; }
  const FlightRecorder& flight() const { return flight_; }

  /// True when histogram/profiling recording should happen.
  bool metrics_on() const { return metrics_.load(std::memory_order_relaxed); }
  /// True when span recording should happen (the ring's runtime flag).
  bool tracing_on() const { return trace_.enabled(); }

  /// Runtime toggles, safe on a live server: every recording site
  /// re-reads the flags per call, so metrics or tracing can be flipped
  /// on to capture an incident window (or off to A/B the overhead)
  /// without reconstructing engines. `set_tracing` forwards to the
  /// ring's own flag.
  void set_metrics(bool on) { metrics_.store(on, std::memory_order_relaxed); }
  void set_tracing(bool on) { trace_.SetEnabled(on); }

 private:
  std::atomic<bool> metrics_;
  Registry registry_;
  TraceRecorder trace_;
  FlightRecorder flight_;
};

}  // namespace obs
}  // namespace shflbw
