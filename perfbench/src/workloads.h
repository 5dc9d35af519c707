// The repo benchmark's three closed-loop workloads, driven through the
// library's public API (PlanModel, PackedWeightCache, the kernel entry
// points, Engine, BatchServer). Why each workload exists, what it loads
// and what it bypasses is written down in NOTES.md beside this file.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/engine.h"

namespace perfbench {

/// One metric of the final result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One layer of a workload's required plan.
struct ExpectedLayer {
  std::string name;
  shflbw::runtime::Format format = shflbw::runtime::Format::kDense;
  double density = 1.0;
  int v = 32;
};

struct WorkloadSpec {
  std::string name;
  std::string model_config;  // human-readable model size
  shflbw::runtime::ModelDesc model;
  shflbw::runtime::PlannerOptions planner;
  /// Requests per fused launch (offline) or the server's max_batch.
  int width = 1;
  /// Requests the client keeps in flight (offline: one launch's worth).
  int in_flight = 1;
  int replicas = 0;  // BatchServer replicas; 0 = offline, no server
  /// Cold set-ups per run; the median is reported. More than one only
  /// where a single set-up takes under about a second.
  int setup_reps = 1;
  /// Tail percentile the run prints, and the samples it needs (ten
  /// beyond it): launches offline, requests when serving.
  int tail_pct = 90;
  std::vector<ExpectedLayer> expected;
  /// Required min per-layer retained ratio (4 decimals), or < 0 when
  /// the plan is speed-only and the ratio is computed after timing.
  double expected_min_ratio = -1;
};

/// The workload named `name`; throws shflbw::Error for an unknown name.
WorkloadSpec GetWorkload(const std::string& name);

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";  // where the traced run writes its spans
};

struct RunReport {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced).
  std::vector<Metric> metrics;
};

/// Runs one workload end to end: cold set-up, timed closed loop, output
/// check against the serial reference. Prints the configuration record
/// and human-readable tables to stdout as it goes.
RunReport RunWorkload(const WorkloadSpec& spec, const RunOptions& opts);

/// (name, unit, better) of every per-layer metric over all workloads,
/// the `per_layer` list of BENCHMARK.json.
struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;
};
std::vector<MetricSpec> PerLayerMetricSpecs();

}  // namespace perfbench
