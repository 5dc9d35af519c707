// perfbench: the repo benchmark's command-line entry point.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//   perfbench --list-metrics
//
// Runs one workload (see workloads.h and NOTES.md) and prints, as its
// last stdout line, one JSON object with `correct`, `attempted`,
// `failed` and `metrics`: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. Exits 1 on any failed or
// mismatching request, on a plan that differs from the workload's
// definition, or on any error; 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/thread_pool.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n       perfbench "
               "--list-metrics\n",
               why);
  return 2;
}

bool ParseUnsigned(const std::string& text, unsigned long long* out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

void PrintJsonNumber(double v) {
  // Every digit as measured; JSON has no NaN or infinity.
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions opts;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      for (const perfbench::MetricSpec& m : perfbench::PerLayerMetricSpecs()) {
        std::printf("{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}\n",
                    m.name.c_str(), m.unit.c_str(), m.better.c_str());
      }
      return 0;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    unsigned long long n = 0;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed" && ParseUnsigned(value, &n)) {
      opts.seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUnsigned(value, &n) && n >= 1 &&
               n <= 600) {
      opts.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      opts.trace = value == "1";
      have_trace = true;
    } else if (flag == "--out-dir") {
      opts.out_dir = value;
    } else {
      return Usage(("bad argument " + flag + " " + value).c_str());
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  // One kernel thread, whatever SHFLBW_NUM_THREADS says: more threads
  // split into run-to-run clusters on small VMs (see NOTES.md).
  shflbw::SetParallelThreads(1);
  perfbench::RunReport report;
  try {
    report = perfbench::RunWorkload(perfbench::GetWorkload(workload), opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", m.name.c_str());
    PrintJsonNumber(m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
