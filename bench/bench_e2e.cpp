// End-to-end inference benchmark: the runtime analogue of Fig. 6.
//
// Runs Transformer, GNMT and ResNet50 through runtime::Engine twice —
// once with per-layer format auto-selection, once pinned all-dense —
// and reports per-layer and whole-model latency, GFLOP/s, and the cost
// model's planned speedup next to the measured one. Model configs are
// scaled down so the functional simulator finishes in seconds on one
// core (full-size single-layer shapes are tracked by bench_hotpath).
//
// The first auto Run pays the pack phase (prune + convert into the
// PackedWeightCache); timing reports the steady state, and the JSON
// records that the second run performed zero conversions.
//
// Flags: --smoke (tiny configs, 1 rep — CI harness check)
//        --out=FILE (default BENCH_e2e.json)
//        --reps=N (default 2, best-of over whole-model runs)
//        --gpu=V100|T4|A100 (planner cost model, default V100)
//        --density=A (kept density, default 0.25)
//        --v=N (vector/block granularity, default 32)
//        --autotune (empirically re-rank top plan candidates)
//
// Exit status: non-zero if, outside --smoke, the auto-selected plan
// fails to beat all-dense on either sparse-friendly NLP workload (the
// PR's acceptance criterion).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "runtime/engine.h"

namespace shflbw {
namespace runtime {
namespace {

struct ModelReport {
  std::string config;
  ExecutionPlan plan;  // copy of the auto plan
  RunResult auto_run;  // best-of steady-state auto run
  RunResult dense_run;
  /// Least wall time outside the kernels over the steady-state auto
  /// runs, whichever of them had the best kernel time.
  double overhead_seconds = 0;
  std::size_t packs_first_run = 0;
  std::size_t packs_second_run = 0;

  double AutoMs() const { return auto_run.weighted_seconds * 1e3; }
  double DenseMs() const { return dense_run.weighted_seconds * 1e3; }
  double OverheadMs() const { return overhead_seconds * 1e3; }
  double MeasuredSpeedup() const {
    return auto_run.weighted_seconds > 0
               ? dense_run.weighted_seconds / auto_run.weighted_seconds
               : 0.0;
  }
  double ModeledSpeedup() const {
    const double s = plan.ModeledTotalSeconds();
    return s > 0 ? plan.ModeledDenseSeconds() / s : 0.0;
  }
};

/// Best-of-`reps` steady-state run (by repeat-weighted latency). The
/// least overhead_seconds over the same runs goes to *min_overhead: one
/// preempted call then moves neither figure.
RunResult BestRun(Engine& engine, int reps, double* min_overhead) {
  RunResult best = engine.Run();
  *min_overhead = best.overhead_seconds;
  for (int r = 1; r < reps; ++r) {
    RunResult next = engine.Run();
    *min_overhead = std::min(*min_overhead, next.overhead_seconds);
    if (next.weighted_seconds < best.weighted_seconds) best = std::move(next);
  }
  return best;
}

ModelReport RunModel(const ModelDesc& model, const std::string& config,
                     const EngineOptions& opts, int reps) {
  ModelReport report;
  report.config = config;

  Engine auto_engine(model, opts);
  const RunResult first = auto_engine.Run();  // pays the pack phase
  report.packs_first_run = first.packs_performed;
  report.auto_run = BestRun(auto_engine, reps, &report.overhead_seconds);
  report.packs_second_run = report.auto_run.packs_performed;
  report.plan = auto_engine.Plan();

  EngineOptions dense_opts = opts;
  dense_opts.planner.force_format = Format::kDense;
  dense_opts.planner.autotune = false;
  Engine dense_engine(model, dense_opts);
  dense_engine.Run();
  double dense_overhead = 0;
  report.dense_run = BestRun(dense_engine, reps, &dense_overhead);
  return report;
}

void PrintModel(const ModelDesc& model, const ModelReport& r) {
  std::printf("\n%s (%s) on %s plan\n", model.name.c_str(),
              r.config.c_str(), r.plan.gpu.c_str());
  std::printf("  %-18s %-8s %3s %10s %10s %8s %8s\n", "layer", "format",
              "rep", "auto_ms", "dense_ms", "meas_x", "plan_x");
  for (std::size_t i = 0; i < r.auto_run.layers.size(); ++i) {
    const LayerRunRecord& a = r.auto_run.layers[i];
    const LayerRunRecord& d = r.dense_run.layers[i];
    const double plan_x =
        a.modeled_s > 0 ? a.modeled_dense_s / a.modeled_s : 0.0;
    std::printf("  %-18s %-8s %3d %10.3f %10.3f %7.2fx %7.2fx\n",
                a.name.c_str(), FormatName(a.format).c_str(), a.repeat,
                a.seconds * a.repeat * 1e3, d.seconds * d.repeat * 1e3,
                a.seconds > 0 ? d.seconds / a.seconds : 0.0, plan_x);
  }
  std::printf("  %-18s %-8s %3s %10.3f %10.3f %7.2fx %7.2fx   "
              "(packs: first run %zu, steady state %zu; overhead %.3f ms)\n",
              "WHOLE MODEL", "", "", r.AutoMs(), r.DenseMs(),
              r.MeasuredSpeedup(), r.ModeledSpeedup(), r.packs_first_run,
              r.packs_second_run, r.OverheadMs());
}

bool WriteJson(const std::string& path, const EngineOptions& opts,
               const std::vector<ModelDesc>& models,
               const std::vector<ModelReport>& reports) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"e2e\",\n");
  shflbw::bench::WriteProvenance(f);
  std::fprintf(f, "  \"gpu\": \"%s\",\n",
               GetGpuSpec(opts.planner.arch).name.c_str());
  std::fprintf(f, "  \"density\": %.3f,\n  \"v\": %d,\n",
               opts.planner.density, opts.planner.v);
  std::fprintf(f, "  \"threads\": %d,\n", ParallelThreadCount());
  std::fprintf(f, "  \"autotune\": %s,\n",
               opts.planner.autotune ? "true" : "false");
  std::fprintf(f, "  \"note\": \"auto/dense ms are repeat-weighted "
               "steady-state kernel latencies; overhead_ms is the least "
               "auto-run wall time minus kernel time over the same runs (one "
               "call each, not repeat-weighted); modeled columns are the "
               "planner's GPU cost model, so compare speedup ratios, not "
               "absolute times\",\n");
  std::fprintf(f, "  \"models\": [\n");
  for (std::size_t m = 0; m < reports.size(); ++m) {
    const ModelReport& r = reports[m];
    std::fprintf(f, "    {\"model\": \"%s\", \"config\": \"%s\",\n",
                 models[m].name.c_str(), r.config.c_str());
    std::fprintf(f, "     \"layers\": [\n");
    for (std::size_t i = 0; i < r.auto_run.layers.size(); ++i) {
      const LayerRunRecord& a = r.auto_run.layers[i];
      const LayerRunRecord& d = r.dense_run.layers[i];
      std::fprintf(
          f,
          "       {\"name\": \"%s\", \"format\": \"%s\", \"repeat\": %d, "
          "\"auto_ms\": %.4f, \"dense_ms\": %.4f, "
          "\"auto_gflops\": %.3f, \"dense_gflops\": %.3f, "
          "\"measured_speedup\": %.3f, \"modeled_speedup\": %.3f, "
          "\"modeled_auto_us\": %.3f, \"modeled_dense_us\": %.3f}%s\n",
          a.name.c_str(), FormatName(a.format).c_str(), a.repeat,
          a.seconds * a.repeat * 1e3, d.seconds * d.repeat * 1e3,
          a.Gflops(), d.Gflops(),
          a.seconds > 0 ? d.seconds / a.seconds : 0.0,
          a.modeled_s > 0 ? a.modeled_dense_s / a.modeled_s : 0.0,
          a.modeled_s * 1e6, a.modeled_dense_s * 1e6,
          i + 1 < r.auto_run.layers.size() ? "," : "");
    }
    std::fprintf(f, "     ],\n");
    std::fprintf(
        f,
        "     \"whole_model\": {\"auto_ms\": %.4f, \"dense_ms\": %.4f, "
        "\"overhead_ms\": %.4f, "
        "\"measured_speedup\": %.3f, \"modeled_speedup\": %.3f, "
        "\"packs_first_run\": %zu, \"packs_steady_state\": %zu}}%s\n",
        r.AutoMs(), r.DenseMs(), r.OverheadMs(), r.MeasuredSpeedup(),
        r.ModeledSpeedup(), r.packs_first_run, r.packs_second_run,
        m + 1 < reports.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  int reps = 2;
  std::string out = "BENCH_e2e.json";
  EngineOptions opts;
  opts.planner.density = 0.25;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--autotune") == 0)
      opts.planner.autotune = true;
    else if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
    else if (std::strncmp(argv[i], "--reps=", 7) == 0)
      reps = std::max(1, std::atoi(argv[i] + 7));
    else if (std::strncmp(argv[i], "--gpu=", 6) == 0)
      opts.planner.arch = ParseGpuArch(argv[i] + 6);
    else if (std::strncmp(argv[i], "--density=", 10) == 0)
      opts.planner.density = std::atof(argv[i] + 10);
    else if (std::strncmp(argv[i], "--v=", 4) == 0)
      opts.planner.v = std::max(1, std::atoi(argv[i] + 4));
    else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  std::vector<ModelDesc> models;
  std::vector<std::string> configs;
  if (smoke) {
    reps = 1;
    TransformerConfig t{64, 128, 32, 1, 1};
    models.push_back(ModelDesc::Transformer(t));
    configs.push_back("d_model=64,d_ff=128,tokens=32,enc=1,dec=1");
    models.push_back(ModelDesc::Gnmt(GnmtConfig{64, 32, 2, 2, 0}));
    configs.push_back("hidden=64,tokens=32,enc=2,dec=2");
    models.push_back(ModelDesc::ResNet50(ResNet50Config{1, 32}));
    configs.push_back("batch=1,image=32");
  } else {
    TransformerConfig t{256, 1024, 128, 2, 2};
    models.push_back(ModelDesc::Transformer(t));
    configs.push_back("d_model=256,d_ff=1024,tokens=128,enc=2,dec=2");
    models.push_back(ModelDesc::Gnmt(GnmtConfig{256, 128, 2, 2, 0}));
    configs.push_back("hidden=256,tokens=128,enc=2,dec=2");
    models.push_back(ModelDesc::ResNet50(ResNet50Config{1, 64}));
    configs.push_back("batch=1,image=64");
  }

  std::printf("bench_e2e: %d thread(s), %d rep(s), gpu %s, density %.2f%s\n",
              ParallelThreadCount(), reps,
              GetGpuSpec(opts.planner.arch).name.c_str(),
              opts.planner.density, opts.planner.autotune ? ", autotune" : "");

  std::vector<ModelReport> reports;
  for (std::size_t m = 0; m < models.size(); ++m) {
    reports.push_back(RunModel(models[m], configs[m], opts, reps));
    PrintModel(models[m], reports.back());
  }

  const bool wrote = WriteJson(out, opts, models, reports);
  if (wrote) std::printf("\nwrote %s\n", out.c_str());

  // Acceptance: the auto plan must beat all-dense on the sparse-friendly
  // NLP workloads (Transformer, GNMT). Measured at full configs only —
  // smoke shapes are too small for a stable margin.
  bool ok = wrote;
  if (!smoke) {
    for (std::size_t m = 0; m < reports.size(); ++m) {
      if (models[m].name == "resnet50") continue;
      if (reports[m].MeasuredSpeedup() <= 1.0) {
        std::fprintf(stderr, "FAIL: %s auto plan (%.3f ms) did not beat "
                     "dense (%.3f ms)\n", models[m].name.c_str(),
                     reports[m].AutoMs(), reports[m].DenseMs());
        ok = false;
      }
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace runtime
}  // namespace shflbw

int main(int argc, char** argv) { return shflbw::runtime::Main(argc, argv); }
