// Quality-aware planning end-to-end: the quality floor knob from plan
// to packed weights to execution.
//
// Plans a small Transformer three ways — speed-only (quality-blind),
// quality-constrained at a retained-importance floor, and a higher
// floor in aggregate (importance-weighted) mode — then packs and runs
// the quality-constrained plan, printing each layer's selected
// (format, density, V) and the retained-score ratio its mask keeps.
// Exits 1 if a layer of the per-layer plan retains less than its floor,
// the aggregate plan's importance-weighted ratio misses its floor, or
// a steady-state run packs a weight.
//
//   cmake -B build -S . && cmake --build build -j
//   ./build/example_quality_planning
#include <cstdio>

#include "runtime/engine.h"

namespace {

using namespace shflbw;
using namespace shflbw::runtime;

void PrintPlan(const char* title, const ExecutionPlan& plan) {
  std::printf("\n%s\n", title);
  std::printf("  %-16s %-8s %8s %4s %9s %12s\n", "layer", "format",
              "density", "V", "retained", "modeled_us");
  for (const LayerPlan& l : plan.layers) {
    if (l.retained_ratio >= 0) {
      std::printf("  %-16s %-8s %8.3f %4d %9.3f %12.3f\n", l.name.c_str(),
                  FormatName(l.format).c_str(), l.density, l.v,
                  l.retained_ratio, l.modeled_s * 1e6);
    } else {
      std::printf("  %-16s %-8s %8.3f %4d %9s %12.3f\n", l.name.c_str(),
                  FormatName(l.format).c_str(), l.density, l.v, "n/a",
                  l.modeled_s * 1e6);
    }
  }
  std::printf("  modeled total %.3f us (all-dense %.3f us)",
              plan.ModeledTotalSeconds() * 1e6,
              plan.ModeledDenseSeconds() * 1e6);
  if (plan.MinRetainedRatio() >= 0) {
    std::printf(", min ratio %.3f, importance-weighted %.3f",
                plan.MinRetainedRatio(), plan.AggregateRetainedRatio());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  TransformerConfig cfg;
  cfg.d_model = 128;
  cfg.d_ff = 512;
  cfg.batch_tokens = 64;
  cfg.encoder_layers = 1;
  cfg.decoder_layers = 1;
  const ModelDesc model = ModelDesc::Transformer(cfg);

  EngineOptions opts;
  opts.planner.density = 0.25;
  opts.planner.v = 16;

  // 1. Speed-only: the quality-blind cost-model ranking. Fastest plan,
  //    but nothing bounds how much importance the masks throw away.
  Engine speed_engine(model, opts);
  PrintPlan("speed-only plan (quality-blind)", speed_engine.Plan());

  // 2. Quality-constrained: every layer must retain at least 60% of
  //    its importance; the planner searches (format, density, V) per
  //    layer — note how it DOWNSHIFTS the granularity to V=8 where the
  //    V=16 mask would miss the floor — and picks the fastest
  //    qualifying combination, falling back to dense where nothing
  //    sparse qualifies (try floor 0.8 here to see it).
  constexpr double kLayerFloor = 0.60;
  EngineOptions qopts = opts;
  qopts.planner.quality.enabled = true;
  qopts.planner.quality.min_retained_ratio = kLayerFloor;
  qopts.planner.quality.v_ladder = {8, 16};
  Engine quality_engine(model, qopts);
  PrintPlan("quality-constrained plan (per-layer floor 0.60)",
            quality_engine.Plan());

  // 3. Aggregate mode at a floor no single sparse mask reaches: the
  //    importance-weighted mean must meet it, so the planner keeps the
  //    cheap layers sparse and spends dense latency only where the
  //    importance lives.
  constexpr double kAggregateFloor = 0.65;
  EngineOptions aopts = qopts;
  aopts.planner.quality.min_retained_ratio = kAggregateFloor;
  aopts.planner.quality.floor = QualityOptions::Floor::kAggregate;
  Engine aggregate_engine(model, aopts);
  PrintPlan("quality-constrained plan (aggregate floor 0.65)",
            aggregate_engine.Plan());

  // Pack + run the per-layer-floor plan: the first Run prunes and
  // converts each layer at ITS plan (density, V) into the weight
  // cache; the second run packs nothing.
  const RunResult first = quality_engine.Run();
  const RunResult second = quality_engine.Run();
  std::printf("\nquality engine: first run packed %zu weights, steady "
              "state packed %zu; whole-model latency %.3f ms\n",
              first.packs_performed, second.packs_performed,
              second.weighted_seconds * 1e3);

  Engine dense_engine(model, [] {
    EngineOptions d;
    d.planner.force_format = Format::kDense;
    return d;
  }());
  dense_engine.Run();
  const RunResult dense = dense_engine.Run();
  const ExecutionPlan& qplan = quality_engine.Plan();
  std::printf("all-dense latency %.3f ms -> quality-constrained keeps "
              ">= 60%% importance per layer at %.2fx the measured speed "
              "(%.2fx modeled)\n",
              dense.weighted_seconds * 1e3,
              second.weighted_seconds > 0
                  ? dense.weighted_seconds / second.weighted_seconds
                  : 0.0,
              qplan.ModeledTotalSeconds() > 0
                  ? qplan.ModeledDenseSeconds() / qplan.ModeledTotalSeconds()
                  : 0.0);

  bool ok = true;
  for (const LayerPlan& l : qplan.layers) {
    if (l.retained_ratio < kLayerFloor) {
      std::printf("FAIL: %s retains %.3f, below the %.2f floor\n",
                  l.name.c_str(), l.retained_ratio, kLayerFloor);
      ok = false;
    }
  }
  const double aggregate = aggregate_engine.Plan().AggregateRetainedRatio();
  if (aggregate < kAggregateFloor) {
    std::printf("FAIL: aggregate plan retains %.3f, below the %.2f floor\n",
                aggregate, kAggregateFloor);
    ok = false;
  }
  if (second.packs_performed != 0) {
    std::printf("FAIL: the steady-state run packed %zu weights\n",
                second.packs_performed);
    ok = false;
  }
  return ok ? 0 : 1;
}
