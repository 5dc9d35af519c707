// Engine contract: pack-once steady state (second Run performs zero
// conversions), bit-identical outputs at 1/2/8 threads, deterministic
// results across engine instances, and end-to-end execution of all
// three evaluation models.
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "runtime/engine.h"

namespace shflbw {
namespace runtime {
namespace {

struct ThreadGuard {
  ~ThreadGuard() { SetParallelThreads(0); }
};

EngineOptions SmallOptions() {
  EngineOptions opts;
  opts.planner.density = 0.25;
  opts.planner.v = 8;
  return opts;
}

ModelDesc SmallTransformer() {
  TransformerConfig cfg;
  cfg.d_model = 64;
  cfg.d_ff = 128;
  cfg.batch_tokens = 32;
  cfg.encoder_layers = 1;
  cfg.decoder_layers = 1;
  return ModelDesc::Transformer(cfg);
}

TEST(Engine, SecondRunPerformsZeroConversions) {
  Engine engine(SmallTransformer(), SmallOptions());
  const RunResult first = engine.Run();
  EXPECT_GT(first.packs_performed, 0u);
  const std::size_t packs_after_first = engine.cache().TotalPacks();

  const RunResult second = engine.Run();
  EXPECT_EQ(second.packs_performed, 0u);
  EXPECT_EQ(engine.cache().TotalPacks(), packs_after_first);
  // Steady-state output is identical to the first run's.
  EXPECT_EQ(first.output, second.output);
}

TEST(Engine, BitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  SetParallelThreads(1);
  Engine e1(SmallTransformer(), SmallOptions());
  const Matrix<float> ref = e1.Run().output;
  for (int threads : {2, 8}) {
    SetParallelThreads(threads);
    Engine en(SmallTransformer(), SmallOptions());
    EXPECT_EQ(en.Run().output, ref) << threads << " threads";
  }
}

TEST(Engine, DeterministicAcrossInstances) {
  Engine a(SmallTransformer(), SmallOptions());
  Engine b(SmallTransformer(), SmallOptions());
  EXPECT_EQ(a.Run().output, b.Run().output);
  // Same plan, too.
  const ExecutionPlan& pa = a.Plan();
  const ExecutionPlan& pb = b.Plan();
  ASSERT_EQ(pa.layers.size(), pb.layers.size());
  for (std::size_t i = 0; i < pa.layers.size(); ++i) {
    EXPECT_EQ(pa.layers[i].format, pb.layers[i].format);
  }
}

TEST(Engine, RunsAllThreeEvaluationModels) {
  const std::vector<ModelDesc> models = {
      SmallTransformer(),
      ModelDesc::Gnmt(GnmtConfig{64, 32, 2, 2, 0}),
      ModelDesc::ResNet50(ResNet50Config{1, 32}),
  };
  for (const ModelDesc& model : models) {
    Engine engine(model, SmallOptions());
    const RunResult r = engine.Run();
    EXPECT_EQ(r.layers.size(), model.layers.size()) << model.name;
    EXPECT_GT(r.output.size(), 0u) << model.name;
    for (const LayerRunRecord& rec : r.layers) {
      EXPECT_GT(rec.useful_flops, 0.0) << model.name << " " << rec.name;
      EXPECT_GT(rec.modeled_s, 0.0) << model.name << " " << rec.name;
    }
    // Outputs must be finite (the inter-layer RMS normalization keeps
    // activations inside fp16 range).
    for (float x : r.output.storage()) ASSERT_TRUE(std::isfinite(x));
  }
}

TEST(Engine, ForcedDenseMatchesPlan) {
  EngineOptions opts = SmallOptions();
  opts.planner.force_format = Format::kDense;
  Engine engine(SmallTransformer(), opts);
  const RunResult r = engine.Run();
  for (const LayerRunRecord& rec : r.layers) {
    EXPECT_EQ(rec.format, Format::kDense);
  }
}

// An adopted plan comes from the caller: a conv layer on a format with
// no conv kernel (§6.2) must be refused by name before any launch.
TEST(Engine, AdoptPlanRejectsConvLayerOnFormatWithoutConvKernel) {
  const ModelDesc model = ModelDesc::ResNet50(ResNet50Config{1, 32});
  ExecutionPlan plan = PlanModel(model, SmallOptions().planner);
  plan.layers.front().format = Format::kCsr;
  Engine engine(model, SmallOptions());
  try {
    engine.AdoptPlan(plan);
    ADD_FAILURE() << "conv layer on csr was adopted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("has no conv kernel"),
              std::string::npos)
        << e.what();
  }
}

TEST(Engine, AutotunePacksAtPlanTimeAndKeepsRunsCacheOnly) {
  EngineOptions opts = SmallOptions();
  opts.planner.autotune = true;
  opts.planner.autotune_top_k = 2;
  Engine engine(SmallTransformer(), opts);
  engine.Plan();  // autotune packs the timed candidates
  const std::size_t packs_after_plan = engine.cache().TotalPacks();
  EXPECT_GT(packs_after_plan, 0u);
  const RunResult r = engine.Run();
  // Every executed format was already packed during autotune.
  EXPECT_EQ(r.packs_performed, 0u);
  // Timed candidates carry their measurements.
  bool any_measured = false;
  for (const LayerPlan& lp : engine.Plan().layers) {
    for (const FormatCandidate& c : lp.candidates) {
      if (c.measured_s > 0) any_measured = true;
    }
  }
  EXPECT_TRUE(any_measured);
}

// With a telemetry sink attached, every plan layer publishes its
// planned-vs-measured drift after a run: modeled seconds are set at
// plan registration, measured seconds and the drift ratio after the
// first launch. One gauge per plan layer, all strictly positive.
TEST(Engine, KernelProfilingPublishesDriftPerPlanLayer) {
  ThreadGuard guard;
  SetParallelThreads(1);
  EngineOptions opts = SmallOptions();
  opts.telemetry = std::make_shared<obs::Telemetry>(obs::TelemetryOptions{});
  Engine engine(SmallTransformer(), opts);
  (void)engine.Run();

  obs::Registry& reg = opts.telemetry->registry();
  std::size_t drift_rows = 0;
  for (const std::string& name : reg.Names()) {
    if (name.rfind("shflbw_plan_drift_ratio{", 0) != 0) continue;
    ++drift_rows;
    const obs::Gauge* drift = reg.FindGauge(name);
    ASSERT_NE(drift, nullptr) << name;
    EXPECT_GT(drift->Value(), 0.0) << name;
  }
  EXPECT_EQ(drift_rows, engine.Plan().layers.size());
  // The companion rows follow the same keying, so modeled and measured
  // seconds for each layer line up with its drift gauge.
  for (const std::string& name : reg.Names()) {
    if (name.rfind("shflbw_plan_drift_ratio{", 0) != 0) continue;
    const std::string key = name.substr(std::string("shflbw_plan_drift_ratio").size());
    const obs::Gauge* modeled = reg.FindGauge("shflbw_plan_modeled_seconds" + key);
    const obs::Gauge* measured = reg.FindGauge("shflbw_plan_measured_seconds" + key);
    ASSERT_NE(modeled, nullptr) << key;
    ASSERT_NE(measured, nullptr) << key;
    EXPECT_GT(modeled->Value(), 0.0);
    EXPECT_GT(measured->Value(), 0.0);
  }
}

// Regression: with autotune_top_k far above the number of feasible
// candidates, the plan summary must still only report genuinely
// measured winners — a candidate skipped by feasibility rules keeps
// measured_s == 0 and can never surface as an "autotuned" choice.
TEST(Engine, AutotuneReportsOnlyGenuinelyMeasuredWinners) {
  EngineOptions opts = SmallOptions();
  opts.planner.autotune = true;
  opts.planner.autotune_top_k = 1000;  // clamped to the feasible count
  Engine engine(SmallTransformer(), opts);
  for (const LayerPlan& lp : engine.Plan().layers) {
    int feasible = 0;
    int measured = 0;
    for (const FormatCandidate& c : lp.candidates) {
      if (c.feasible) ++feasible;
      if (c.measured_s > 0) ++measured;
      // Infeasible candidates are never timed.
      if (!c.feasible) {
        EXPECT_EQ(c.measured_s, 0.0) << lp.name;
      }
      // No measurement can exceed the feasible candidate count, no
      // matter how large top_k was.
      EXPECT_LE(measured, feasible) << lp.name;
    }
    if (lp.autotuned) {
      // The reported winner is one of the measured candidates, with a
      // real (> 0) sample behind it.
      bool winner_measured = false;
      for (const FormatCandidate& c : lp.candidates) {
        if (c.format == lp.format && c.measured_s > 0) {
          winner_measured = true;
        }
      }
      EXPECT_TRUE(winner_measured) << lp.name;
      EXPECT_GE(measured, 2) << lp.name;
    }
  }
}

}  // namespace
}  // namespace runtime
}  // namespace shflbw
