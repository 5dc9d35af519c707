// Quality subsystem contract: the evaluator scores exactly the masks
// the pack phase applies (memoized), and the quality-aware planner
// meets its retained-importance floor with the latency-minimal
// per-layer (format, density, V) choices — dense fallback included —
// deterministically, with the engine packing each layer at its own
// plan density and staying bit-identical at any thread count.
#include <string>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "model/weight_synth.h"
#include "prune/block_wise.h"
#include "prune/importance.h"
#include "prune/shfl_bw_search.h"
#include "prune/unstructured.h"
#include "prune/vector_wise_prune.h"
#include "quality/quality_evaluator.h"
#include "quality/quality_planner.h"
#include "runtime/engine.h"

namespace shflbw {
namespace quality {
namespace {

using runtime::Engine;
using runtime::EngineOptions;
using runtime::ExecutionPlan;
using runtime::Format;
using runtime::FormatCandidate;
using runtime::LayerPlan;
using runtime::ModelDesc;
using runtime::PlannerOptions;
using runtime::QualityOptions;

struct ThreadGuard {
  ~ThreadGuard() { SetParallelThreads(0); }
};

ModelDesc SmallTransformer() {
  TransformerConfig cfg;
  cfg.d_model = 64;
  cfg.d_ff = 128;
  cfg.batch_tokens = 32;
  cfg.encoder_layers = 1;
  cfg.decoder_layers = 1;
  return ModelDesc::Transformer(cfg);
}

PlannerOptions QualityPlannerOptions(double floor) {
  PlannerOptions opts;
  opts.density = 0.25;
  opts.v = 8;
  opts.quality.enabled = true;
  opts.quality.min_retained_ratio = floor;
  return opts;
}

TEST(QualityEvaluator, MatchesDirectMaskComputation) {
  const int m = 64, k = 64, v = 8;
  const std::uint64_t seed = 0x5eedULL + 3;
  const double density = 0.25;
  SynthWeightOptions synth;
  synth.seed = seed;
  const Matrix<float> scores = MagnitudeScores(SynthesizeWeights(m, k, synth));

  QualityEvaluator eval;
  EXPECT_DOUBLE_EQ(
      eval.RetainedRatio(m, k, seed, Format::kCsr, density, v),
      RetainedScoreRatio(scores, UnstructuredMask(scores, density)));
  EXPECT_DOUBLE_EQ(
      eval.RetainedRatio(m, k, seed, Format::kBsr, density, v),
      RetainedScoreRatio(scores, BlockWiseMask(scores, density, v)));
  EXPECT_DOUBLE_EQ(
      eval.RetainedRatio(m, k, seed, Format::kVectorWise, density, v),
      RetainedScoreRatio(scores, VectorWiseMask(scores, density, v)));
  EXPECT_DOUBLE_EQ(
      eval.RetainedRatio(m, k, seed, Format::kShflBw, density, v),
      RetainedScoreRatio(scores, ShflBwSearch(scores, density, v).mask));
}

TEST(QualityEvaluator, DenseIsExactlyOneWithoutEvaluation) {
  QualityEvaluator eval;
  EXPECT_DOUBLE_EQ(eval.RetainedRatio(64, 64, 1, Format::kDense, 1.0, 8),
                   1.0);
  EXPECT_EQ(eval.Evaluations(), 0u);
}

TEST(QualityEvaluator, MemoizesPerKeyAndSharesScores) {
  QualityEvaluator eval;
  const double a =
      eval.RetainedRatio(64, 64, 7, Format::kVectorWise, 0.25, 8);
  EXPECT_EQ(eval.Evaluations(), 1u);
  EXPECT_EQ(eval.ScoreMatrices(), 1u);
  // Same key: no new evaluation, same value.
  EXPECT_DOUBLE_EQ(eval.RetainedRatio(64, 64, 7, Format::kVectorWise, 0.25, 8),
                   a);
  EXPECT_EQ(eval.Evaluations(), 1u);
  // New density on the same master: one more mask, zero new syntheses.
  eval.RetainedRatio(64, 64, 7, Format::kVectorWise, 0.5, 8);
  EXPECT_EQ(eval.Evaluations(), 2u);
  EXPECT_EQ(eval.ScoreMatrices(), 1u);
  // New seed: new master.
  eval.RetainedRatio(64, 64, 8, Format::kVectorWise, 0.25, 8);
  EXPECT_EQ(eval.ScoreMatrices(), 2u);
}

// 2:4 holds exactly density 0.5: scoring it at 0.25 used to return the
// 0.5 ratio under the 0.25 key. The table's 2:4 entry now rejects it by
// name, and nothing is memoized.
TEST(QualityEvaluator, Balanced24RejectsOtherDensities) {
  QualityEvaluator eval;
  try {
    (void)eval.RetainedRatio(64, 64, 1, Format::kBalanced24, 0.25, 8);
    ADD_FAILURE() << "2:4 at density 0.25 did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("2:4 fixes density at 0.5, got 0.25"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(eval.Evaluations(), 0u);
  (void)eval.RetainedRatio(64, 64, 1, Format::kBalanced24, 0.5, 8);
  EXPECT_EQ(eval.Evaluations(), 1u);
}

TEST(QualityEvaluator, RejectsBadArguments) {
  QualityEvaluator eval;
  EXPECT_THROW(eval.RetainedRatio(64, 64, 1, Format::kCsr, 0.0, 8), Error);
  EXPECT_THROW(eval.RetainedRatio(64, 64, 1, Format::kCsr, 1.5, 8), Error);
  EXPECT_THROW(eval.RetainedRatio(64, 64, 1, Format::kCsr, 0.5, 0), Error);
}

TEST(QualityPlanner, EveryLayerMeetsPerLayerFloor) {
  const ModelDesc model = SmallTransformer();
  for (double floor : {0.0, 0.5, 0.7, 0.9}) {
    const ExecutionPlan plan =
        PlanModel(model, QualityPlannerOptions(floor));
    EXPECT_GE(plan.MinRetainedRatio(), floor - 1e-9) << "floor " << floor;
    for (const LayerPlan& l : plan.layers) {
      EXPECT_GE(l.retained_ratio, floor - 1e-9) << l.name;
      EXPECT_GT(l.total_score, 0.0) << l.name;
      // The winner is a real candidate of the search space.
      EXPECT_TRUE(l.density == 1.0 || l.density <= 0.5) << l.name;
      if (l.format == Format::kDense) {
        EXPECT_DOUBLE_EQ(l.density, 1.0) << l.name;
        EXPECT_DOUBLE_EQ(l.retained_ratio, 1.0) << l.name;
      }
    }
    // Dense always qualifies, so the plan never exceeds the dense
    // latency envelope.
    EXPECT_LE(plan.ModeledTotalSeconds(), plan.ModeledDenseSeconds() + 1e-15);
  }
}

TEST(QualityPlanner, UnreachableFloorFallsBackToDense) {
  const ExecutionPlan plan =
      PlanModel(SmallTransformer(), QualityPlannerOptions(1.0));
  for (const LayerPlan& l : plan.layers) {
    EXPECT_EQ(l.format, Format::kDense) << l.name;
    EXPECT_DOUBLE_EQ(l.retained_ratio, 1.0) << l.name;
  }
  EXPECT_DOUBLE_EQ(plan.ModeledTotalSeconds(), plan.ModeledDenseSeconds());
}

TEST(QualityPlanner, LowFloorSelectsSparseAndBeatsDense) {
  const ExecutionPlan plan =
      PlanModel(SmallTransformer(), QualityPlannerOptions(0.3));
  bool any_sparse = false;
  for (const LayerPlan& l : plan.layers) {
    if (l.format != Format::kDense) any_sparse = true;
  }
  EXPECT_TRUE(any_sparse);
  EXPECT_LT(plan.ModeledTotalSeconds(), plan.ModeledDenseSeconds());
}

TEST(QualityPlanner, ModeledLatencyMonotoneInFloor) {
  const ModelDesc model = SmallTransformer();
  double prev = 0.0;
  for (double floor : {0.0, 0.3, 0.5, 0.7, 0.85, 0.95, 1.0}) {
    const double s =
        PlanModel(model, QualityPlannerOptions(floor)).ModeledTotalSeconds();
    EXPECT_GE(s, prev - 1e-15) << "floor " << floor;
    prev = s;
  }
}

TEST(QualityPlanner, PerLayerDensitiesComeFromTheLadder) {
  PlannerOptions opts = QualityPlannerOptions(0.5);
  opts.quality.density_ladder = {0.125, 0.25, 0.5};
  const ExecutionPlan plan = PlanModel(SmallTransformer(), opts);
  for (const LayerPlan& l : plan.layers) {
    const bool on_ladder = l.density == 0.125 || l.density == 0.25 ||
                           l.density == 0.5 || l.density == 1.0;
    EXPECT_TRUE(on_ladder) << l.name << " density " << l.density;
  }
}

TEST(QualityPlanner, VLadderSearchesGranularities) {
  PlannerOptions opts = QualityPlannerOptions(0.0);
  opts.quality.v_ladder = {8, 16};
  const ExecutionPlan plan = PlanModel(SmallTransformer(), opts);
  for (const LayerPlan& l : plan.layers) {
    EXPECT_TRUE(l.v == 8 || l.v == 16) << l.name;
    // The candidate sweep covered both granularities for the vector
    // formats.
    bool saw8 = false, saw16 = false;
    for (const FormatCandidate& c : l.candidates) {
      if (c.format == Format::kVectorWise && c.v == 8) saw8 = true;
      if (c.format == Format::kVectorWise && c.v == 16) saw16 = true;
    }
    EXPECT_TRUE(saw8 && saw16) << l.name;
  }
}

TEST(QualityPlanner, DeterministicPlanBitIdenticalAcrossCalls) {
  const ModelDesc model = SmallTransformer();
  const PlannerOptions opts = QualityPlannerOptions(0.8);
  const ExecutionPlan a = PlanModel(model, opts);
  const ExecutionPlan b = PlanModel(model, opts);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    EXPECT_EQ(a.layers[i].format, b.layers[i].format);
    EXPECT_EQ(a.layers[i].density, b.layers[i].density);
    EXPECT_EQ(a.layers[i].v, b.layers[i].v);
    EXPECT_EQ(a.layers[i].modeled_s, b.layers[i].modeled_s);
    EXPECT_EQ(a.layers[i].retained_ratio, b.layers[i].retained_ratio);
    ASSERT_EQ(a.layers[i].candidates.size(), b.layers[i].candidates.size());
    for (std::size_t c = 0; c < a.layers[i].candidates.size(); ++c) {
      EXPECT_EQ(a.layers[i].candidates[c].format,
                b.layers[i].candidates[c].format);
      EXPECT_EQ(a.layers[i].candidates[c].density,
                b.layers[i].candidates[c].density);
      EXPECT_EQ(a.layers[i].candidates[c].retained_ratio,
                b.layers[i].candidates[c].retained_ratio);
    }
  }
}

TEST(QualityPlanner, AggregateFloorMetAndNeverSlowerThanDense) {
  const ModelDesc model = SmallTransformer();
  for (double floor : {0.5, 0.8, 0.95, 1.0}) {
    PlannerOptions opts = QualityPlannerOptions(floor);
    opts.quality.floor = QualityOptions::Floor::kAggregate;
    const ExecutionPlan plan = PlanModel(model, opts);
    EXPECT_GE(plan.AggregateRetainedRatio(), floor - 1e-9)
        << "floor " << floor;
    EXPECT_LE(plan.ModeledTotalSeconds(), plan.ModeledDenseSeconds() + 1e-15);
  }
}

TEST(QualityPlanner, AggregateTradesUnimportantLayersFirst) {
  // The aggregate floor is a relaxation of the per-layer floor: at the
  // same floor value the aggregate plan can keep cheap low-quality
  // layers sparse, so its modelled latency never exceeds... the
  // per-layer plan is not formally an upper bound for the greedy, but
  // the aggregate metric itself must sit at or above the floor while
  // SOME layer may sit below it — that freedom is the point.
  PlannerOptions opts = QualityPlannerOptions(0.9);
  opts.quality.floor = QualityOptions::Floor::kAggregate;
  const ExecutionPlan plan = PlanModel(SmallTransformer(), opts);
  EXPECT_GE(plan.AggregateRetainedRatio(), 0.9 - 1e-9);
  EXPECT_LE(plan.MinRetainedRatio(), plan.AggregateRetainedRatio() + 1e-12);
}

TEST(QualityPlanner, Balanced24AppearsExactlyOncePerLayer) {
  // 2:4 ignores V and fixes density at 0.5, so the ladder sweep must
  // emit ONE candidate for it (per layer), not one per ladder point —
  // duplicates would waste autotune measurement slots.
  PlannerOptions opts = QualityPlannerOptions(0.8);
  opts.arch = GpuArch::kA100;
  opts.quality.v_ladder = {8, 16};
  const ExecutionPlan plan = PlanModel(SmallTransformer(), opts);
  for (const LayerPlan& l : plan.layers) {
    int total = 0, feasible = 0;
    for (const FormatCandidate& c : l.candidates) {
      if (c.format != Format::kBalanced24) continue;
      ++total;
      if (c.feasible) {
        ++feasible;
        EXPECT_DOUBLE_EQ(c.density, 0.5) << l.name;
        EXPECT_GT(c.retained_ratio, 0.0) << l.name;
      }
    }
    EXPECT_EQ(total, 1) << l.name;
    // A100 + k % 4 == 0 + 0.5 on the default ladder: feasible here.
    EXPECT_EQ(feasible, 1) << l.name;
  }
  // Without 0.5 on the ladder the single candidate reports why.
  opts.quality.density_ladder = {0.125, 0.25};
  for (const LayerPlan& l : PlanModel(SmallTransformer(), opts).layers) {
    for (const FormatCandidate& c : l.candidates) {
      if (c.format != Format::kBalanced24) continue;
      EXPECT_FALSE(c.feasible) << l.name;
      EXPECT_NE(c.why.find("0.5"), std::string::npos) << l.name;
    }
  }
}

TEST(QualityPlanner, ExcludedFormatsStayExcluded) {
  PlannerOptions opts = QualityPlannerOptions(0.0);
  opts.exclude = {Format::kCsr, Format::kBsr};
  const ExecutionPlan plan = PlanModel(SmallTransformer(), opts);
  for (const LayerPlan& l : plan.layers) {
    EXPECT_NE(l.format, Format::kCsr) << l.name;
    EXPECT_NE(l.format, Format::kBsr) << l.name;
  }
}

TEST(QualityPlanner, ForceFormatWithQualityThrows) {
  PlannerOptions opts = QualityPlannerOptions(0.9);
  opts.force_format = Format::kDense;
  EXPECT_THROW(PlanModel(SmallTransformer(), opts), Error);
}

TEST(QualityPlanner, RejectsBadQualityOptions) {
  const ModelDesc model = SmallTransformer();
  {
    PlannerOptions opts = QualityPlannerOptions(1.5);
    EXPECT_THROW(PlanModel(model, opts), Error);
  }
  {
    PlannerOptions opts = QualityPlannerOptions(0.9);
    opts.quality.density_ladder.clear();
    EXPECT_THROW(PlanModel(model, opts), Error);
  }
  {
    PlannerOptions opts = QualityPlannerOptions(0.9);
    opts.quality.density_ladder = {0.25, 1.25};
    EXPECT_THROW(PlanModel(model, opts), Error);
  }
  {
    PlannerOptions opts = QualityPlannerOptions(0.9);
    opts.quality.v_ladder = {8, 0};
    EXPECT_THROW(PlanModel(model, opts), Error);
  }
}

EngineOptions QualityEngineOptions(double floor) {
  EngineOptions opts;
  opts.planner = QualityPlannerOptions(floor);
  return opts;
}

TEST(QualityEngine, PacksEachLayerAtItsPlanDensity) {
  Engine engine(SmallTransformer(), QualityEngineOptions(0.6));
  engine.Run();
  for (const LayerPlan& l : engine.Plan().layers) {
    EXPECT_TRUE(
        engine.cache().Contains(l.layer, l.format, l.density, l.v))
        << l.name << " format " << runtime::FormatName(l.format)
        << " density " << l.density;
  }
}

TEST(QualityEngine, SecondRunPerformsZeroConversions) {
  Engine engine(SmallTransformer(), QualityEngineOptions(0.6));
  const auto first = engine.Run();
  EXPECT_GT(first.packs_performed, 0u);
  const auto second = engine.Run();
  EXPECT_EQ(second.packs_performed, 0u);
  EXPECT_EQ(first.output, second.output);
}

TEST(QualityEngine, BitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  SetParallelThreads(1);
  Engine e1(SmallTransformer(), QualityEngineOptions(0.6));
  const Matrix<float> ref = e1.Run().output;
  for (int threads : {2, 8}) {
    SetParallelThreads(threads);
    Engine en(SmallTransformer(), QualityEngineOptions(0.6));
    EXPECT_EQ(en.Run().output, ref) << threads << " threads";
  }
}

TEST(QualityEngine, AutotuneNeverBreaksThePerLayerFloor) {
  EngineOptions opts = QualityEngineOptions(0.7);
  opts.planner.autotune = true;
  opts.planner.autotune_top_k = 16;  // generous: spans the whole ladder
  Engine engine(SmallTransformer(), opts);
  for (const LayerPlan& l : engine.Plan().layers) {
    EXPECT_GE(l.retained_ratio, 0.7 - 1e-9)
        << l.name << (l.autotuned ? " (autotuned)" : "");
  }
}

TEST(QualityEngine, RunsAllThreeEvaluationModels) {
  // ResNet50 truncated to its small bottleneck shapes: the Fig. 5
  // Shfl-BW search the evaluator must run per (density, V) candidate
  // costs seconds on the 2048-row stage-4 weights — representative
  // conv coverage without a minutes-long unit test (bench_quality owns
  // the larger sweep).
  ModelDesc resnet = ModelDesc::ResNet50(ResNet50Config{1, 32});
  std::erase_if(resnet.layers, [](const runtime::LayerDesc& l) {
    return l.GemmM() > 256 || l.GemmK() > 640;
  });
  ASSERT_FALSE(resnet.layers.empty());
  const std::vector<ModelDesc> models = {
      SmallTransformer(),
      ModelDesc::Gnmt(GnmtConfig{64, 32, 2, 2, 0}),
      resnet,
  };
  for (const ModelDesc& model : models) {
    Engine engine(model, QualityEngineOptions(0.5));
    const auto r = engine.Run();
    EXPECT_EQ(r.layers.size(), model.layers.size()) << model.name;
    EXPECT_GE(engine.Plan().MinRetainedRatio(), 0.5 - 1e-9) << model.name;
  }
}

}  // namespace
}  // namespace quality
}  // namespace shflbw
