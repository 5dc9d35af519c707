// Planner contract tests: schedule determinism, feasibility
// constraints, force_format pinning (which times each layer with
// ModeledLayerSeconds and keeps Fig. 6's model shape), and the
// cost-model preference for sparse formats on the paper's
// sparse-friendly NLP shapes.
#include <gtest/gtest.h>

#include "common/check.h"
#include "model/weight_synth.h"
#include "runtime/planner.h"
#include "runtime/weight_cache.h"

namespace shflbw {
namespace runtime {
namespace {

TransformerConfig SmallTransformer() {
  TransformerConfig cfg;
  cfg.d_model = 64;
  cfg.d_ff = 128;
  cfg.batch_tokens = 32;
  cfg.encoder_layers = 1;
  cfg.decoder_layers = 1;
  return cfg;
}

TEST(Planner, SamePlanTwice) {
  const ModelDesc model = ModelDesc::Transformer(SmallTransformer());
  PlannerOptions opts;
  opts.density = 0.25;
  opts.v = 8;
  const ExecutionPlan a = PlanModel(model, opts);
  const ExecutionPlan b = PlanModel(model, opts);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    EXPECT_EQ(a.layers[i].format, b.layers[i].format);
    EXPECT_EQ(a.layers[i].modeled_s, b.layers[i].modeled_s);
    ASSERT_EQ(a.layers[i].candidates.size(), b.layers[i].candidates.size());
    for (std::size_t c = 0; c < a.layers[i].candidates.size(); ++c) {
      EXPECT_EQ(a.layers[i].candidates[c].format,
                b.layers[i].candidates[c].format);
      EXPECT_EQ(a.layers[i].candidates[c].modeled_s,
                b.layers[i].candidates[c].modeled_s);
    }
  }
}

TEST(Planner, PlanDiffersAcrossGpus) {
  // Not required to differ, but the gpu tag and dense baselines must
  // reflect the requested spec.
  const ModelDesc model = ModelDesc::Transformer(SmallTransformer());
  PlannerOptions v100;
  PlannerOptions t4;
  t4.arch = GpuArch::kT4;
  EXPECT_EQ(PlanModel(model, v100).gpu, "V100");
  EXPECT_EQ(PlanModel(model, t4).gpu, "T4");
}

TEST(Planner, ForceFormatPinsEveryLayer) {
  const ModelDesc model = ModelDesc::Transformer(SmallTransformer());
  PlannerOptions opts;
  opts.force_format = Format::kDense;
  const ExecutionPlan plan = PlanModel(model, opts);
  for (const LayerPlan& l : plan.layers) {
    EXPECT_EQ(l.format, Format::kDense);
    EXPECT_EQ(l.modeled_s, l.modeled_dense_s);
  }
}

/// Whole-model modelled speedup over dense of a plan that pins every
/// layer of `model` to `f` at (density, v) on `arch`. Each layer's
/// modelled seconds must be ModeledLayerSeconds to the bit: a plan and
/// a paper figure time a layer with one function.
double PinnedSpeedup(const ModelDesc& model, Format f, double density, int v,
                     GpuArch arch) {
  PlannerOptions opts;
  opts.force_format = f;
  opts.density = density;
  opts.v = v;
  opts.arch = arch;
  const ExecutionPlan plan = PlanModel(model, opts);
  PlannerOptions dense;
  dense.arch = arch;
  for (const LayerPlan& lp : plan.layers) {
    const LayerDesc& l = model.layers[static_cast<std::size_t>(lp.layer)];
    EXPECT_EQ(lp.modeled_s, ModeledLayerSeconds(l, f, opts)) << lp.name;
    EXPECT_EQ(lp.modeled_dense_s, ModeledLayerSeconds(l, Format::kDense, dense))
        << lp.name;
  }
  return plan.ModeledDenseSeconds() / plan.ModeledTotalSeconds();
}

// The shape of Fig. 6 as pinned plans model it.
TEST(Planner, PinnedPlansKeepTheFig6ModelShape) {
  const ModelDesc transformer = ModelDesc::Transformer();
  // Headline: Shfl-BW V=64 at 75% sparsity accelerates Transformer
  // ~1.81x (V100), ~4.18x (T4), ~1.90x (A100), with T4 the largest.
  const double v100 =
      PinnedSpeedup(transformer, Format::kShflBw, 0.25, 64, GpuArch::kV100);
  const double t4 =
      PinnedSpeedup(transformer, Format::kShflBw, 0.25, 64, GpuArch::kT4);
  const double a100 =
      PinnedSpeedup(transformer, Format::kShflBw, 0.25, 64, GpuArch::kA100);
  EXPECT_GT(v100, 1.3);
  EXPECT_LT(v100, 2.5);
  EXPECT_GT(t4, 3.0);
  EXPECT_LT(t4, 5.0);
  EXPECT_GT(a100, 1.3);
  EXPECT_LT(a100, 2.6);
  EXPECT_GT(t4, v100);
  EXPECT_GT(t4, a100);

  // Speedup rises with sparsity.
  double prev = 0.0;
  for (double density : {0.5, 0.25, 0.15, 0.05}) {
    const double speedup = PinnedSpeedup(transformer, Format::kShflBw,
                                         density, 64, GpuArch::kV100);
    EXPECT_GT(speedup, prev) << density;
    prev = speedup;
  }

  // Unstructured (Sputnik) stays below the tensor-core dense baseline
  // on GNMT through the accuracy-relevant range; at the 95% extreme a
  // linear compute model concedes a modest win on large layers
  // (docs/REPRODUCTION.md §5).
  const ModelDesc gnmt = ModelDesc::Gnmt();
  for (double density : {0.5, 0.25, 0.15}) {
    EXPECT_LT(PinnedSpeedup(gnmt, Format::kCsr, density, 32, GpuArch::kV100),
              1.05)
        << density;
  }
  EXPECT_LT(PinnedSpeedup(gnmt, Format::kCsr, 0.05, 32, GpuArch::kV100), 1.8);

  // §6.2: balanced 2:4 gives only 1.07x / 1.16x on A100 at 50%, and
  // Shfl-BW V=64 beats it at the same sparsity.
  const double balanced24 = PinnedSpeedup(transformer, Format::kBalanced24,
                                          0.5, 32, GpuArch::kA100);
  EXPECT_GT(balanced24, 0.95);
  EXPECT_LT(balanced24, 1.4);
  EXPECT_GT(
      PinnedSpeedup(transformer, Format::kShflBw, 0.5, 64, GpuArch::kA100),
      balanced24);

  // Our conv kernel speeds up ResNet50.
  EXPECT_GT(PinnedSpeedup(ModelDesc::ResNet50(), Format::kShflBw, 0.25, 32,
                          GpuArch::kV100),
            1.0);
}

TEST(Planner, SparseWinsOnNlpShapesAtQuarterDensity) {
  // The acceptance-criterion property at plan level: at 25% density the
  // auto plan must beat the all-dense plan on Transformer and GNMT.
  for (const ModelDesc& model :
       {ModelDesc::Transformer(SmallTransformer()),
        ModelDesc::Gnmt(GnmtConfig{64, 32, 2, 2, 0})}) {
    PlannerOptions opts;
    opts.density = 0.25;
    opts.v = 8;
    const ExecutionPlan plan = PlanModel(model, opts);
    EXPECT_LT(plan.ModeledTotalSeconds(), plan.ModeledDenseSeconds())
        << model.name;
  }
}

TEST(Planner, ExcludedFormatsAreNeverSelected) {
  const ModelDesc model = ModelDesc::Transformer(SmallTransformer());
  PlannerOptions opts;
  opts.density = 0.25;
  opts.v = 8;
  opts.exclude = {Format::kBsr, Format::kCsr};
  const ExecutionPlan plan = PlanModel(model, opts);
  for (const LayerPlan& l : plan.layers) {
    EXPECT_NE(l.format, Format::kBsr) << l.name;
    EXPECT_NE(l.format, Format::kCsr) << l.name;
  }
  // Dense is the universal fallback and cannot be excluded.
  opts.exclude = AllFormats();
  for (const LayerPlan& l : PlanModel(model, opts).layers) {
    EXPECT_EQ(l.format, Format::kDense) << l.name;
  }
}

TEST(Planner, Balanced24NeedsA100AndHalfDensity) {
  LayerDesc l;
  l.gemm = {"fc", 64, 32, 64};
  PlannerOptions opts;
  opts.density = 0.5;
  opts.arch = GpuArch::kV100;
  std::string why;
  EXPECT_FALSE(
      ModeledLayerSeconds(l, Format::kBalanced24, opts, &why).has_value());
  EXPECT_EQ(why, "sparse tensor-core is A100-only");

  opts.arch = GpuArch::kA100;
  EXPECT_TRUE(
      ModeledLayerSeconds(l, Format::kBalanced24, opts).has_value());

  opts.density = 0.25;
  EXPECT_FALSE(
      ModeledLayerSeconds(l, Format::kBalanced24, opts, &why).has_value());
  EXPECT_EQ(why, "2:4 fixes density at 0.5");
}

TEST(Planner, VectorFormatsNeedDivisibleM) {
  ModelDesc model;
  model.name = "odd";
  model.layers.resize(1);
  LayerDesc& l = model.layers[0];
  l.gemm = {"odd", 60, 32, 64};  // 60 % 8 != 0
  PlannerOptions opts;
  opts.v = 8;
  std::string why;
  for (Format f : {Format::kVectorWise, Format::kShflBw, Format::kBsr}) {
    EXPECT_FALSE(ModeledLayerSeconds(l, f, opts, &why).has_value())
        << FormatName(f);
  }
  EXPECT_EQ(why, "m or k not divisible by V");
  // Dense and CSR stay feasible, so planning still succeeds.
  const ExecutionPlan plan = PlanModel(model, opts);
  ASSERT_EQ(plan.layers.size(), 1u);
  EXPECT_TRUE(plan.layers[0].format == Format::kDense ||
              plan.layers[0].format == Format::kCsr);

  // The same at the paper's V=32: unstructured CSR has no V constraint.
  l.gemm = {"odd", 100, 128, 2048};
  opts.v = 32;
  EXPECT_FALSE(ModeledLayerSeconds(l, Format::kShflBw, opts, &why));
  EXPECT_EQ(why, "m not divisible by V");
  EXPECT_TRUE(ModeledLayerSeconds(l, Format::kCsr, opts).has_value());
}

TEST(ModeledLayerSeconds, TimesEverySparseFormatOnAFriendlyShape) {
  LayerDesc l;
  l.gemm = {"fc", 2048, 128, 2048};
  PlannerOptions opts;
  opts.density = 0.5;
  opts.v = 32;
  for (Format f : AllFormats()) {
    opts.arch = GpuArch::kA100;
    EXPECT_TRUE(ModeledLayerSeconds(l, f, opts).has_value()) << FormatName(f);
    // Off the A100 only 2:4's sparse tensor cores are missing.
    opts.arch = GpuArch::kV100;
    EXPECT_EQ(ModeledLayerSeconds(l, f, opts).has_value(),
              f != Format::kBalanced24)
        << FormatName(f);
  }
}

TEST(ModeledLayerSeconds, BadShapesAndDensitiesThrow) {
  LayerDesc l;
  l.gemm = {"empty", 0, 128, 1024};
  PlannerOptions opts;
  EXPECT_THROW(ModeledLayerSeconds(l, Format::kCsr, opts), Error);
  l.gemm = {"fc", 128, 128, 1024};
  opts.density = 0.0;
  EXPECT_THROW(ModeledLayerSeconds(l, Format::kCsr, opts), Error);
  opts.density = 1.5;
  EXPECT_THROW(ModeledLayerSeconds(l, Format::kCsr, opts), Error);
}

/// True when PackWeight packs an m x k synthesized weight for `f` at
/// (density, v); false when it throws.
bool Packs(Format f, int m, int k, double density, int v) {
  try {
    (void)PackWeight(f, SynthesizeWeights(m, k, {}), density, v);
    return true;
  } catch (const Error&) {
    return false;
  }
}

TEST(ModeledLayerSeconds, TimesAGemmLayerExactlyWhenItPacks) {
  // A100, so 2:4's hardware rule leaves only its shape and density rules.
  PlannerOptions opts;
  opts.arch = GpuArch::kA100;
  int modelled = 0;
  int rejected = 0;
  for (Format f : AllFormats()) {
    for (int m : {8, 12, 16, 24}) {
      for (int k : {8, 12, 16, 18}) {
        for (int v : {4, 8}) {
          for (double density : {0.25, 0.5}) {
            LayerDesc l;
            l.gemm = {"fc", m, 16, k};
            opts.v = v;
            opts.density = density;
            const bool timed = ModeledLayerSeconds(l, f, opts).has_value();
            EXPECT_EQ(timed, Packs(f, m, k, density, v))
                << FormatName(f) << " m=" << m << " k=" << k << " v=" << v
                << " density=" << density;
            ++(timed ? modelled : rejected);
          }
        }
      }
    }
  }
  EXPECT_GT(modelled, 0);
  EXPECT_GT(rejected, 0);
}

TEST(ModeledLayerSeconds, TimesAConvLayerExactlyWhenItPacks) {
  PlannerOptions opts;
  opts.arch = GpuArch::kA100;
  for (Format f : AllFormats()) {
    if (Ops(f).conv == nullptr) continue;
    for (int out_c : {8, 12, 16}) {
      for (int v : {4, 8}) {
        for (double density : {0.25, 0.5}) {
          LayerDesc l;
          l.kind = LayerKind::kConv;
          l.conv = {"conv", 1, 4, 6, 6, out_c, 3, 3, 1, 1, 1};
          opts.v = v;
          opts.density = density;
          EXPECT_EQ(ModeledLayerSeconds(l, f, opts).has_value(),
                    Packs(f, l.GemmM(), l.GemmK(), density, v))
              << FormatName(f) << " out_c=" << out_c << " v=" << v
              << " density=" << density;
        }
      }
    }
  }
}

TEST(Planner, ConvLayersOnlyOfferConvCapableFormats) {
  const ModelDesc model = ModelDesc::ResNet50(ResNet50Config{1, 32});
  PlannerOptions opts;
  opts.density = 0.25;
  opts.v = 8;
  const ExecutionPlan plan = PlanModel(model, opts);
  ASSERT_FALSE(plan.layers.empty());
  for (const LayerPlan& l : plan.layers) {
    for (const FormatCandidate& c : l.candidates) {
      if (c.format == Format::kCsr || c.format == Format::kBsr ||
          c.format == Format::kBalanced24) {
        EXPECT_FALSE(c.feasible) << l.name << " " << FormatName(c.format);
      }
    }
    EXPECT_TRUE(l.format == Format::kDense ||
                l.format == Format::kVectorWise ||
                l.format == Format::kShflBw);
  }
}

// Regression coverage for option validation: every reject must throw a
// descriptive shflbw::Error naming the offending knob instead of
// silently misbehaving (e.g. density 0 used to reach the pruners).
TEST(Planner, RejectsInvalidOptionsWithDescriptiveErrors) {
  const ModelDesc model = ModelDesc::Transformer(SmallTransformer());
  const auto expect_reject = [&](PlannerOptions opts,
                                 const std::string& needle) {
    try {
      PlanModel(model, opts);
      FAIL() << "expected reject mentioning '" << needle << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  {
    PlannerOptions opts;
    opts.density = 0.0;
    expect_reject(opts, "density");
  }
  {
    PlannerOptions opts;
    opts.density = 1.5;
    expect_reject(opts, "density");
  }
  {
    PlannerOptions opts;
    opts.density = -0.25;
    expect_reject(opts, "density");
  }
  {
    PlannerOptions opts;
    opts.v = 0;
    expect_reject(opts, "v");
  }
  {
    PlannerOptions opts;
    opts.v = -8;
    expect_reject(opts, "v");
  }
  {
    PlannerOptions opts;
    opts.autotune_top_k = 0;
    expect_reject(opts, "autotune_top_k");
  }
  // Boundary values stay accepted: density 1.0 (dense), v 1, top_k 1.
  PlannerOptions ok;
  ok.density = 1.0;
  ok.v = 1;
  ok.autotune_top_k = 1;
  EXPECT_NO_THROW(PlanModel(model, ok));
}

TEST(Format, NamesRoundTrip) {
  for (Format f : AllFormats()) {
    EXPECT_EQ(ParseFormat(FormatName(f)), f);
  }
  EXPECT_THROW(ParseFormat("nope"), Error);
}

}  // namespace
}  // namespace runtime
}  // namespace shflbw
