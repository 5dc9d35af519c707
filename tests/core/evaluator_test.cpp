#include "core/evaluator.h"

#include <set>

#include <gtest/gtest.h>

#include "common/check.h"
#include "model/weight_synth.h"
#include "runtime/planner.h"

namespace shflbw {
namespace {

using runtime::AllFormats;
using runtime::ExecutionPlan;
using runtime::Format;
using runtime::LayerDesc;
using runtime::ModelDesc;
using runtime::PlannerOptions;

/// A one-layer GEMM model.
ModelDesc OneLayer(int m, int n, int k) {
  ModelDesc model;
  model.name = "one";
  model.layers.resize(1);
  model.layers[0].gemm = {"fc", m, n, k};
  return model;
}

TEST(Evaluator, TransformerShflBwSpeedupHeadline) {
  // Fig. 6 anchor: Shfl-BW V=64 at 75% sparsity accelerates Transformer
  // GEMM layers ~1.81x (V100), ~4.18x (T4), ~1.90x (A100). The model
  // must land in the right bands, with T4 clearly the largest.
  const ModelDesc transformer = ModelDesc::Transformer();
  const auto v100 =
      EvaluateModel(transformer, Format::kShflBw, 0.25, 64, GpuArch::kV100);
  const auto t4 =
      EvaluateModel(transformer, Format::kShflBw, 0.25, 64, GpuArch::kT4);
  const auto a100 =
      EvaluateModel(transformer, Format::kShflBw, 0.25, 64, GpuArch::kA100);
  ASSERT_TRUE(v100 && t4 && a100);
  EXPECT_GT(v100->speedup, 1.3);
  EXPECT_LT(v100->speedup, 2.5);
  EXPECT_GT(t4->speedup, 3.0);
  EXPECT_LT(t4->speedup, 5.0);
  EXPECT_GT(a100->speedup, 1.3);
  EXPECT_LT(a100->speedup, 2.6);
  EXPECT_GT(t4->speedup, v100->speedup);
  EXPECT_GT(t4->speedup, a100->speedup);
}

TEST(Evaluator, SpeedupGrowsWithSparsity) {
  const ModelDesc transformer = ModelDesc::Transformer();
  double prev = 0.0;
  for (double density : {0.5, 0.25, 0.15, 0.05}) {
    const auto r = EvaluateModel(transformer, Format::kShflBw, density, 64,
                                 GpuArch::kV100);
    ASSERT_TRUE(r);
    EXPECT_GT(r->speedup, prev) << density;
    prev = r->speedup;
  }
}

TEST(Evaluator, UnstructuredBelowDenseAtModerateSparsity) {
  // Fig. 2 / Fig. 6: Sputnik sits below the TC dense baseline through
  // the accuracy-relevant sparsity range. At the 95% extreme the paper
  // still reports <1x; a linear compute model concedes a modest win
  // there on large layers (see docs/REPRODUCTION.md §5), so the bound
  // is loose at that point.
  const ModelDesc gnmt = ModelDesc::Gnmt();
  for (double density : {0.5, 0.25, 0.15}) {
    const auto r =
        EvaluateModel(gnmt, Format::kCsr, density, 32, GpuArch::kV100);
    ASSERT_TRUE(r);
    EXPECT_LT(r->speedup, 1.05) << density;
  }
  const auto r95 = EvaluateModel(gnmt, Format::kCsr, 0.05, 32, GpuArch::kV100);
  ASSERT_TRUE(r95);
  EXPECT_LT(r95->speedup, 1.8);
}

TEST(Evaluator, Balanced24ModestOnA100) {
  // §6.2: balanced 2:4 gives only 1.07x / 1.16x on A100 at 50%.
  const ModelDesc transformer = ModelDesc::Transformer();
  const auto balanced24 = EvaluateModel(transformer, Format::kBalanced24, 0.5,
                                        32, GpuArch::kA100);
  ASSERT_TRUE(balanced24);
  EXPECT_GT(balanced24->speedup, 0.95);
  EXPECT_LT(balanced24->speedup, 1.4);
  // And it is beaten by Shfl-BW V=64 at the same 50% sparsity.
  const auto shflbw =
      EvaluateModel(transformer, Format::kShflBw, 0.5, 64, GpuArch::kA100);
  ASSERT_TRUE(shflbw);
  EXPECT_GT(shflbw->speedup, balanced24->speedup);
}

TEST(Evaluator, ConvModelOnlyForOurKernels) {
  const ModelDesc resnet = ModelDesc::ResNet50();
  EXPECT_TRUE(EvaluateModel(resnet, Format::kShflBw, 0.25, 32, GpuArch::kV100)
                  .has_value());
  EXPECT_TRUE(
      EvaluateModel(resnet, Format::kVectorWise, 0.25, 32, GpuArch::kV100)
          .has_value());
  // §6.2: "The baselines all lack implementation for convolution."
  EXPECT_FALSE(EvaluateModel(resnet, Format::kCsr, 0.25, 32, GpuArch::kV100)
                   .has_value());
  EXPECT_FALSE(EvaluateModel(resnet, Format::kBsr, 0.25, 32, GpuArch::kV100)
                   .has_value());
}

TEST(Evaluator, ResNetShflBwFasterThanDense) {
  const auto r = EvaluateModel(ModelDesc::ResNet50(), Format::kShflBw, 0.25,
                               32, GpuArch::kV100);
  ASSERT_TRUE(r);
  EXPECT_GT(r->speedup, 1.0);
}

TEST(Evaluator, SpeedupIsDenseOverSparseModeledSeconds) {
  const ModelDesc model = OneLayer(4096, 128, 1024);
  const auto r =
      EvaluateModel(model, Format::kShflBw, 0.25, 64, GpuArch::kV100);
  ASSERT_TRUE(r);
  PlannerOptions opts;
  opts.density = 0.25;
  opts.v = 64;
  const LayerDesc& l = model.layers[0];
  const auto dense_s = ModeledLayerSeconds(l, Format::kDense, opts);
  const auto sparse_s = ModeledLayerSeconds(l, Format::kShflBw, opts);
  ASSERT_TRUE(dense_s && sparse_s);
  EXPECT_EQ(r->dense_s, *dense_s);
  EXPECT_EQ(r->sparse_s, *sparse_s);
  EXPECT_NEAR(r->speedup, *dense_s / *sparse_s, 1e-12);
}

TEST(Evaluator, DenseSpeedupIsOne) {
  const auto r = EvaluateModel(OneLayer(1024, 128, 1024), Format::kDense, 1.0,
                               32, GpuArch::kV100);
  ASSERT_TRUE(r);
  EXPECT_NEAR(r->speedup, 1.0, 1e-12);
}

TEST(Evaluator, FiguresTimeWhatPlansModel) {
  // A figure's bar and a plan pinned to the same format at the same
  // (density, V) are one computation: every layer's seconds equal to
  // the bit, and a format the figure cannot time is one the planner
  // cannot run. The model totals are compared to a few ulps only: a
  // build that contracts multiply-adds (-march=x86-64-v3) may fuse one
  // sum and not the other.
  const ModelDesc transformer = ModelDesc::Transformer();
  std::set<Format> compared;
  for (GpuArch arch : {GpuArch::kV100, GpuArch::kA100}) {
    for (double density : {0.25, 0.5}) {
      for (Format f : AllFormats()) {
        SCOPED_TRACE(FormatName(f) + " @ " + GetGpuSpec(arch).name + " " +
                     std::to_string(density));
        PlannerOptions opts;
        opts.arch = arch;
        opts.density = density;
        opts.v = 64;
        opts.force_format = f;
        const auto figure = EvaluateModel(transformer, f, density, 64, arch);
        if (!figure) {
          EXPECT_THROW(PlanModel(transformer, opts), Error);
          continue;
        }
        const ExecutionPlan plan = PlanModel(transformer, opts);
        ASSERT_EQ(figure->layers.size(), plan.layers.size());
        for (std::size_t i = 0; i < plan.layers.size(); ++i) {
          const runtime::LayerPlan& lp = plan.layers[i];
          EXPECT_EQ(figure->layers[i].sparse_s, lp.modeled_s * lp.repeat);
          EXPECT_EQ(figure->layers[i].dense_s, lp.modeled_dense_s * lp.repeat);
        }
        EXPECT_DOUBLE_EQ(figure->sparse_s, plan.ModeledTotalSeconds());
        EXPECT_DOUBLE_EQ(figure->dense_s, plan.ModeledDenseSeconds());
        compared.insert(f);
      }
    }
  }
  EXPECT_EQ(compared.size(), AllFormats().size());
}

TEST(Evaluator, ProxyQualityMonotone) {
  EXPECT_DOUBLE_EQ(ProxyQuality(27.5, 1.0, 3.0), 27.5);
  EXPECT_LT(ProxyQuality(27.5, 0.9, 3.0), 27.5);
  EXPECT_GT(ProxyQuality(27.5, 0.9, 3.0), ProxyQuality(27.5, 0.8, 3.0));
  EXPECT_THROW(ProxyQuality(27.5, 1.5, 3.0), Error);
}

TEST(Evaluator, QualityOrderingAcrossPatterns) {
  // Table 1 at the model level: Shfl-BW > VW > BW in retained score.
  std::vector<Matrix<float>> weights;
  for (int i = 0; i < 3; ++i) {
    SynthWeightOptions opt;
    opt.seed = 400 + i;
    weights.push_back(SynthesizeWeights(128, 128, opt));
  }
  const QualityResult shflbw =
      EvaluateQuality(weights, Format::kShflBw, 0.2, 32, 27.5, 3.0);
  const QualityResult vw =
      EvaluateQuality(weights, Format::kVectorWise, 0.2, 32, 27.5, 3.0);
  const QualityResult bw =
      EvaluateQuality(weights, Format::kBsr, 0.2, 32, 27.5, 3.0);
  EXPECT_GT(shflbw.retained_ratio, vw.retained_ratio);
  EXPECT_GT(vw.retained_ratio, bw.retained_ratio);
  EXPECT_GT(shflbw.proxy_score, bw.proxy_score);
}

}  // namespace
}  // namespace shflbw
