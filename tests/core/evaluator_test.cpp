#include "core/evaluator.h"

#include <gtest/gtest.h>

#include "model/gnmt.h"
#include "model/resnet50.h"
#include "model/transformer.h"
#include "model/weight_synth.h"

namespace shflbw {
namespace {

const GpuSpec& V100() { return GetGpuSpec(GpuArch::kV100); }
const GpuSpec& T4() { return GetGpuSpec(GpuArch::kT4); }
const GpuSpec& A100() { return GetGpuSpec(GpuArch::kA100); }

TEST(Evaluator, FormatToKernelClassMapping) {
  using runtime::Format;
  using runtime::Ops;
  EXPECT_EQ(Ops(Format::kShflBw).kernel_class,
            KernelClass::kShflBwTensorCore);
  EXPECT_EQ(Ops(Format::kCsr).kernel_class, KernelClass::kSputnik);
  EXPECT_EQ(Ops(Format::kDense).kernel_class, KernelClass::kDenseTensorCore);
}

TEST(Evaluator, TransformerShflBwSpeedupHeadline) {
  // Fig. 6 anchor: Shfl-BW V=64 at 75% sparsity accelerates Transformer
  // GEMM layers ~1.81x (V100), ~4.18x (T4), ~1.90x (A100). The model
  // must land in the right bands, with T4 clearly the largest.
  const auto layers = TransformerLayers();
  const auto counts = TransformerLayerCounts();
  const auto v100 = EvaluateGemmModel(layers, counts,
                                      KernelClass::kShflBwTensorCore, 0.25,
                                      64, V100());
  const auto t4 = EvaluateGemmModel(layers, counts,
                                    KernelClass::kShflBwTensorCore, 0.25, 64,
                                    T4());
  const auto a100 = EvaluateGemmModel(layers, counts,
                                      KernelClass::kShflBwTensorCore, 0.25,
                                      64, A100());
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
  const auto layers = TransformerLayers();
  const auto counts = TransformerLayerCounts();
  double prev = 0.0;
  for (double density : {0.5, 0.25, 0.15, 0.05}) {
    const auto r = EvaluateGemmModel(layers, counts,
                                     KernelClass::kShflBwTensorCore, density,
                                     64, V100());
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
  const auto layers = GnmtLayers();
  const auto counts = GnmtLayerCounts();
  for (double density : {0.5, 0.25, 0.15}) {
    const auto r = EvaluateGemmModel(layers, counts, KernelClass::kSputnik,
                                     density, 32, V100());
    ASSERT_TRUE(r);
    EXPECT_LT(r->speedup, 1.05) << density;
  }
  const auto r95 = EvaluateGemmModel(layers, counts, KernelClass::kSputnik,
                                     0.05, 32, V100());
  ASSERT_TRUE(r95);
  EXPECT_LT(r95->speedup, 1.8);
}

TEST(Evaluator, Balanced24ModestOnA100) {
  // §6.2: balanced 2:4 gives only 1.07x / 1.16x on A100 at 50%.
  const auto transformer = EvaluateGemmModel(
      TransformerLayers(), TransformerLayerCounts(),
      KernelClass::kBalanced24, 0.5, 32, A100());
  ASSERT_TRUE(transformer);
  EXPECT_GT(transformer->speedup, 0.95);
  EXPECT_LT(transformer->speedup, 1.4);
  // And it is beaten by Shfl-BW V=64 at the same 50% sparsity.
  const auto shflbw = EvaluateGemmModel(
      TransformerLayers(), TransformerLayerCounts(),
      KernelClass::kShflBwTensorCore, 0.5, 64, A100());
  ASSERT_TRUE(shflbw);
  EXPECT_GT(shflbw->speedup, transformer->speedup);
}

TEST(Evaluator, ConvModelOnlyForOurKernels) {
  const auto layers = ResNet50Layers();
  EXPECT_TRUE(EvaluateConvModel(layers, KernelClass::kShflBwTensorCore, 0.25,
                                32, V100())
                  .has_value());
  EXPECT_TRUE(EvaluateConvModel(layers, KernelClass::kVectorWiseTensorCore,
                                0.25, 32, V100())
                  .has_value());
  // §6.2: "The baselines all lack implementation for convolution."
  EXPECT_FALSE(EvaluateConvModel(layers, KernelClass::kSputnik, 0.25, 32,
                                 V100())
                   .has_value());
  EXPECT_FALSE(EvaluateConvModel(layers, KernelClass::kBsrTensorCore, 0.25,
                                 32, V100())
                   .has_value());
}

TEST(Evaluator, ResNetShflBwFasterThanDense) {
  const auto r = EvaluateConvModel(ResNet50Layers(),
                                   KernelClass::kShflBwTensorCore, 0.25, 32,
                                   V100());
  ASSERT_TRUE(r);
  EXPECT_GT(r->speedup, 1.0);
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
  using runtime::Format;
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
