// Whole-model evaluation on the runtime surface, as the paper figures
// use it: a plan pinned to one format exists exactly when
// ModeledLayerSeconds can time every layer in that format, its totals
// are those per-layer seconds summed in layer order, and the
// QualityEvaluator's retained importance keeps Table 1's ordering
// (Shfl-BW > vector-wise > block-wise) over a set of proxy weights.
#include <cstdint>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/check.h"
#include "quality/quality_evaluator.h"
#include "runtime/planner.h"

namespace shflbw {
namespace runtime {
namespace {

PlannerOptions Pinned(Format f, double density, int v, GpuArch arch) {
  PlannerOptions opts;
  opts.force_format = f;
  opts.density = density;
  opts.v = v;
  opts.arch = arch;
  return opts;
}

TEST(Evaluator, ConvModelOnlyForOurKernels) {
  const ModelDesc resnet = ModelDesc::ResNet50();
  for (Format f : {Format::kShflBw, Format::kVectorWise}) {
    EXPECT_NO_THROW(
        (void)PlanModel(resnet, Pinned(f, 0.25, 32, GpuArch::kV100)))
        << FormatName(f);
  }
  // §6.2: "The baselines all lack implementation for convolution."
  for (Format f : {Format::kCsr, Format::kBsr}) {
    EXPECT_THROW((void)PlanModel(resnet, Pinned(f, 0.25, 32, GpuArch::kV100)),
                 Error)
        << FormatName(f);
  }
}

TEST(Evaluator, PinnedPlanTotalsAreTheLayerSecondsSummed) {
  const ModelDesc transformer = ModelDesc::Transformer();
  std::set<Format> planned;
  for (GpuArch arch : {GpuArch::kV100, GpuArch::kA100}) {
    for (double density : {0.25, 0.5}) {
      for (Format f : AllFormats()) {
        SCOPED_TRACE(FormatName(f) + " @ " + GetGpuSpec(arch).name + " " +
                     std::to_string(density));
        const PlannerOptions opts = Pinned(f, density, 64, arch);
        PlannerOptions dense;
        dense.arch = arch;
        bool timed = true;
        double sparse_s = 0.0, dense_s = 0.0;
        for (const LayerDesc& l : transformer.layers) {
          const auto s = ModeledLayerSeconds(l, f, opts);
          const auto d = ModeledLayerSeconds(l, Format::kDense, dense);
          ASSERT_TRUE(d);
          timed = timed && s.has_value();
          if (s) sparse_s += *s * l.repeat;
          dense_s += *d * l.repeat;
        }
        if (!timed) {
          EXPECT_THROW((void)PlanModel(transformer, opts), Error);
          continue;
        }
        const ExecutionPlan plan = PlanModel(transformer, opts);
        // A build that contracts multiply-adds may fuse one sum and not
        // the other, so totals compare to a few ulps.
        EXPECT_DOUBLE_EQ(plan.ModeledTotalSeconds(), sparse_s);
        EXPECT_DOUBLE_EQ(plan.ModeledDenseSeconds(), dense_s);
        planned.insert(f);
      }
    }
  }
  EXPECT_EQ(planned.size(), AllFormats().size());
}

TEST(Evaluator, QualityOrderingAcrossPatterns) {
  // Table 1 at the model level: retained importance of three 128 x 128
  // proxy weights, relative to unstructured pruning at the same density.
  quality::QualityEvaluator evaluator;
  const auto relative = [&](Format f) {
    double retained = 0.0, unstructured = 0.0;
    for (std::uint64_t seed = 400; seed < 403; ++seed) {
      LayerDesc l;
      l.gemm = {"proxy", 128, 1, 128};
      const double total = evaluator.LayerTotalScore(l, 0, seed);
      retained += evaluator.LayerRetainedRatio(l, 0, seed, f, 0.2, 32) * total;
      unstructured +=
          evaluator.LayerRetainedRatio(l, 0, seed, Format::kCsr, 0.2, 32) *
          total;
    }
    return retained / unstructured;
  };
  const double shflbw = relative(Format::kShflBw);
  const double vw = relative(Format::kVectorWise);
  const double bw = relative(Format::kBsr);
  EXPECT_LE(shflbw, 1.0);
  EXPECT_GT(shflbw, vw);
  EXPECT_GT(vw, bw);
}

}  // namespace
}  // namespace runtime
}  // namespace shflbw
