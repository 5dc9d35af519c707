// Tests for the beyond-NVIDIA extension targets (§7) and the
// multi-stream launch model.
#include <string>

#include <gtest/gtest.h>

#include "arch/cost_model.h"
#include "common/check.h"
#include "runtime/planner.h"

namespace shflbw {
namespace {

TEST(Extension, AcceleratorsRegistered) {
  ASSERT_EQ(ExtensionAccelerators().size(), 2u);
  EXPECT_EQ(GetGpuSpec(GpuArch::kCdna1).name, "CDNA1");
  EXPECT_EQ(GetGpuSpec(GpuArch::kAmx).name, "AMX");
  EXPECT_EQ(ParseGpuArch("MI100"), GpuArch::kCdna1);
  EXPECT_EQ(ParseGpuArch("amx"), GpuArch::kAmx);
}

TEST(Extension, NotPartOfPaperEvaluationSet) {
  for (const GpuSpec& spec : AllGpus()) {
    EXPECT_NE(spec.arch, GpuArch::kCdna1);
    EXPECT_NE(spec.arch, GpuArch::kAmx);
  }
}

TEST(Extension, EfficiencyFallsBackToV100Column) {
  const Efficiency v100 =
      EfficiencyFor(KernelClass::kShflBwTensorCore, GpuArch::kV100);
  const Efficiency cdna =
      EfficiencyFor(KernelClass::kShflBwTensorCore, GpuArch::kCdna1);
  EXPECT_DOUBLE_EQ(v100.compute, cdna.compute);
  EXPECT_DOUBLE_EQ(v100.dram, cdna.dram);
}

TEST(Extension, ShflBwProjectsSpeedupOnBothTargets) {
  runtime::LayerDesc l;
  l.gemm = {"fc", 4096, 512, 1024};
  runtime::PlannerOptions opts;
  opts.density = 0.25;
  opts.v = 64;
  for (const GpuSpec& spec : ExtensionAccelerators()) {
    opts.arch = spec.arch;
    const auto sparse_s =
        runtime::ModeledLayerSeconds(l, runtime::Format::kShflBw, opts);
    const auto dense_s =
        runtime::ModeledLayerSeconds(l, runtime::Format::kDense, opts);
    ASSERT_TRUE(sparse_s && dense_s) << spec.name;
    EXPECT_GT(*dense_s / *sparse_s, 1.0) << spec.name;
  }
}

TEST(Extension, Balanced24StillA100Only) {
  runtime::LayerDesc l;
  l.gemm = {"fc", 2048, 128, 2048};
  runtime::PlannerOptions opts;
  opts.density = 0.5;
  opts.arch = GpuArch::kCdna1;
  std::string why;
  EXPECT_FALSE(
      runtime::ModeledLayerSeconds(l, runtime::Format::kBalanced24, opts, &why)
          .has_value());
  EXPECT_EQ(why, "sparse tensor-core is A100-only");
}

TEST(LaunchModel, MultiStreamOverheadShape) {
  // launches/streams amortization + per-stream sync: more streams help
  // until the sync term dominates.
  const GpuSpec& spec = GetGpuSpec(GpuArch::kV100);
  const CostModel model(spec);
  KernelStats s;
  s.kernel_class = KernelClass::kTilewise;
  s.tensor_core = true;
  s.issued_macs = 1;
  s.dram_read_bytes = 1;
  s.l2_read_bytes = 1;
  s.num_kernel_launches = 64;
  s.num_streams = 8;
  const double t8 = model.Estimate(s).launch_s;
  s.num_streams = 1;
  // Single stream pays all launches serially.
  const double t1 = model.Estimate(s).launch_s;
  EXPECT_LT(t8, t1);
  EXPECT_NEAR(t8, spec.kernel_launch_overhead * (64.0 / 8 + 8), 1e-12);
}

}  // namespace
}  // namespace shflbw
