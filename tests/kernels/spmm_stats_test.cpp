// Tests of the kernel traffic/instruction models — the quantities the
// paper's §3.2.2 analysis is about.
#include <string>

#include <gtest/gtest.h>

#include "arch/cost_model.h"
#include "common/check.h"
#include "kernels/gemm_dense.h"
#include "kernels/spmm_balanced24.h"
#include "kernels/spmm_bsr.h"
#include "kernels/spmm_csr.h"
#include "kernels/spmm_shfl_bw.h"
#include "kernels/spmm_tilewise.h"
#include "kernels/spmm_vector_sparse.h"

namespace shflbw {
namespace {

const GpuSpec& Spec() { return GetGpuSpec(GpuArch::kV100); }

TEST(SpmmStats, UsefulFlopsScaleWithDensity) {
  const KernelStats half = SpmmShflBwStats(2048, 128, 2048, 0.5, 64, Spec());
  const KernelStats quarter =
      SpmmShflBwStats(2048, 128, 2048, 0.25, 64, Spec());
  EXPECT_NEAR(half.useful_flops / quarter.useful_flops, 2.0, 0.01);
}

TEST(SpmmStats, ShflBwL2TrafficScalesInverselyWithV) {
  // The data-reuse core claim: B-operand L2 traffic divides by V.
  const KernelStats v8 = SpmmVectorWiseStats(2048, 128, 2048, 0.25, 8, Spec());
  const KernelStats v64 =
      SpmmVectorWiseStats(2048, 128, 2048, 0.25, 64, Spec());
  EXPECT_GT(v8.l2_read_bytes / v64.l2_read_bytes, 5.0);
}

TEST(SpmmStats, ShflBwVsVectorWiseOnlyRowIndexMetadata) {
  const KernelStats vw = SpmmVectorWiseStats(2048, 128, 2048, 0.25, 64, Spec());
  const KernelStats sb = SpmmShflBwStats(2048, 128, 2048, 0.25, 64, Spec());
  EXPECT_DOUBLE_EQ(sb.metadata_bytes - vw.metadata_bytes, 4.0 * 2048);
  EXPECT_DOUBLE_EQ(sb.useful_flops, vw.useful_flops);
  EXPECT_DOUBLE_EQ(sb.issued_macs, vw.issued_macs);
  EXPECT_DOUBLE_EQ(sb.l2_read_bytes - vw.l2_read_bytes, 4.0 * 2048);
}

TEST(SpmmStats, ReorderedWriteBackOverheadNegligible) {
  // §6.2: "Shfl-BW is in average 0.97-1.02x faster [than] our
  // vector-wise implementation, showing that row shuffling involves
  // negligible overhead" — modelled time ratio must sit in that band.
  const CostModel model(Spec());
  for (double alpha : {0.5, 0.25, 0.15, 0.05}) {
    for (int v : {32, 64}) {
      const double vw_s =
          model.Seconds(SpmmVectorWiseStats(4096, 128, 1024, alpha, v, Spec()));
      const double sb_s =
          model.Seconds(SpmmShflBwStats(4096, 128, 1024, alpha, v, Spec()));
      const double ratio = vw_s / sb_s;
      EXPECT_GT(ratio, 0.95) << "alpha=" << alpha << " v=" << v;
      EXPECT_LT(ratio, 1.05) << "alpha=" << alpha << " v=" << v;
    }
  }
}

TEST(SpmmStats, SputnikGatherTrafficScalesWithNnz) {
  const double nnz1 = 0.25 * 2048 * 2048;
  const double nnz2 = 0.5 * 2048 * 2048;
  const KernelStats a = SpmmSputnikStats(2048, 128, 2048, nnz1, Spec());
  const KernelStats b = SpmmSputnikStats(2048, 128, 2048, nnz2, Spec());
  EXPECT_NEAR(b.l2_read_bytes / a.l2_read_bytes, 2.0, 0.1);
}

TEST(SpmmStats, SputnikHasNoTensorCore) {
  const KernelStats s =
      SpmmSputnikStats(2048, 128, 2048, 1e6, Spec());
  EXPECT_FALSE(s.tensor_core);
}

TEST(SpmmStats, Balanced24LoadsFullActivation) {
  // §1: "redundant data still need to be loaded from DRAM before
  // effective operands are selected out" — B traffic equals dense.
  const KernelStats sparse = SpmmBalanced24Stats(2048, 128, 2048, Spec());
  const KernelStats dense = GemmTensorCoreStats(2048, 128, 2048, Spec());
  // B flows through L2 once per row tile, exactly as in the dense
  // kernel: no reduction despite the 2x compute cut.
  const double b_l2 = 2048.0 * 128 * 2 * (2048.0 / 128);
  EXPECT_GE(sparse.l2_read_bytes, b_l2);
  EXPECT_NEAR(sparse.issued_macs / dense.issued_macs, 0.5, 0.01);
}

TEST(SpmmStats, TilewiseLaunchesPerGroup) {
  const KernelStats s = SpmmTilewiseStats(4096, 128, 1024, 0.25, Spec());
  EXPECT_EQ(s.num_kernel_launches, 4096 / kTilewiseV);
  EXPECT_EQ(s.num_streams, kTilewiseStreams);
}

TEST(SpmmStats, UniformKeptModelsRejectPartialRowGroups) {
  // The shape-level VW-family models spread kept vectors over m/V row
  // groups; an m that V does not divide would model a truncated matrix
  // (useful FLOPs for 96 of 100 rows, none at m = 4), so it throws.
  const auto expect_named_error = [](const auto& model, const char* needle) {
    try {
      (void)model();
      ADD_FAILURE() << "expected an error mentioning '" << needle << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_named_error(
      [] { return SpmmVectorSparseStats(100, 128, 256, 0.25, Spec()); },
      "m=100 not divisible by v=8");
  expect_named_error(
      [] { return SpmmVectorSparseStats(4, 128, 256, 0.25, Spec()); },
      "m=4 not divisible by v=8");
  expect_named_error(
      [] { return SpmmTilewiseStats(100, 128, 2048, 0.5, Spec()); },
      "m=100 not divisible by v=128");
  expect_named_error(
      [] { return SpmmShflBwStats(100, 128, 2048, 0.5, 32, Spec()); },
      "m=100 not divisible by v=32");

  // Whole row groups model every row, writes and useful FLOPs alike.
  const KernelStats s = SpmmVectorSparseStats(2048, 128, 2048, 0.5, Spec());
  EXPECT_DOUBLE_EQ(s.useful_flops, 2.0 * (0.5 * 2048) * 2048 * 128);
  EXPECT_DOUBLE_EQ(s.dram_write_bytes, 2048.0 * 128 * kHalfBytes);
}

TEST(SpmmStats, MalformedTileConfigThrowsNamedError) {
  // A zero tk or tn used to reach a float-to-int conversion of inf/NaN
  // in the VW-family model (undefined behaviour); every field is now
  // checked by name. pipeline_stages = 0 stays legal: the Algorithm 1
  // stages ablation models an unpipelined kernel.
  const auto expect_named_error = [](const TileConfig& cfg,
                                     const char* needle) {
    try {
      (void)SpmmShflBwStats(1024, 128, 1024, 0.25, 32, Spec(), cfg);
      ADD_FAILURE() << "expected an error mentioning '" << needle << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  TileConfig cfg;
  cfg.tk = 0;
  expect_named_error(cfg, "TileConfig.tk must be >= 1, got 0");
  cfg = TileConfig{};
  cfg.tn = 0;
  expect_named_error(cfg, "TileConfig.tn must be >= 1, got 0");
  cfg.tn = -5;
  expect_named_error(cfg, "TileConfig.tn must be >= 1, got -5");
  cfg = TileConfig{};
  cfg.meta_prefetch_stage = 0;
  expect_named_error(cfg, "TileConfig.meta_prefetch_stage must be >= 1");
  cfg = TileConfig{};
  cfg.pipeline_stages = -1;
  expect_named_error(cfg, "TileConfig.pipeline_stages must be >= 0, got -1");

  cfg = TileConfig{};
  cfg.pipeline_stages = 0;
  EXPECT_EQ(SpmmShflBwStats(1024, 128, 1024, 0.25, 32, Spec(), cfg)
                .pipeline_stages,
            0);
}

TEST(SpmmStats, PaddedMacsAtLeastUseful) {
  for (double alpha : {0.03, 0.1, 0.33}) {
    const KernelStats s = SpmmShflBwStats(512, 100, 512, alpha, 32, Spec());
    EXPECT_GE(s.issued_macs, s.useful_flops / 2.0 - 1e-6) << alpha;
  }
}

TEST(SpmmStats, BsrBlockSizeRecorded) {
  const KernelStats s = SpmmBsrStats(512, 128, 512, 64, 32, Spec());
  EXPECT_EQ(s.block_size, 32);
  EXPECT_TRUE(s.tensor_core);
}

TEST(SpmmStats, OperationIntensityOrdering) {
  // §3.2: dense-tileable patterns expose higher FLOP/byte than
  // unstructured at the same density.
  const double nnz = 0.25 * 2048 * 2048;
  const double shflbw =
      SpmmShflBwStats(2048, 128, 2048, 0.25, 64, Spec()).OperationIntensity();
  const double sputnik =
      SpmmSputnikStats(2048, 128, 2048, nnz, Spec()).OperationIntensity();
  EXPECT_GT(shflbw, sputnik);
}

class DensitySweep : public ::testing::TestWithParam<double> {};

TEST_P(DensitySweep, ModeledTimeMonotoneInDensity) {
  // More non-zeros can never be faster under the same kernel.
  const double alpha = GetParam();
  const CostModel model(Spec());
  const double t1 =
      model.Seconds(SpmmShflBwStats(2048, 128, 2048, alpha, 64, Spec()));
  const double t2 = model.Seconds(
      SpmmShflBwStats(2048, 128, 2048, std::min(1.0, alpha * 2), 64, Spec()));
  EXPECT_LE(t1, t2 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Alphas, DensitySweep,
                         ::testing::Values(0.02, 0.05, 0.1, 0.2, 0.25, 0.4,
                                           0.5));

}  // namespace
}  // namespace shflbw
