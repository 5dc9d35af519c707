// Tests of the Algorithm 1 software-pipeline mechanics: the skewed
// metaload/load/MMA counters and the two-level prefetch invariant
// ("metadata of future weight tiles is loaded ahead of time", §4.4).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "kernels/spmm_shfl_bw.h"
#include "prune/shfl_bw_search.h"

namespace shflbw {
namespace {

std::vector<PipelineEvent> TraceFor(int m, int k, double density,
                                    const TileConfig& cfg) {
  Rng rng(101);
  const Matrix<float> w = rng.NormalMatrix(m, k);
  const ShflBwMatrix sm = PruneToShflBw(w, density, 8);
  const Matrix<float> b = rng.NormalMatrix(k, 16);
  std::vector<PipelineEvent> trace;
  SpmmShflBw(sm, b, cfg, &trace);
  return trace;
}

TEST(Pipeline, CountersAreSkewed) {
  TileConfig cfg;
  cfg.tk = 4;
  cfg.pipeline_stages = 2;
  cfg.meta_prefetch_stage = 4;
  const std::vector<PipelineEvent> trace = TraceFor(16, 64, 0.5, cfg);
  ASSERT_FALSE(trace.empty());
  for (const PipelineEvent& e : trace) {
    // Alg. 1 lines 1-3: metaload leads load by MetaPrefetchStage; load
    // leads MMA by the pipeline depth.
    EXPECT_EQ(e.metaload_step - e.load_step, cfg.meta_prefetch_stage);
    EXPECT_EQ(e.load_step - e.mma_step, cfg.pipeline_stages);
  }
}

TEST(Pipeline, MetadataAlwaysPrefetchedBeforeStitch) {
  for (int meta_stage : {1, 2, 4, 8}) {
    for (int pipe : {1, 2, 3}) {
      TileConfig cfg;
      cfg.tk = 4;
      cfg.pipeline_stages = pipe;
      cfg.meta_prefetch_stage = meta_stage;
      const std::vector<PipelineEvent> trace = TraceFor(16, 64, 0.5, cfg);
      for (const PipelineEvent& e : trace) {
        EXPECT_TRUE(e.meta_ready)
            << "meta_stage=" << meta_stage << " pipe=" << pipe;
      }
    }
  }
}

TEST(Pipeline, PrologueWarmsUpBeforeFirstMma) {
  TileConfig cfg;
  cfg.tk = 4;
  cfg.pipeline_stages = 2;
  cfg.meta_prefetch_stage = 4;
  const std::vector<PipelineEvent> trace = TraceFor(16, 64, 0.5, cfg);
  // The first events have mma_step < 0 (pipeline fill); the count of
  // such events equals the total skew.
  int prologue = 0;
  for (const PipelineEvent& e : trace) {
    if (e.mma_step < 0) ++prologue;
  }
  EXPECT_EQ(prologue, cfg.meta_prefetch_stage + cfg.pipeline_stages);
}

TEST(Pipeline, ResultsIndependentOfPipelineDepth) {
  // The pipeline is a latency-hiding mechanism; functional results must
  // be identical under any legal (stages >= 1) configuration.
  Rng rng(103);
  const Matrix<float> w = rng.NormalMatrix(32, 64);
  const ShflBwMatrix sm = PruneToShflBw(w, 0.25, 8);
  const Matrix<float> b = rng.NormalMatrix(64, 24);
  TileConfig base;
  base.tk = 8;
  base.pipeline_stages = 1;
  base.meta_prefetch_stage = 1;
  const Matrix<float> ref = SpmmShflBw(sm, b, base);
  for (int stages : {2, 3, 5}) {
    for (int meta : {1, 2, 4, 16}) {
      TileConfig cfg;
      cfg.tk = 8;
      cfg.pipeline_stages = stages;
      cfg.meta_prefetch_stage = meta;
      EXPECT_EQ(SpmmShflBw(sm, b, cfg), ref)
          << "stages=" << stages << " meta=" << meta;
    }
  }
}

TEST(Pipeline, ResultsIndependentOfTileSizes) {
  Rng rng(107);
  const Matrix<float> w = rng.NormalMatrix(32, 96);
  const ShflBwMatrix sm = PruneToShflBw(w, 0.3, 16);
  const Matrix<float> b = rng.NormalMatrix(96, 40);
  TileConfig base;
  const Matrix<float> ref = SpmmShflBw(sm, b, base);
  for (int tk : {1, 2, 4, 8, 16, 32}) {
    for (int tn : {8, 16, 64, 128}) {
      TileConfig cfg;
      cfg.tk = tk;
      cfg.tn = tn;
      EXPECT_EQ(SpmmShflBw(sm, b, cfg), ref)
          << "tk=" << tk << " tn=" << tn;
    }
  }
}

TEST(Pipeline, InvalidConfigRejected) {
  Rng rng(109);
  const Matrix<float> w = rng.NormalMatrix(16, 16);
  const ShflBwMatrix sm = PruneToShflBw(w, 0.5, 4);
  const Matrix<float> b = rng.NormalMatrix(16, 4);
  TileConfig cfg;
  cfg.pipeline_stages = 0;
  EXPECT_THROW(SpmmShflBw(sm, b, cfg), Error);
  cfg = TileConfig{};
  cfg.tk = 0;
  EXPECT_THROW(SpmmShflBw(sm, b, cfg), Error);
}

}  // namespace
}  // namespace shflbw
