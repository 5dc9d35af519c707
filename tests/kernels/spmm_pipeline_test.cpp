// Tests of the Algorithm 1 software-pipeline model (PipelineSchedule):
// the skewed metaload/load/MMA counters and the two-level prefetch
// invariant ("metadata of future weight tiles is loaded ahead of time",
// §4.4).
#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "kernels/spmm_shfl_bw.h"
#include "prune/shfl_bw_search.h"

namespace shflbw {
namespace {

/// The schedule of the first tile (row group 0) of a pruned layer.
std::vector<PipelineEvent> TraceFor(int m, int k, double density,
                                    const TileConfig& cfg) {
  Rng rng(101);
  const Matrix<float> w = rng.NormalMatrix(m, k);
  const ShflBwMatrix sm = PruneToShflBw(w, density, 8);
  return PipelineSchedule(sm.vw.KeptColumnsInGroup(0), cfg);
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

TEST(Pipeline, EveryStepIsStitchedAndMultipliedOnceInOrder) {
  // The pipeline only hides latency: at any legal depth every k-step is
  // stitched once and multiplied once, in ascending order, which is why
  // the CPU execute can walk the kept vectors directly.
  const int kept = 37;
  for (int stages : {1, 2, 3, 5}) {
    for (int meta : {1, 2, 4, 16}) {
      TileConfig cfg;
      cfg.tk = 8;
      cfg.pipeline_stages = stages;
      cfg.meta_prefetch_stage = meta;
      std::vector<int> loads, mmas;
      for (const PipelineEvent& e : PipelineSchedule(kept, cfg)) {
        if (e.load_step >= 0 && e.load_step < 5) loads.push_back(e.load_step);
        if (e.mma_step >= 0) mmas.push_back(e.mma_step);
      }
      const std::vector<int> steps = {0, 1, 2, 3, 4};  // ceil(37 / 8)
      EXPECT_EQ(loads, steps) << "stages=" << stages << " meta=" << meta;
      EXPECT_EQ(mmas, steps) << "stages=" << stages << " meta=" << meta;
    }
  }
}

TEST(Pipeline, StepsCoverEveryKeptVectorAtAnyTk) {
  const int kept = 29;
  for (int tk : {1, 2, 4, 8, 16, 32}) {
    TileConfig cfg;
    cfg.tk = tk;
    int covered = 0;
    int steps = 0;
    for (const PipelineEvent& e : PipelineSchedule(kept, cfg)) {
      if (e.mma_step < 0) continue;
      covered += std::min(tk, kept - e.mma_step * tk);
      ++steps;
    }
    EXPECT_EQ(steps, (kept + tk - 1) / tk) << "tk=" << tk;
    EXPECT_EQ(covered, kept) << "tk=" << tk;
  }
}

TEST(Pipeline, InvalidConfigRejected) {
  TileConfig cfg;
  cfg.pipeline_stages = 0;
  EXPECT_THROW((void)PipelineSchedule(8, cfg), Error);
  cfg = TileConfig{};
  cfg.tk = 0;
  EXPECT_THROW((void)PipelineSchedule(8, cfg), Error);
  cfg = TileConfig{};
  cfg.tn = 0;
  EXPECT_THROW((void)PipelineSchedule(8, cfg), Error);
  cfg = TileConfig{};
  cfg.meta_prefetch_stage = 0;
  EXPECT_THROW((void)PipelineSchedule(8, cfg), Error);
  EXPECT_THROW((void)PipelineSchedule(-1, TileConfig{}), Error);
  // A skew whose counters would overflow int.
  cfg = TileConfig{};
  cfg.meta_prefetch_stage = std::numeric_limits<int>::max();
  EXPECT_THROW((void)PipelineSchedule(8, cfg), Error);
}

}  // namespace
}  // namespace shflbw
