// Fused-batch contract: Engine::RunBatched({s1..sK}) de-interleaved
// output j is bit-identical to a serial single-request Run(sj) — for
// every format the planner can select, at 1 / 2 / max threads, at any
// batch width, across mixed widths on one engine (no stale scratch
// leakage), and through conv layers (batch-block fusion) as well as
// GEMM layers (column-block fusion).
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "runtime/engine.h"

namespace shflbw {
namespace runtime {
namespace {

struct ThreadGuard {
  ~ThreadGuard() { SetParallelThreads(0); }
};

/// 1 / 2 / "max" — the hardware's own concurrency, plus 8 so multi-
/// worker schedules are exercised even on small CI boxes.
std::vector<int> ThreadSweep() {
  std::vector<int> sweep = {1, 2, 8};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 1 && hw != 2 && hw != 8) sweep.push_back(hw);
  return sweep;
}

/// One GEMM layer shaped so every format is feasible: m and k divisible
/// by V (BSR / VW / Shfl-BW) and k divisible by 4 (2:4).
ModelDesc SingleGemmModel() {
  ModelDesc model;
  model.name = "single-gemm";
  LayerDesc l;
  l.kind = LayerKind::kGemm;
  l.gemm = GemmLayerSpec{"gemm", /*m=*/32, /*n=*/16, /*k=*/32};
  l.repeat = 1;
  model.layers.push_back(l);
  return model;
}

/// Options pinning `format`, with the prune/arch knobs each format
/// needs to be feasible (2:4 requires the A100 at density exactly 0.5).
EngineOptions ForcedOptions(Format format) {
  EngineOptions opts;
  opts.planner.v = 8;
  opts.planner.force_format = format;
  if (format == Format::kBalanced24) {
    opts.planner.arch = GpuArch::kA100;
    opts.planner.density = 0.5;
  } else {
    opts.planner.density = 0.25;
  }
  return opts;
}

std::vector<std::uint64_t> Seeds(int count) {
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < count; ++i) {
    seeds.push_back(0xba7cULL + static_cast<std::uint64_t>(i) * 0x9e37ULL);
  }
  return seeds;
}

/// Serial width-1 references for `seeds` on a fresh single-threaded
/// engine of the same (model, options).
std::vector<Matrix<float>> SerialRefs(const ModelDesc& model,
                                      const EngineOptions& opts,
                                      const std::vector<std::uint64_t>& seeds) {
  SetParallelThreads(1);
  Engine engine(model, opts);
  std::vector<Matrix<float>> refs;
  for (std::uint64_t s : seeds) refs.push_back(engine.Run(s).output);
  return refs;
}

void ExpectFusedMatchesSerial(const ModelDesc& model,
                              const EngineOptions& opts, int max_width,
                              const std::string& label) {
  const std::vector<std::uint64_t> seeds = Seeds(max_width);
  const std::vector<Matrix<float>> refs = SerialRefs(model, opts, seeds);
  for (int threads : ThreadSweep()) {
    SetParallelThreads(threads);
    Engine engine(model, opts);
    for (int width : {1, 2, max_width}) {
      const std::vector<std::uint64_t> batch(seeds.begin(),
                                             seeds.begin() + width);
      BatchRunResult run = engine.RunBatched(batch);
      ASSERT_EQ(run.outputs.size(), static_cast<std::size_t>(width));
      EXPECT_EQ(run.width, width);
      // One fused launch per layer, not K.
      ASSERT_EQ(run.layers.size(), model.layers.size());
      for (int j = 0; j < width; ++j) {
        ASSERT_EQ(run.outputs[static_cast<std::size_t>(j)],
                  refs[static_cast<std::size_t>(j)])
            << label << ": request " << j << " of width " << width << " at "
            << threads << " thread(s)";
      }
    }
  }
}

TEST(RunBatched, BitIdenticalPerFormatAnyThreadsAnyWidth) {
  ThreadGuard guard;
  for (Format format : AllFormats()) {
    ExpectFusedMatchesSerial(SingleGemmModel(), ForcedOptions(format),
                             /*max_width=*/5, FormatName(format));
  }
}

TEST(RunBatched, BitIdenticalOnMultiLayerAutoPlan) {
  ThreadGuard guard;
  TransformerConfig cfg;
  cfg.d_model = 64;
  cfg.d_ff = 128;
  cfg.batch_tokens = 32;
  cfg.encoder_layers = 1;
  cfg.decoder_layers = 1;
  EngineOptions opts;
  opts.planner.density = 0.25;
  opts.planner.v = 8;
  ExpectFusedMatchesSerial(ModelDesc::Transformer(cfg), opts,
                           /*max_width=*/4, "transformer-auto");
}

/// Two small conv layers (ResNet-style 3x3 stack, out_c divisible by V
/// so the sparse conv formats are feasible) — the full ResNet50 is far
/// too slow to sweep widths x threads over.
ModelDesc TinyConvModel() {
  ModelDesc model;
  model.name = "tiny-conv";
  ConvLayerSpec c1{"conv1", /*batch=*/1, /*in_c=*/8, /*in_h=*/12,
                   /*in_w=*/12, /*out_c=*/16, /*kh=*/3, /*kw=*/3,
                   /*stride=*/1, /*pad=*/1, /*repeat=*/1};
  ConvLayerSpec c2{"conv2", /*batch=*/1, /*in_c=*/16, /*in_h=*/12,
                   /*in_w=*/12, /*out_c=*/8, /*kh=*/3, /*kw=*/3,
                   /*stride=*/2, /*pad=*/1, /*repeat=*/1};
  for (const ConvLayerSpec& c : {c1, c2}) {
    LayerDesc l;
    l.kind = LayerKind::kConv;
    l.conv = c;
    l.repeat = c.repeat;
    model.layers.push_back(l);
  }
  return model;
}

TEST(RunBatched, BitIdenticalThroughConvLayers) {
  ThreadGuard guard;
  const ModelDesc model = TinyConvModel();
  // Conv layers plan over dense / vw / shfl-bw; cover the auto plan and
  // every forced conv-capable format.
  EngineOptions opts;
  opts.planner.density = 0.25;
  opts.planner.v = 8;
  ExpectFusedMatchesSerial(model, opts, /*max_width=*/3, "conv-auto");
  for (Format format :
       {Format::kDense, Format::kVectorWise, Format::kShflBw}) {
    EngineOptions forced = opts;
    forced.planner.force_format = format;
    ExpectFusedMatchesSerial(model, forced, /*max_width=*/2,
                             "conv-" + FormatName(format));
  }
}

// Regression for scratch reuse across mixed batch widths: after a wide
// batch, a narrower batch on the SAME engine must re-shape (not merely
// re-capacity) the fused input scratch — stale tail columns from the
// wide batch would otherwise survive into the narrow launch and corrupt
// stats or RMS normalization.
TEST(RunBatched, MixedWidthsOnOneEngineNeverLeakStaleColumns) {
  ThreadGuard guard;
  const ModelDesc model = SingleGemmModel();
  EngineOptions opts;
  opts.planner.density = 0.25;
  opts.planner.v = 8;
  const std::vector<std::uint64_t> seeds = Seeds(6);
  const std::vector<Matrix<float>> refs = SerialRefs(model, opts, seeds);

  SetParallelThreads(2);
  Engine engine(model, opts);
  // Shrinking width sequence on one engine: 6 -> 3 -> 1 -> 4.
  for (int width : {6, 3, 1, 4}) {
    const std::vector<std::uint64_t> batch(seeds.begin(),
                                           seeds.begin() + width);
    BatchRunResult run = engine.RunBatched(batch);
    for (int j = 0; j < width; ++j) {
      ASSERT_EQ(run.outputs[static_cast<std::size_t>(j)],
                refs[static_cast<std::size_t>(j)])
          << "width " << width << " request " << j;
    }
  }
  // And Run() (width 1) after a wide batch sees no residue either.
  EXPECT_EQ(engine.Run(seeds[0]).output, refs[0]);
}

TEST(RunBatched, SteadyStatePacksNothingAndReportsFusedWork) {
  const ModelDesc model = SingleGemmModel();
  EngineOptions opts;
  opts.planner.density = 0.25;
  opts.planner.v = 8;
  Engine engine(model, opts);
  const BatchRunResult first = engine.RunBatched(Seeds(4));
  EXPECT_GT(first.packs_performed, 0u);
  const BatchRunResult second = engine.RunBatched(Seeds(4));
  EXPECT_EQ(second.packs_performed, 0u);
  ASSERT_EQ(second.layers.size(), 1u);
  // The single record covers the fused 4-wide launch: 4x the useful
  // FLOPs of a width-1 run of the same layer.
  const RunResult single = engine.Run(Seeds(1)[0]);
  EXPECT_DOUBLE_EQ(second.layers[0].useful_flops,
                   4.0 * single.layers[0].useful_flops);
}

/// Weight values `w` stores, counted from its packed representation:
/// m·k for dense, nnz for CSR, blocks·V² for BSR, m·k/2 for 2:4 and
/// kept vectors·V for VW and Shfl-BW.
double StoredValues(const PackedWeight& w) {
  switch (w.format) {
    case Format::kDense:
      return static_cast<double>(w.dense.size());
    case Format::kCsr:
      return w.csr.Nnz();
    case Format::kBsr:
      return static_cast<double>(w.bsr.NnzBlocks()) * w.bsr.block_size *
             w.bsr.block_size;
    case Format::kBalanced24:
      return 0.5 * w.balanced24.rows * w.balanced24.cols;
    case Format::kVectorWise:
      return static_cast<double>(w.vw.KeptVectors()) * w.vw.v;
    case Format::kShflBw:
      return static_cast<double>(w.shflbw.vw.KeptVectors()) * w.shflbw.v();
  }
  return 0;
}

// Each layer record's useful FLOPs come from the format's stats model;
// they must equal 2 x stored values x fused N on GEMM and conv layers.
TEST(RunBatched, UsefulFlopsAreTwiceStoredValuesTimesFusedN) {
  constexpr int kWidth = 3;
  TransformerConfig cfg;
  cfg.d_model = 64;
  cfg.d_ff = 128;
  cfg.batch_tokens = 32;
  cfg.encoder_layers = 1;
  cfg.decoder_layers = 1;
  ModelDesc resnet = ModelDesc::ResNet50(ResNet50Config{1, 32});
  // Only the first bottleneck stage: the Shfl-BW mask search over the
  // later stages' 2048-row filters takes about a minute.
  resnet.layers.resize(3);
  for (const ModelDesc& model : {ModelDesc::Transformer(cfg), resnet}) {
    const bool conv = model.layers.front().kind == LayerKind::kConv;
    for (Format format : AllFormats()) {
      if (conv && Ops(format).conv == nullptr) continue;
      auto cache = std::make_shared<PackedWeightCache>();
      Engine engine(model, ForcedOptions(format), cache);
      const BatchRunResult run = engine.RunBatched(Seeds(kWidth));
      ASSERT_EQ(run.layers.size(), model.layers.size());
      for (std::size_t i = 0; i < model.layers.size(); ++i) {
        const LayerPlan& lp = engine.Plan().layers[i];
        const PackedWeight& w = cache->GetOrPack(
            static_cast<int>(i), lp.format,
            []() -> const Matrix<float>& {
              throw Error("the run did not pack this layer");
            },
            lp.density, lp.v);
        ASSERT_EQ(w.format, format);
        const double fused_n =
            static_cast<double>(model.layers[i].GemmN()) * kWidth;
        EXPECT_EQ(run.layers[i].useful_flops,
                  2.0 * StoredValues(w) * fused_n)
            << model.name << " " << lp.name << " as " << FormatName(format);
      }
    }
  }
}

}  // namespace
}  // namespace runtime
}  // namespace shflbw
