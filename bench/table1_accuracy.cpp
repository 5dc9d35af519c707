// Table 1: quality of pruned models under different sparse patterns at
// 80% and 90% sparsity.
//
// Two substitutions for the paper's trained Transformer/GNMT/ResNet50
// (see DESIGN.md §0):
//  (a) retained-importance proxy scores on synthetic weights with
//      realistic row-cluster structure, calibrated per model so the
//      dense point matches the paper's metric scale;
//  (b) a REAL train -> prune -> fine-tune experiment on a small MLP,
//      reporting actual test accuracy per pattern.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/evaluator.h"
#include "model/weight_synth.h"
#include "nn/trainer.h"
#include "prune/block_wise.h"
#include "prune/shfl_bw_search.h"
#include "prune/vector_wise_prune.h"

namespace shflbw {
namespace {

struct ModelProxy {
  const char* name;
  double dense_score;
  double sensitivity;  // calibrated: see EXPERIMENTS.md
  int m, k;
};

// Sensitivity = how strongly each model's metric reacts to the pattern
// penalty (relative retention vs unstructured at equal density), fit to
// one Table 1 anchor per model (BW V=32 @80%): Transformer and ResNet50
// barely react, GNMT craters (paper: 13.83 BLEU). Orderings between
// patterns are calibration-free.
const std::vector<ModelProxy> kModels{
    {"Transformer (BLEU)", 27.6, 0.06, 256, 256},
    {"GNMT (BLEU)", 24.6, 0.52, 256, 128},
    {"ResNet50 (Top-1 %)", 76.5, 0.02, 128, 256},
};

struct PatternRow {
  const char* name;
  runtime::Format format;
  int v;
};

const std::vector<PatternRow> kPatterns{
    {"BW,  V=32", runtime::Format::kBsr, 32},
    {"VW,  V=32", runtime::Format::kVectorWise, 32},
    {"Shfl-BW, V=32", runtime::Format::kShflBw, 32},
    {"Shfl-BW, V=64", runtime::Format::kShflBw, 64},
};

void ProxyTable() {
  bench::Section(
      "Table 1(a): retained-importance proxy (paper's metric scale)");
  std::printf("%-10s %-15s", "sparsity", "pattern");
  for (const ModelProxy& m : kModels) std::printf(" %20s", m.name);
  std::printf("\n");
  for (double sparsity : {0.80, 0.90}) {
    for (const PatternRow& p : kPatterns) {
      std::printf("%9.0f%% %-15s", sparsity * 100, p.name);
      for (const ModelProxy& m : kModels) {
        std::vector<Matrix<float>> weights;
        for (int i = 0; i < 3; ++i) {
          SynthWeightOptions opt;
          opt.seed = 9000 + i * 131 + m.m;
          weights.push_back(SynthesizeWeights(m.m, m.k, opt));
        }
        const QualityResult q =
            EvaluateQuality(weights, p.format, 1.0 - sparsity, p.v,
                            m.dense_score, m.sensitivity);
        std::printf(" %20.2f", q.proxy_score);
      }
      std::printf("\n");
    }
  }
}

void TrainedMlpTable() {
  bench::Section(
      "Table 1(b): REAL accuracy — MLP trained, pruned per pattern\n"
      "'pruned' = one-shot prune, no recovery (isolates the pattern\n"
      "penalty); 'fine-tuned' = +grow-and-prune fine-tuning. Mean of 3 "
      "seeds.");
  nn::DatasetOptions dopt;
  dopt.num_classes = 8;
  dopt.dim = 32;
  dopt.train_per_class = 120;
  dopt.test_per_class = 40;
  const nn::Dataset data = nn::MakeClusterDataset(dopt);

  nn::TrainOptions topt;
  topt.epochs = 25;
  topt.batch_size = 48;
  nn::TrainOptions ft = topt;
  ft.epochs = 6;

  constexpr int kSeeds = 3;
  const std::vector<int> dims{32, 96, 96, 8};
  const double sparsity = 0.85;

  // Dense baseline (averaged over the same seeds).
  double dense_acc = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    nn::Mlp model(dims, /*seed=*/55 + seed);
    nn::Trainer trainer(model, data);
    trainer.Train(topt);
    dense_acc += trainer.TestAccuracy();
  }
  dense_acc /= kSeeds;
  std::printf("%-18s %12s %12s   (85%% sparsity)\n", "pattern", "pruned",
              "fine-tuned");
  std::printf("%-18s %11.1f%% (dense baseline)\n", "dense",
              dense_acc * 100);

  struct MlpPattern {
    const char* name;
    nn::LayerMasker masker;
  };
  const int v = 16;  // scaled to the MLP's 96-wide hidden layers
  const std::vector<MlpPattern> patterns{
      {"BW,  V=16",
       [&](const Matrix<float>& s, double d) {
         return BlockWiseMask(s, d, v);
       }},
      {"VW,  V=16",
       [&](const Matrix<float>& s, double d) {
         return VectorWiseMask(s, d, v);
       }},
      {"Shfl-BW, V=16",
       [&](const Matrix<float>& s, double d) {
         return ShflBwSearch(s, d, v).mask;
       }},
      {"Shfl-BW, V=32",
       [&](const Matrix<float>& s, double d) {
         return ShflBwSearch(s, d, 32).mask;
       }},
  };
  for (const MlpPattern& p : patterns) {
    double pruned_acc = 0, tuned_acc = 0;
    for (int seed = 0; seed < kSeeds; ++seed) {
      nn::Mlp model(dims, /*seed=*/55 + seed);
      nn::Trainer trainer(model, data);
      trainer.Train(topt);
      trainer.PruneModel(p.masker, 1.0 - sparsity);
      pruned_acc += trainer.TestAccuracy();
      trainer.GrowAndPruneFineTune(p.masker, 1.0 - sparsity, /*rounds=*/2,
                                   /*grow_ratio=*/0.3, ft);
      tuned_acc += trainer.TestAccuracy();
    }
    std::printf("%-18s %11.1f%% %11.1f%%\n", p.name,
                pruned_acc / kSeeds * 100, tuned_acc / kSeeds * 100);
  }
}

void Run() {
  bench::Title(
      "Table 1 — pruned-model quality by sparse pattern (80% / 90%)\n"
      "Expected ordering (paper): Shfl-BW > VW > BW at equal V;\n"
      "Shfl-BW V=64 competitive with (often above) VW at V=32.");
  ProxyTable();
  TrainedMlpTable();
}

}  // namespace
}  // namespace shflbw

int main() {
  shflbw::Run();
  return 0;
}
