// Training / fine-tuning loop for the Table 1 pipeline:
//   train dense -> prune with a pattern -> fine-tune with frozen masks ->
//   measure test accuracy. Supports ADMM pre-regularization and
//   grow-and-prune fine-tuning schedules (§6.1 pruning settings).
#pragma once

#include <cstdint>
#include <functional>

#include "nn/dataset.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"

namespace shflbw {
namespace nn {

struct TrainOptions {
  int epochs = 30;
  int batch_size = 64;
  SgdOptions sgd;
  std::uint64_t shuffle_seed = 3;
};

/// (scores, density) -> binary mask for one layer (pattern-specific).
using LayerMasker =
    std::function<Matrix<float>(const Matrix<float>&, double)>;

class Trainer {
 public:
  Trainer(Mlp& model, const Dataset& data);

  /// Trains for opts.epochs; returns final train loss.
  double Train(const TrainOptions& opts);

  /// Prunes every prunable layer with the masker at `density` (scores =
  /// |W|), installing frozen masks.
  void PruneModel(const LayerMasker& masker, double density);

  /// Grow-and-prune fine-tuning: `rounds` rounds of re-masking along a
  /// cubic density schedule, each followed by `epochs_per_round` epochs.
  void GrowAndPruneFineTune(const LayerMasker& masker, double final_density,
                            int rounds, double grow_ratio,
                            const TrainOptions& opts);

  double TestAccuracy();

 private:
  Mlp& model_;
  const Dataset& data_;
};

}  // namespace nn
}  // namespace shflbw
