#include "nn/trainer.h"

#include <algorithm>
#include <numeric>
#include <random>

#include "common/check.h"
#include "prune/grow_and_prune.h"
#include "prune/importance.h"

namespace shflbw {
namespace nn {
namespace {

Matrix<float> GatherColumns(const Matrix<float>& x,
                            const std::vector<int>& idx, int begin,
                            int end) {
  Matrix<float> out(x.rows(), end - begin);
  for (int j = begin; j < end; ++j) {
    for (int r = 0; r < x.rows(); ++r) {
      out(r, j - begin) = x(r, idx[j]);
    }
  }
  return out;
}

std::vector<int> GatherLabels(const std::vector<int>& y,
                              const std::vector<int>& idx, int begin,
                              int end) {
  std::vector<int> out(static_cast<std::size_t>(end - begin));
  for (int j = begin; j < end; ++j) out[j - begin] = y[idx[j]];
  return out;
}

}  // namespace

Trainer::Trainer(Mlp& model, const Dataset& data)
    : model_(model), data_(data) {}

double Trainer::Train(const TrainOptions& opts) {
  Sgd sgd(model_.Layers(), opts.sgd);
  std::mt19937_64 gen(opts.shuffle_seed);
  const int n = data_.train_x.cols();
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  double last_loss = 0.0;
  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), gen);
    double epoch_loss = 0.0;
    int batches = 0;
    for (int b = 0; b < n; b += opts.batch_size) {
      const int e = std::min(n, b + opts.batch_size);
      const Matrix<float> x = GatherColumns(data_.train_x, order, b, e);
      const std::vector<int> y = GatherLabels(data_.train_y, order, b, e);
      const Matrix<float> logits = model_.Forward(x);
      LossResult lr = SoftmaxCrossEntropy(logits, y);
      model_.Backward(lr.grad_logits);
      sgd.Step();
      epoch_loss += lr.loss;
      ++batches;
    }
    last_loss = epoch_loss / std::max(1, batches);
  }
  return last_loss;
}

void Trainer::PruneModel(const LayerMasker& masker, double density) {
  for (Linear* l : model_.PrunableLayers()) {
    const Matrix<float> scores = MagnitudeScores(l->weights());
    l->SetMask(masker(scores, density));
  }
}

void Trainer::GrowAndPruneFineTune(const LayerMasker& masker,
                                   double final_density, int rounds,
                                   double grow_ratio,
                                   const TrainOptions& opts) {
  const std::vector<double> schedule =
      GrowAndPruneDensities(1.0, final_density, rounds);
  for (double density : schedule) {
    for (Linear* l : model_.PrunableLayers()) {
      const Matrix<float> scores = MagnitudeScores(l->weights());
      const Matrix<float> current =
          l->mask() ? *l->mask()
                    : Matrix<float>(scores.rows(), scores.cols(), 1.0f);
      l->SetMask(
          GrowAndPruneRound(scores, current, density, grow_ratio, masker));
    }
    Train(opts);
  }
}

double Trainer::TestAccuracy() {
  return Accuracy(model_.Forward(data_.test_x), data_.test_y);
}

}  // namespace nn
}  // namespace shflbw
