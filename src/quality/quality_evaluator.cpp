#include "quality/quality_evaluator.h"

#include "common/check.h"
#include "model/weight_synth.h"
#include "prune/importance.h"

namespace shflbw {
namespace quality {

const QualityEvaluator::ScoresEntry& QualityEvaluator::Scores(
    int m, int k, std::uint64_t seed) {
  const ScoresKey key{m, k, seed};
  auto it = scores_.find(key);
  if (it == scores_.end()) {
    SynthWeightOptions synth;
    synth.seed = seed;
    ScoresEntry entry;
    entry.scores = MagnitudeScores(SynthesizeWeights(m, k, synth));
    for (float s : entry.scores.storage()) entry.total += s;
    it = scores_.emplace(key, std::move(entry)).first;
  }
  return it->second;
}

double QualityEvaluator::RetainedRatio(int m, int k, std::uint64_t seed,
                                       runtime::Format format, double density,
                                       int v) {
  if (format == runtime::Format::kDense) return 1.0;
  SHFLBW_CHECK_MSG(density > 0.0 && density <= 1.0,
                   "kept density must be in (0, 1], got " << density);
  SHFLBW_CHECK_MSG(v >= 1, "granularity v must be >= 1, got " << v);
  const RatioKey key{m, k, seed, static_cast<int>(format), density, v};
  MutexLock lock(mu_);
  auto it = ratios_.find(key);
  if (it != ratios_.end()) return it->second;

  // The mask PackWeight applies, by construction: both ask Ops(format)
  // for the magnitude mask at (density, v).
  const ScoresEntry& entry = Scores(m, k, seed);
  const Matrix<float> mask =
      runtime::Ops(format).mask(entry.scores, density, v).mask;
  const double ratio = RetainedScoreRatio(entry.scores, mask);
  ++evaluations_;
  ratios_.emplace(key, ratio);
  return ratio;
}

double QualityEvaluator::LayerRetainedRatio(const runtime::LayerDesc& l,
                                            int layer,
                                            std::uint64_t weight_seed,
                                            runtime::Format format,
                                            double density, int v) {
  return RetainedRatio(l.GemmM(), l.GemmK(),
                       weight_seed + static_cast<std::uint64_t>(layer),
                       format, density, v);
}

double QualityEvaluator::LayerTotalScore(const runtime::LayerDesc& l,
                                         int layer,
                                         std::uint64_t weight_seed) {
  MutexLock lock(mu_);
  return Scores(l.GemmM(), l.GemmK(),
                weight_seed + static_cast<std::uint64_t>(layer))
      .total;
}

QualityEvaluator& QualityEvaluator::Shared() {
  static QualityEvaluator* instance = new QualityEvaluator();
  return *instance;
}

}  // namespace quality
}  // namespace shflbw
