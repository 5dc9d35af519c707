// Quality evaluation for planning: scores what a (format, density, V)
// mask would do to a layer's importance BEFORE committing the plan.
//
// For each candidate the evaluator synthesizes the layer's master
// weight (model/weight_synth.h — the same deterministic stand-in for a
// trained checkpoint the engine packs), applies the format's mask from
// the runtime::Ops table, and reports RetainedScoreRatio — the Table 1
// quality proxy (docs/REPRODUCTION.md §2). PackWeight prunes through the
// same table entry, so the ratio a plan reports is by construction the
// ratio of the mask the engine will execute.
//
// Evaluations are memoized per (shape, seed, format, density, V), and
// synthesized importance scores per (shape, seed), so a planning sweep
// over a density ladder — or a benchmark sweeping many quality floors —
// pays for each mask search once. Deterministic: the same key always
// returns the same ratio. Thread-safe the same way PackedWeightCache
// is: one mutex, evaluation runs under it, concurrent planners with
// the same keys evaluate at most once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <tuple>

#include "common/matrix.h"
#include "common/thread_annotations.h"
#include "runtime/format.h"
#include "runtime/model_desc.h"

namespace shflbw {
namespace quality {

class QualityEvaluator {
 public:
  /// Retained-score ratio of the mask `format` keeps on the synthetic
  /// m x k master seeded `seed`, pruned at (density, v). Dense is
  /// exactly 1.0 (nothing pruned). The caller is responsible for only
  /// asking feasible combinations (shape divisible by v, 2:4 at
  /// density 0.5 etc.) — the mask throws shflbw::Error otherwise,
  /// exactly as it does at pack time.
  double RetainedRatio(int m, int k, std::uint64_t seed,
                       runtime::Format format, double density, int v)
      SHFLBW_EXCLUDES(mu_);

  /// Convenience over a model layer: master shape (GemmM x GemmK),
  /// seed = weight_seed + layer — the exact weight Engine::MasterWeight
  /// synthesizes and PackWeight prunes.
  double LayerRetainedRatio(const runtime::LayerDesc& l, int layer,
                            std::uint64_t weight_seed,
                            runtime::Format format, double density, int v);

  /// Total magnitude importance of the layer's master (the denominator
  /// of the ratio) — the per-layer weight of the aggregate floor.
  double LayerTotalScore(const runtime::LayerDesc& l, int layer,
                         std::uint64_t weight_seed) SHFLBW_EXCLUDES(mu_);

  /// Mask evaluations actually performed (i.e. memoization misses).
  std::size_t Evaluations() const SHFLBW_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return evaluations_;
  }
  /// Distinct (shape, seed) masters synthesized so far.
  std::size_t ScoreMatrices() const SHFLBW_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return scores_.size();
  }
  void Clear() SHFLBW_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    scores_.clear();
    ratios_.clear();
  }

  /// Process-wide shared instance. Planning goes through this one so
  /// every plan of the same model — an engine re-planning, a benchmark
  /// sweeping quality floors, server replicas — reuses each mask
  /// evaluation instead of re-running the Shfl-BW search per plan.
  static QualityEvaluator& Shared();

 private:
  struct ScoresEntry {
    Matrix<float> scores;  // |W| of the synthesized master
    double total = 0;      // sum of scores
  };
  using ScoresKey = std::tuple<int, int, std::uint64_t>;  // m, k, seed
  // m, k, seed, format, density, v
  using RatioKey = std::tuple<int, int, std::uint64_t, int, double, int>;

  /// Synthesizes (or fetches) the master's importance scores.
  const ScoresEntry& Scores(int m, int k, std::uint64_t seed)
      SHFLBW_REQUIRES(mu_);

  /// Rank kLockRankEvaluator: the mask searches under it are serial
  /// (no ParallelFor) and touch no other locked subsystem.
  mutable Mutex mu_{kLockRankEvaluator};
  std::map<ScoresKey, ScoresEntry> scores_ SHFLBW_GUARDED_BY(mu_);
  std::map<RatioKey, double> ratios_ SHFLBW_GUARDED_BY(mu_);
  std::size_t evaluations_ SHFLBW_GUARDED_BY(mu_) = 0;
};

}  // namespace quality
}  // namespace shflbw
