// The planning phase of the runtime: times every (format, density, V)
// candidate of every layer with ModeledLayerSeconds, the same model the
// Fig. 2/6 figures add up (bench/bench_paper.cpp), and selects the
// fastest, producing an ExecutionPlan the engine packs and executes.
// One search serves both kinds of plan: a speed-only plan searches the
// single point (density, v) of PlannerOptions; with quality options enabled
// it searches the ladders, scores each candidate's mask, and selects
// under a retained-importance floor (src/quality/). Either way planning
// is pure and deterministic — the same model + planner options always
// yield the same plan — so a plan can be computed once and reused
// across Run calls; the optional empirical autotune pass (engine.h)
// re-ranks the top candidates by measured time afterwards.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/gpu_spec.h"
#include "runtime/format.h"
#include "runtime/model_desc.h"

namespace shflbw {
namespace runtime {

/// Options of the quality-aware planning pass (src/quality/): joint
/// per-layer (format, density, V) selection constrained by a
/// retained-importance floor — the Table 1 accuracy proxy wired into
/// the planner. When `enabled`, PlanModel searches `density_ladder` ×
/// `v_ladder` per layer and picks the latency-minimal combination whose
/// mask keeps at least `min_retained_ratio` of the layer's importance
/// (RetainedScoreRatio on the synthesized master weights), falling back
/// to dense when nothing sparse qualifies.
struct QualityOptions {
  /// Master switch. Off = the classic speed-only ranking at the global
  /// (density, v) of PlannerOptions.
  bool enabled = false;
  /// The quality floor: minimum retained-score ratio in [0, 1]. 1.0
  /// forces all-dense (no lossy mask retains everything); 0.0 degrades
  /// to pure speed ranking over the ladder.
  double min_retained_ratio = 0.9;
  /// Floor semantics: kPerLayer requires EVERY layer to retain at
  /// least the floor; kAggregate requires the importance-weighted mean
  /// over the model (weights = repeat × total layer importance) to
  /// meet the floor, letting unimportant layers trade quality for
  /// speed.
  enum class Floor { kPerLayer, kAggregate };
  Floor floor = Floor::kPerLayer;
  /// Per-layer kept densities the search may choose from (the planner
  /// sorts and deduplicates). Dense (density 1.0, ratio 1.0) is always
  /// a candidate and need not be listed.
  std::vector<double> density_ladder{0.125, 0.25, 0.375, 0.5};
  /// Vector/block granularities the search may choose from; empty means
  /// {PlannerOptions::v}.
  std::vector<int> v_ladder;
  /// Base seed of the synthetic master weights the evaluator scores
  /// (layer i uses weight_seed + i). Must match the engine's
  /// EngineOptions::weight_seed so the scored mask is exactly the mask
  /// the pack phase applies; Engine::Plan overrides it with its own
  /// seed automatically.
  std::uint64_t weight_seed = 0x5eedULL;
};

struct PlannerOptions {
  /// Target kept density for sparse formats (alpha of §6.1).
  double density = 0.25;
  /// Vector / block granularity V for BSR, VW and Shfl-BW. The paper
  /// evaluates V in [32, 128]; below 16 the 16-row MMA granularity
  /// leaves tensor-core lanes idle and the vector formats rarely win.
  /// Layers whose m (or k, for BSR) V does not divide fall back to the
  /// other formats.
  int v = 32;
  /// GPU whose cost model drives the ranking.
  GpuArch arch = GpuArch::kV100;
  /// Pin every layer to one format (the all-dense baseline engine).
  /// Incompatible with quality.enabled: a pinned format leaves the
  /// constrained search nothing to decide, so combining them throws.
  std::optional<Format> force_format;
  /// Formats the selector must not use — a hard blocklist honoured by
  /// both the speed-only ranking and the quality-aware search. For
  /// graded accuracy control prefer `quality` (below), which keeps a
  /// format selectable wherever its mask retains enough importance
  /// instead of banning it outright. kDense is never excluded — it is
  /// the universal fallback every layer can execute.
  std::vector<Format> exclude;
  /// Empirical re-ranking of the top candidates (engine-side; the pure
  /// planner ignores these).
  bool autotune = false;
  int autotune_top_k = 2;
  /// Quality-aware planning (src/quality/): constrain selection by the
  /// Table 1 retained-importance proxy and search per-layer densities /
  /// granularities instead of the single global (density, v) above.
  QualityOptions quality;
};

/// Validates `opts` (density ∈ (0, 1], v ≥ 1, autotune_top_k ≥ 1, plus
/// the quality knobs when enabled), throwing shflbw::Error with a
/// descriptive message on the first violation. PlanModel calls this on
/// entry; exposed so callers can fail fast before building a model.
void ValidatePlannerOptions(const PlannerOptions& opts);

/// One (layer, format, density, v) evaluation. Dense and 2:4 yield one
/// candidate each, every other format one per (density, v) ladder point
/// — one per format in a speed-only plan, whose ladder is the global
/// (density, v). A quality-aware plan also fills `retained_ratio`.
struct FormatCandidate {
  Format format = Format::kDense;
  double density = 1.0;  // kept density this candidate packs at
  int v = 32;            // granularity this candidate packs at
  bool feasible = false;
  double modeled_s = 0;   // cost-model seconds; valid iff feasible
  double measured_s = 0;  // autotune wall-clock seconds; 0 = not timed
  /// Retained-score ratio of this candidate's mask (Table 1 proxy);
  /// 1.0 for dense, < 0 when not evaluated (speed-only planning).
  double retained_ratio = -1;
  std::string why;  // reason when infeasible
};

/// The decision for one layer. (density, v) are per layer — the engine
/// packs each layer at ITS plan values, not a global knob, which is
/// what lets the quality-aware search mix e.g. a 12.5%-density Shfl-BW
/// attention layer with a 50%-density BSR projection in one plan.
struct LayerPlan {
  std::string name;
  int layer = 0;  // index into ModelDesc::layers
  int repeat = 1;
  Format format = Format::kDense;  // the winner
  double density = 1.0;            // winner's kept density (1.0 = dense)
  int v = 32;                      // winner's granularity
  double modeled_s = 0;            // winner's modelled seconds
  double modeled_dense_s = 0;      // dense baseline, same layer
  /// Winner's retained-score ratio; 1.0 for dense, < 0 when the plan
  /// was speed-only and quality was never evaluated.
  double retained_ratio = -1;
  /// Total magnitude importance of the layer's master weight (the
  /// aggregate-floor weight); 0 when quality was never evaluated.
  double total_score = 0;
  bool autotuned = false;  // winner picked by measurement
  /// Every evaluated candidate, feasible first, ranked fastest-first.
  std::vector<FormatCandidate> candidates;

  /// Makes `c` the winner: copies its format, density, v, modelled
  /// seconds and retained ratio.
  void Select(const FormatCandidate& c);
};

/// A compiled schedule: one decision per model layer.
struct ExecutionPlan {
  std::string model;
  std::string gpu;
  PlannerOptions options;
  std::vector<LayerPlan> layers;

  /// Repeat-weighted modelled seconds of the plan / of all-dense.
  [[nodiscard]] double ModeledTotalSeconds() const;
  [[nodiscard]] double ModeledDenseSeconds() const;
  /// Importance-weighted mean retained ratio over the model (weights =
  /// repeat × total_score) — the aggregate-floor metric. Returns -1
  /// when any layer lacks a quality evaluation (speed-only plans).
  [[nodiscard]] double AggregateRetainedRatio() const;
  /// Smallest per-layer retained ratio, or -1 when any layer lacks a
  /// quality evaluation.
  [[nodiscard]] double MinRetainedRatio() const;
};

/// Cost-model seconds of `format` on layer `l` at (opts.density,
/// opts.v) on opts.arch, or nullopt with the reason when the format
/// cannot run the layer — the one place a (layer, format, density, V)
/// becomes modelled time, for plans and figures alike. The model is
/// Ops(format).conv_model for conv layers (dense, vector-wise and
/// Shfl-BW only, §6.2) and gemm_model otherwise, after the fixed
/// density check (2:4 requires exactly 0.5). Throws shflbw::Error on a
/// non-positive shape or a density outside (0, 1].
std::optional<double> ModeledLayerSeconds(const LayerDesc& l, Format format,
                                          const PlannerOptions& opts,
                                          std::string* why = nullptr);

/// Plans the whole model (deterministic).
ExecutionPlan PlanModel(const ModelDesc& model, const PlannerOptions& opts);

}  // namespace runtime
}  // namespace shflbw
