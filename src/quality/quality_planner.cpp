#include "quality/quality_planner.h"

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "quality/quality_evaluator.h"

namespace shflbw {
namespace quality {
namespace {

using runtime::ExecutionPlan;
using runtime::Format;
using runtime::FormatCandidate;
using runtime::LayerDesc;
using runtime::LayerPlan;
using runtime::ModelDesc;
using runtime::PlannerOptions;
using runtime::QualityOptions;

// Floor comparisons tolerate double round-off, never real violations.
constexpr double kFloorEps = 1e-12;

std::vector<double> DensityLadder(const QualityOptions& q) {
  std::vector<double> ladder = q.density_ladder;
  std::sort(ladder.begin(), ladder.end());
  ladder.erase(std::unique(ladder.begin(), ladder.end()), ladder.end());
  return ladder;
}

std::vector<int> VLadder(const PlannerOptions& opts) {
  std::vector<int> ladder = opts.quality.v_ladder;
  if (ladder.empty()) ladder.push_back(opts.v);
  std::sort(ladder.begin(), ladder.end());
  ladder.erase(std::unique(ladder.begin(), ladder.end()), ladder.end());
  return ladder;
}

/// Enumerates every (format, density, v) candidate for one layer:
/// dense once (ratio 1.0), each sparse format across the ladders, with
/// feasibility and modelled seconds from the same cost model the
/// speed-only planner uses and the retained ratio from the evaluator.
std::vector<FormatCandidate> EnumerateCandidates(
    const LayerDesc& l, int index, const PlannerOptions& opts,
    const std::vector<double>& densities, const std::vector<int>& vs,
    QualityEvaluator& evaluator, double dense_s) {
  std::vector<FormatCandidate> candidates;
  for (Format f : runtime::AllFormats()) {
    if (f == Format::kDense) {
      FormatCandidate c;
      c.format = f;
      c.density = 1.0;
      c.v = opts.v;
      c.feasible = true;
      c.modeled_s = dense_s;
      c.retained_ratio = 1.0;
      candidates.push_back(std::move(c));
      continue;
    }
    const bool excluded =
        std::find(opts.exclude.begin(), opts.exclude.end(), f) !=
        opts.exclude.end();
    if (excluded) {
      FormatCandidate c;
      c.format = f;
      c.density = opts.density;
      c.v = opts.v;
      c.why = "excluded by options";
      candidates.push_back(std::move(c));
      continue;
    }
    const runtime::FormatOps& ops = runtime::Ops(f);
    if (ops.fixed_density > 0) {
      // A fixed-density format (2:4) ignores V: one candidate, not one
      // per ladder point (duplicates would waste autotune measurement
      // slots on byte-identical packs).
      FormatCandidate c;
      c.format = f;
      c.density = ops.fixed_density;
      c.v = opts.v;
      if (std::find(densities.begin(), densities.end(), ops.fixed_density) ==
          densities.end()) {
        std::ostringstream why;
        why << ops.fixed_density << " not in density_ladder ("
            << ops.FixedDensityRule() << ")";
        c.why = why.str();
      } else {
        PlannerOptions point = opts;
        point.density = ops.fixed_density;
        const auto s = ModeledLayerSeconds(l, f, point, &c.why);
        if (s) {
          c.feasible = true;
          c.modeled_s = *s;
          c.retained_ratio =
              evaluator.LayerRetainedRatio(l, index, opts.quality.weight_seed,
                                           f, ops.fixed_density, opts.v);
        }
      }
      candidates.push_back(std::move(c));
      continue;
    }
    for (int v : vs) {
      for (double density : densities) {
        FormatCandidate c;
        c.format = f;
        c.density = density;
        c.v = v;
        PlannerOptions point = opts;
        point.density = density;
        point.v = v;
        const auto s = ModeledLayerSeconds(l, f, point, &c.why);
        if (s) {
          c.feasible = true;
          c.modeled_s = *s;
          c.retained_ratio = evaluator.LayerRetainedRatio(
              l, index, opts.quality.weight_seed, f, density, v);
        }
        candidates.push_back(std::move(c));
      }
    }
  }
  // Same presentation order as the speed-only planner: feasible first,
  // fastest first, stable within ties — the order autotune's top-k
  // window and the greedy upgrade below both key off.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const FormatCandidate& a, const FormatCandidate& b) {
                     if (a.feasible != b.feasible) return a.feasible;
                     if (!a.feasible) return false;
                     return a.modeled_s < b.modeled_s;
                   });
  return candidates;
}

void Select(LayerPlan& plan, const FormatCandidate& c) {
  plan.format = c.format;
  plan.density = c.density;
  plan.v = c.v;
  plan.modeled_s = c.modeled_s;
  plan.retained_ratio = c.retained_ratio;
}

/// Quality/latency Pareto frontier of a layer's feasible candidates:
/// indices into `candidates` (already sorted fastest-first) where the
/// retained ratio strictly improves. frontier[0] is the layer's fastest
/// candidate; the last entry has the layer's best reachable ratio
/// (always 1.0 — dense is feasible everywhere).
std::vector<std::size_t> ParetoFrontier(
    const std::vector<FormatCandidate>& candidates) {
  std::vector<std::size_t> frontier;
  double best_ratio = -1.0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!candidates[i].feasible) break;  // sorted: feasible prefix
    if (candidates[i].retained_ratio > best_ratio) {
      frontier.push_back(i);
      best_ratio = candidates[i].retained_ratio;
    }
  }
  return frontier;
}

/// kAggregate selection: start every layer at its fastest candidate,
/// then buy retained importance where it costs the least modelled time
/// until the importance-weighted mean meets the floor. Deterministic:
/// the most efficient upgrade wins, ties to the lowest layer index.
void SelectAggregate(ExecutionPlan& plan, double floor) {
  std::vector<std::vector<std::size_t>> frontiers;
  std::vector<std::size_t> position(plan.layers.size(), 0);
  double weighted = 0.0;
  double weight = 0.0;
  for (LayerPlan& lp : plan.layers) {
    frontiers.push_back(ParetoFrontier(lp.candidates));
    SHFLBW_CHECK_MSG(!frontiers.back().empty(),
                     "no feasible candidate for layer " << lp.name);
    Select(lp, lp.candidates[frontiers.back().front()]);
    const double w = lp.total_score * lp.repeat;
    weighted += w * lp.retained_ratio;
    weight += w;
  }
  SHFLBW_CHECK_MSG(weight > 0.0, "model carries no importance mass");

  while (weighted / weight + kFloorEps < floor) {
    int best_layer = -1;
    double best_efficiency = -1.0;
    bool best_free = false;
    for (std::size_t i = 0; i < plan.layers.size(); ++i) {
      const std::vector<std::size_t>& frontier = frontiers[i];
      if (position[i] + 1 >= frontier.size()) continue;  // at best ratio
      const LayerPlan& lp = plan.layers[i];
      const FormatCandidate& cur = lp.candidates[frontier[position[i]]];
      const FormatCandidate& next = lp.candidates[frontier[position[i] + 1]];
      const double gain = lp.total_score * lp.repeat *
                          (next.retained_ratio - cur.retained_ratio);
      const double cost = (next.modeled_s - cur.modeled_s) * lp.repeat;
      const bool free = cost <= 0.0;  // equal-time quality is always taken
      const double efficiency = free ? 0.0 : gain / cost;
      if (best_layer < 0 || (free && !best_free) ||
          (free == best_free && !free && efficiency > best_efficiency)) {
        best_layer = static_cast<int>(i);
        best_efficiency = efficiency;
        best_free = free;
      }
    }
    // Every frontier ends at ratio 1.0 (dense), so the aggregate can
    // always reach any floor <= 1 before upgrades run out.
    SHFLBW_CHECK_MSG(best_layer >= 0,
                     "aggregate floor " << floor << " unreachable");
    LayerPlan& lp = plan.layers[static_cast<std::size_t>(best_layer)];
    const std::vector<std::size_t>& frontier =
        frontiers[static_cast<std::size_t>(best_layer)];
    std::size_t& pos = position[static_cast<std::size_t>(best_layer)];
    const double w = lp.total_score * lp.repeat;
    weighted -= w * lp.retained_ratio;
    ++pos;
    Select(lp, lp.candidates[frontier[pos]]);
    weighted += w * lp.retained_ratio;
  }
}

}  // namespace

ExecutionPlan PlanModelQualityAware(const ModelDesc& model,
                                    const PlannerOptions& opts) {
  ValidatePlannerOptions(opts);
  SHFLBW_CHECK_MSG(opts.quality.enabled,
                   "PlanModelQualityAware requires options.quality.enabled");
  const std::vector<double> densities = DensityLadder(opts.quality);
  const std::vector<int> vs = VLadder(opts);
  QualityEvaluator& evaluator = QualityEvaluator::Shared();

  ExecutionPlan plan;
  plan.model = model.name;
  plan.gpu = GetGpuSpec(opts.arch).name;
  plan.options = opts;
  for (std::size_t i = 0; i < model.layers.size(); ++i) {
    const LayerDesc& l = model.layers[i];
    LayerPlan lp;
    lp.name = l.Name();
    lp.layer = static_cast<int>(i);
    lp.repeat = l.repeat;
    const auto dense_s = ModeledLayerSeconds(l, Format::kDense, opts);
    SHFLBW_CHECK_MSG(dense_s.has_value(),
                     "dense must be modelable for layer " << lp.name);
    lp.modeled_dense_s = *dense_s;
    lp.total_score =
        evaluator.LayerTotalScore(l, static_cast<int>(i),
                                  opts.quality.weight_seed);
    lp.candidates = EnumerateCandidates(l, static_cast<int>(i), opts,
                                        densities, vs, evaluator, *dense_s);
    plan.layers.push_back(std::move(lp));
  }

  if (opts.quality.floor == QualityOptions::Floor::kPerLayer) {
    for (LayerPlan& lp : plan.layers) {
      // Latency-minimal candidate meeting the floor; candidates are
      // fastest-first, so the first qualifying one wins. Dense (ratio
      // 1.0) always qualifies — the guaranteed fallback.
      const FormatCandidate* winner = nullptr;
      for (const FormatCandidate& c : lp.candidates) {
        if (!c.feasible) break;
        if (c.retained_ratio + kFloorEps >= opts.quality.min_retained_ratio) {
          winner = &c;
          break;
        }
      }
      SHFLBW_CHECK_MSG(winner != nullptr,
                       "no candidate meets the quality floor for layer "
                           << lp.name << " (dense should always qualify)");
      Select(lp, *winner);
    }
  } else {
    SelectAggregate(plan, opts.quality.min_retained_ratio);
  }
  return plan;
}

std::vector<runtime::PlannerOptions> LadderPlannerOptions(
    const runtime::PlannerOptions& base, const std::vector<double>& floors) {
  SHFLBW_CHECK_MSG(!floors.empty(), "quality ladder needs at least one floor");
  for (std::size_t i = 0; i < floors.size(); ++i) {
    SHFLBW_CHECK_MSG(floors[i] > 0 && floors[i] <= 1.0,
                     "ladder floor " << floors[i] << " must be in (0, 1]");
    SHFLBW_CHECK_MSG(i == 0 || floors[i] < floors[i - 1],
                     "ladder floors must be strictly descending; got "
                         << floors[i - 1] << " then " << floors[i]);
  }
  std::vector<runtime::PlannerOptions> ladder;
  ladder.reserve(floors.size());
  for (const double floor : floors) {
    runtime::PlannerOptions level = base;
    level.quality.enabled = true;
    // Per-layer semantics on purpose: a served response can then be
    // checked against its level's floor via MinRetainedRatio — an
    // aggregate floor would make "this response retained >= X" unstateable.
    level.quality.floor = runtime::QualityOptions::Floor::kPerLayer;
    level.quality.min_retained_ratio = floor;
    ladder.push_back(std::move(level));
  }
  return ladder;
}

}  // namespace quality
}  // namespace shflbw
