#include "quality/quality_planner.h"

#include <cstddef>
#include <vector>

#include "common/check.h"

namespace shflbw {
namespace quality {
namespace {

using runtime::ExecutionPlan;
using runtime::FormatCandidate;
using runtime::LayerPlan;

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

}  // namespace

void SelectAggregate(ExecutionPlan& plan, double floor) {
  std::vector<std::vector<std::size_t>> frontiers;
  std::vector<std::size_t> position(plan.layers.size(), 0);
  double weighted = 0.0;
  double weight = 0.0;
  for (LayerPlan& lp : plan.layers) {
    frontiers.push_back(ParetoFrontier(lp.candidates));
    SHFLBW_CHECK_MSG(!frontiers.back().empty(),
                     "no feasible candidate for layer " << lp.name);
    lp.Select(lp.candidates[frontiers.back().front()]);
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
    lp.Select(lp.candidates[frontier[pos]]);
    weighted += w * lp.retained_ratio;
  }
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
