// Quality-aware selection: the accuracy half of the paper's
// accuracy-vs-speed trade-off (Table 1) wired into the runtime planner.
//
// PlanModel (runtime/planner.h) enumerates each layer's (format,
// density, V) candidates with one search for every kind of plan; with
// options.quality enabled it searches the density and V ladders, scores
// each candidate's mask with the QualityEvaluator (retained-score ratio
// — the Table 1 proxy), and picks LATENCY-MINIMAL candidates that still
// meet the caller's quality floor. Dense (ratio 1.0) is always a
// candidate, so every layer has a fallback and the search never fails:
// an unreachable floor simply degrades the plan toward all-dense.
//
// Two floor semantics (QualityOptions::Floor):
//   kPerLayer   every layer's ratio >= floor — selection decomposes
//               per layer (PlanModel takes each layer's fastest
//               candidate meeting the floor);
//   kAggregate  the importance-weighted mean ratio (weights = repeat ×
//               total layer importance) >= floor — SelectAggregate
//               below starts from each layer's fastest candidate and
//               greedily buys quality where it is cheapest: repeatedly
//               upgrade the layer with the best (importance gained) /
//               (modelled seconds added) step along its quality/latency
//               Pareto frontier until the aggregate meets the floor.
//
// Both are deterministic: same model + options -> bit-identical plan
// (ties break on the stable candidate order), enforced by
// tests/quality/quality_test.cpp and bench_quality's exit code.
#pragma once

#include <vector>

#include "runtime/planner.h"

namespace shflbw {
namespace quality {

/// Floor comparisons tolerate double round-off, never real violations:
/// a retained ratio r meets floor f when r + kFloorEps >= f.
inline constexpr double kFloorEps = 1e-12;

/// kAggregate selection over `plan`, whose layers carry their ranked
/// candidates and total_score: starts every layer at its fastest
/// candidate, then buys retained importance where it costs the least
/// modelled time until the importance-weighted mean meets `floor`. The
/// most efficient upgrade wins, ties to the lowest layer index.
void SelectAggregate(runtime::ExecutionPlan& plan, double floor);

/// Expands `base` into one PlannerOptions per ladder floor: each entry
/// is quality-enabled at that floor with per-layer semantics (the floor
/// a served response's min retained ratio can be checked against),
/// inheriting base's density/V ladders and every other knob. `floors`
/// must be non-empty, strictly descending, each in (0, 1] — level 0 is
/// normal service, later levels are the progressively sparser/faster
/// plans an overloaded server degrades onto (BatchServer's quality
/// ladder). Throws shflbw::Error on an invalid ladder.
std::vector<runtime::PlannerOptions> LadderPlannerOptions(
    const runtime::PlannerOptions& base, const std::vector<double>& floors);

}  // namespace quality
}  // namespace shflbw
