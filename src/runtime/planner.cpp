#include "runtime/planner.h"

#include <algorithm>
#include <utility>

#include "arch/cost_model.h"
#include "common/check.h"
#include "quality/quality_evaluator.h"
#include "quality/quality_planner.h"

namespace shflbw {
namespace runtime {

void ValidatePlannerOptions(const PlannerOptions& opts) {
  SHFLBW_CHECK_MSG(opts.density > 0.0 && opts.density <= 1.0,
                   "PlannerOptions.density must be in (0, 1] — a kept "
                   "density, not a sparsity — got "
                       << opts.density);
  SHFLBW_CHECK_MSG(opts.v >= 1,
                   "PlannerOptions.v (vector/block granularity) must be "
                   ">= 1, got "
                       << opts.v);
  SHFLBW_CHECK_MSG(opts.autotune_top_k >= 1,
                   "PlannerOptions.autotune_top_k must be >= 1 (the number "
                   "of top candidates to time), got "
                       << opts.autotune_top_k);
  const QualityOptions& q = opts.quality;
  if (!q.enabled) return;
  SHFLBW_CHECK_MSG(!opts.force_format,
                   "PlannerOptions.force_format pins every layer, which "
                   "leaves the quality-aware search nothing to decide; "
                   "disable quality.enabled for pinned baselines");
  SHFLBW_CHECK_MSG(q.min_retained_ratio >= 0.0 && q.min_retained_ratio <= 1.0,
                   "QualityOptions.min_retained_ratio must be in [0, 1] "
                   "(a retained-score ratio), got "
                       << q.min_retained_ratio);
  SHFLBW_CHECK_MSG(!q.density_ladder.empty(),
                   "QualityOptions.density_ladder must name at least one "
                   "kept density to search");
  for (double d : q.density_ladder) {
    SHFLBW_CHECK_MSG(d > 0.0 && d <= 1.0,
                     "QualityOptions.density_ladder entries must be in "
                     "(0, 1], got "
                         << d);
  }
  for (int v : q.v_ladder) {
    SHFLBW_CHECK_MSG(v >= 1,
                     "QualityOptions.v_ladder entries must be >= 1, got "
                         << v);
  }
}

std::optional<double> ModeledLayerSeconds(const LayerDesc& l, Format format,
                                          const PlannerOptions& opts,
                                          std::string* why) {
  SHFLBW_CHECK_MSG(l.GemmM() > 0 && l.GemmN() > 0 && l.GemmK() > 0,
                   "bad layer shape " << l.GemmM() << "/" << l.GemmN() << "/"
                                      << l.GemmK());
  SHFLBW_CHECK_MSG(opts.density > 0.0 && opts.density <= 1.0,
                   "density " << opts.density);
  const GpuSpec& spec = GetGpuSpec(opts.arch);
  const FormatOps& ops = Ops(format);
  LayerModel model;
  if (l.kind == LayerKind::kConv) {
    model = ops.conv_model == nullptr
                ? LayerModel{std::nullopt, "no conv implementation"}
                : ops.conv_model(ToConvShape(l.conv), opts.density, opts.v,
                                 spec);
  } else if (!ops.HoldsDensity(opts.density)) {
    // A fixed-density format (2:4) selected at any other pruning budget
    // would execute a different model than the one asked for.
    if (why) *why = ops.FixedDensityRule();
    return std::nullopt;
  } else {
    model = ops.gemm_model(l.gemm.m, l.gemm.n, l.gemm.k, opts.density, opts.v,
                           spec);
  }
  if (!model.stats) {
    if (why) *why = model.why;
    return std::nullopt;
  }
  return CostModel(spec).Seconds(*model.stats);
}

namespace {

template <typename T>
std::vector<T> SortedUnique(std::vector<T> ladder) {
  std::sort(ladder.begin(), ladder.end());
  ladder.erase(std::unique(ladder.begin(), ladder.end()), ladder.end());
  return ladder;
}

/// Every (format, density, v) candidate of one layer: dense once (ratio
/// 1.0), 2:4 once (it holds only 0.5 and ignores V), and every other
/// sparse format once per (density, v) ladder point. `evaluator`, when
/// set, scores each feasible sparse candidate's mask; a speed-only plan
/// passes none and leaves the ratio at -1. Returned feasible first,
/// fastest first, stable within ties, so AllFormats order breaks them:
/// the order the selection, SelectAggregate and autotune's top-k window
/// key off.
std::vector<FormatCandidate> EnumerateCandidates(
    const LayerDesc& l, int index, const PlannerOptions& opts,
    const std::vector<double>& densities, const std::vector<int>& vs,
    quality::QualityEvaluator* evaluator) {
  std::vector<FormatCandidate> candidates;
  const auto add = [&](Format f, double density, int v, std::string why) {
    FormatCandidate c;
    c.format = f;
    c.density = density;
    c.v = v;
    if (f == Format::kDense) c.retained_ratio = 1.0;
    c.why = std::move(why);
    if (c.why.empty()) {
      PlannerOptions point = opts;
      point.density = density;
      point.v = v;
      if (const auto s = ModeledLayerSeconds(l, f, point, &c.why)) {
        c.feasible = true;
        c.modeled_s = *s;
        if (evaluator && f != Format::kDense) {
          c.retained_ratio = evaluator->LayerRetainedRatio(
              l, index, opts.quality.weight_seed, f, density, v);
        }
      }
    }
    candidates.push_back(std::move(c));
  };
  for (Format f : AllFormats()) {
    const FormatOps& ops = Ops(f);
    const bool excluded =
        std::find(opts.exclude.begin(), opts.exclude.end(), f) !=
        opts.exclude.end();
    if (opts.force_format && f != *opts.force_format) {
      add(f, f == Format::kDense ? 1.0 : opts.density, opts.v,
          "excluded by force_format");
    } else if (f == Format::kDense) {
      add(f, 1.0, opts.v, "");
    } else if (excluded) {
      add(f, opts.density, opts.v, "excluded by options");
    } else if (ops.fixed_density > 0) {
      // One candidate, not one per ladder point: duplicates would waste
      // autotune measurement slots on byte-identical packs.
      const bool on_ladder =
          std::any_of(densities.begin(), densities.end(),
                      [&](double d) { return ops.HoldsDensity(d); });
      add(f, ops.fixed_density, opts.v,
          on_ladder ? "" : ops.FixedDensityRule());
    } else {
      for (int v : vs) {
        for (double density : densities) add(f, density, v, "");
      }
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const FormatCandidate& a, const FormatCandidate& b) {
                     if (a.feasible != b.feasible) return a.feasible;
                     if (!a.feasible) return false;
                     return a.modeled_s < b.modeled_s;
                   });
  return candidates;
}

}  // namespace

void LayerPlan::Select(const FormatCandidate& c) {
  format = c.format;
  density = c.density;
  v = c.v;
  modeled_s = c.modeled_s;
  retained_ratio = c.retained_ratio;
}

ExecutionPlan PlanModel(const ModelDesc& model, const PlannerOptions& opts) {
  ValidatePlannerOptions(opts);
  const QualityOptions& q = opts.quality;
  // A speed-only plan is the quality search at the one ladder point
  // (opts.density, opts.v), with no retained-ratio evaluation and no
  // floor.
  const std::vector<double> densities =
      q.enabled ? SortedUnique(q.density_ladder)
                : std::vector<double>{opts.density};
  const std::vector<int> vs = q.enabled && !q.v_ladder.empty()
                                  ? SortedUnique(q.v_ladder)
                                  : std::vector<int>{opts.v};
  quality::QualityEvaluator* evaluator =
      q.enabled ? &quality::QualityEvaluator::Shared() : nullptr;

  ExecutionPlan plan;
  plan.model = model.name;
  plan.gpu = GetGpuSpec(opts.arch).name;
  plan.options = opts;
  for (std::size_t i = 0; i < model.layers.size(); ++i) {
    const LayerDesc& l = model.layers[i];
    const int index = static_cast<int>(i);
    LayerPlan lp;
    lp.name = l.Name();
    lp.layer = index;
    lp.repeat = l.repeat;
    const auto dense_s = ModeledLayerSeconds(l, Format::kDense, opts);
    SHFLBW_CHECK_MSG(dense_s.has_value(),
                     "dense must be modelable for layer " << lp.name);
    lp.modeled_dense_s = *dense_s;
    if (evaluator) {
      lp.total_score = evaluator->LayerTotalScore(l, index, q.weight_seed);
    }
    lp.candidates =
        EnumerateCandidates(l, index, opts, densities, vs, evaluator);
    plan.layers.push_back(std::move(lp));
  }

  if (q.enabled && q.floor == QualityOptions::Floor::kAggregate) {
    quality::SelectAggregate(plan, q.min_retained_ratio);
    return plan;
  }
  for (LayerPlan& lp : plan.layers) {
    // The fastest feasible candidate meeting the floor. Dense (ratio
    // 1.0) meets every floor, so only a force_format the layer cannot
    // run leaves nothing.
    const auto winner = std::find_if(
        lp.candidates.begin(), lp.candidates.end(),
        [&](const FormatCandidate& c) {
          return c.feasible &&
                 (!q.enabled || c.retained_ratio + quality::kFloorEps >=
                                    q.min_retained_ratio);
        });
    SHFLBW_CHECK_MSG(winner != lp.candidates.end(),
                     "no feasible format for layer " << lp.name);
    lp.Select(*winner);
  }
  return plan;
}

double ExecutionPlan::ModeledTotalSeconds() const {
  double total = 0.0;
  for (const LayerPlan& l : layers) total += l.modeled_s * l.repeat;
  return total;
}

double ExecutionPlan::ModeledDenseSeconds() const {
  double total = 0.0;
  for (const LayerPlan& l : layers) total += l.modeled_dense_s * l.repeat;
  return total;
}

double ExecutionPlan::AggregateRetainedRatio() const {
  double weighted = 0.0;
  double weight = 0.0;
  for (const LayerPlan& l : layers) {
    if (l.retained_ratio < 0.0 || l.total_score <= 0.0) return -1.0;
    const double w = l.total_score * l.repeat;
    weighted += w * l.retained_ratio;
    weight += w;
  }
  return weight > 0.0 ? weighted / weight : -1.0;
}

double ExecutionPlan::MinRetainedRatio() const {
  double min = 2.0;
  for (const LayerPlan& l : layers) {
    if (l.retained_ratio < 0.0) return -1.0;
    min = std::min(min, l.retained_ratio);
  }
  return layers.empty() ? -1.0 : min;
}

}  // namespace runtime
}  // namespace shflbw
