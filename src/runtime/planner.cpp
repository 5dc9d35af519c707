#include "runtime/planner.h"

#include <algorithm>
#include <utility>

#include "arch/cost_model.h"
#include "common/check.h"
#include "kernels/kernel_registry.h"
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
  const GpuSpec& spec = GetGpuSpec(opts.arch);
  const FormatOps& ops = Ops(format);
  const auto reject = [why](std::string reason) -> std::optional<double> {
    if (why) *why = std::move(reason);
    return std::nullopt;
  };
  if (l.kind == LayerKind::kConv) {
    if (ops.conv_stats == nullptr) return reject("no conv implementation");
    const auto stats =
        ops.conv_stats(ToConvShape(l.conv), opts.density, opts.v, spec);
    if (!stats) return reject("out_c not divisible by V");
    return CostModel(spec).Seconds(*stats);
  }
  // A fixed-density format (2:4) selected at any other pruning budget
  // would execute a different model than the one asked for.
  if (!ops.HoldsDensity(opts.density)) return reject(ops.FixedDensityRule());
  const double density = format == Format::kDense ? 1.0
                          : ops.fixed_density > 0 ? ops.fixed_density
                                                  : opts.density;
  const auto seconds = LayerSeconds(
      ops.kernel_class, {l.gemm.m, l.gemm.n, l.gemm.k, density, opts.v}, spec);
  if (!seconds) return reject(ops.infeasible(spec));
  return seconds;
}

LayerPlan PlanLayer(const LayerDesc& l, int index,
                    const PlannerOptions& opts) {
  LayerPlan plan;
  plan.name = l.Name();
  plan.layer = index;
  plan.repeat = l.repeat;

  const auto dense_s = ModeledLayerSeconds(l, Format::kDense, opts);
  SHFLBW_CHECK_MSG(dense_s.has_value(),
                   "dense must be modelable for layer " << plan.name);
  plan.modeled_dense_s = *dense_s;

  for (Format f : AllFormats()) {
    FormatCandidate c;
    c.format = f;
    c.density = f == Format::kDense ? 1.0 : opts.density;
    c.v = opts.v;
    if (f == Format::kDense) c.retained_ratio = 1.0;
    const bool excluded =
        std::find(opts.exclude.begin(), opts.exclude.end(), f) !=
        opts.exclude.end();
    if (opts.force_format && f != *opts.force_format) {
      c.why = "excluded by force_format";
    } else if (excluded && f != Format::kDense) {
      c.why = "excluded by options";
    } else {
      const auto s = ModeledLayerSeconds(l, f, opts, &c.why);
      if (s) {
        c.feasible = true;
        c.modeled_s = *s;
      }
    }
    plan.candidates.push_back(std::move(c));
  }
  // Feasible first, fastest first; ties and infeasibles keep the stable
  // AllFormats order so the ranking is fully deterministic.
  std::stable_sort(plan.candidates.begin(), plan.candidates.end(),
                   [](const FormatCandidate& a, const FormatCandidate& b) {
                     if (a.feasible != b.feasible) return a.feasible;
                     if (!a.feasible) return false;
                     return a.modeled_s < b.modeled_s;
                   });
  SHFLBW_CHECK_MSG(!plan.candidates.empty() && plan.candidates[0].feasible,
                   "no feasible format for layer " << plan.name);
  plan.format = plan.candidates[0].format;
  plan.density = plan.candidates[0].density;
  plan.v = plan.candidates[0].v;
  plan.modeled_s = plan.candidates[0].modeled_s;
  plan.retained_ratio = plan.candidates[0].retained_ratio;
  return plan;
}

ExecutionPlan PlanModel(const ModelDesc& model, const PlannerOptions& opts) {
  ValidatePlannerOptions(opts);
  if (opts.quality.enabled) return quality::PlanModelQualityAware(model, opts);
  ExecutionPlan plan;
  plan.model = model.name;
  plan.gpu = GetGpuSpec(opts.arch).name;
  plan.options = opts;
  for (std::size_t i = 0; i < model.layers.size(); ++i) {
    plan.layers.push_back(
        PlanLayer(model.layers[i], static_cast<int>(i), opts));
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
