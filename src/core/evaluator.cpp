#include "core/evaluator.h"

#include <cmath>

#include "common/check.h"
#include "core/pipeline.h"
#include "prune/importance.h"
#include "runtime/planner.h"

namespace shflbw {

std::optional<ModelSpeedup> EvaluateModel(const runtime::ModelDesc& model,
                                          const LayerSecondsFn& sparse_seconds,
                                          GpuArch arch) {
  runtime::PlannerOptions dense;
  dense.arch = arch;
  ModelSpeedup total;
  for (const runtime::LayerDesc& l : model.layers) {
    const auto sparse_s = sparse_seconds(l);
    if (!sparse_s) return std::nullopt;
    const double dense_s =
        *runtime::ModeledLayerSeconds(l, runtime::Format::kDense, dense);
    LayerTiming t{l.Name(), dense_s * l.repeat, *sparse_s * l.repeat,
                  dense_s / *sparse_s};
    total.dense_s += t.dense_s;
    total.sparse_s += t.sparse_s;
    total.layers.push_back(std::move(t));
  }
  total.speedup = total.dense_s / total.sparse_s;
  return total;
}

std::optional<ModelSpeedup> EvaluateModel(const runtime::ModelDesc& model,
                                          runtime::Format format,
                                          double density, int v,
                                          GpuArch arch) {
  runtime::PlannerOptions point;
  point.density = density;
  point.v = v;
  point.arch = arch;
  return EvaluateModel(
      model,
      [&](const runtime::LayerDesc& l) {
        return runtime::ModeledLayerSeconds(l, format, point);
      },
      arch);
}

double ProxyQuality(double dense_score, double relative_retention,
                    double sensitivity) {
  SHFLBW_CHECK_MSG(relative_retention >= 0.0 && relative_retention <= 1.0001,
                   "relative_retention " << relative_retention);
  return dense_score *
         std::pow(std::min(relative_retention, 1.0), sensitivity);
}

QualityResult EvaluateQuality(const std::vector<Matrix<float>>& weights,
                              runtime::Format format, double density, int v,
                              double dense_score, double sensitivity) {
  SHFLBW_CHECK_MSG(!weights.empty(), "no weight matrices");
  double retained = 0.0;
  double unstructured_retained = 0.0;
  double total = 0.0;
  for (const Matrix<float>& w : weights) {
    const Matrix<float> scores = MagnitudeScores(w);
    retained += RetainedScore(scores, PatternMask(scores, format, density, v));
    unstructured_retained += RetainedScore(
        scores, PatternMask(scores, runtime::Format::kCsr, density, v));
    for (float s : scores.storage()) total += s;
  }
  QualityResult q;
  q.retained_ratio = total > 0.0 ? retained / total : 0.0;
  q.relative_retention = unstructured_retained > 0.0
                             ? retained / unstructured_retained
                             : 0.0;
  q.proxy_score =
      ProxyQuality(dense_score, q.relative_retention, sensitivity);
  return q;
}

}  // namespace shflbw
