#include "core/evaluator.h"

#include <cmath>

#include "arch/cost_model.h"
#include "common/check.h"
#include "core/pipeline.h"
#include "kernels/conv2d.h"
#include "kernels/kernel_registry.h"
#include "prune/importance.h"
#include "runtime/model_desc.h"

namespace shflbw {

std::optional<ModelSpeedup> EvaluateGemmModel(
    const std::vector<GemmLayerSpec>& layers, const std::vector<int>& counts,
    KernelClass klass, double density, int v, const GpuSpec& spec) {
  SHFLBW_CHECK_MSG(layers.size() == counts.size(),
                   "layers/counts size mismatch");
  ModelSpeedup total;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const GemmLayerSpec& l = layers[i];
    LayerProblem p{l.m, l.n, l.k, density, v};
    const auto sparse_s = LayerSeconds(klass, p, spec);
    if (!sparse_s) return std::nullopt;
    LayerProblem dense_p = p;
    dense_p.density = 1.0;
    const auto dense_s =
        LayerSeconds(KernelClass::kDenseTensorCore, dense_p, spec);
    LayerTiming t{l.name, *dense_s * counts[i], *sparse_s * counts[i],
                  *dense_s / *sparse_s};
    total.dense_s += t.dense_s;
    total.sparse_s += t.sparse_s;
    total.layers.push_back(std::move(t));
  }
  total.speedup = total.dense_s / total.sparse_s;
  return total;
}

std::optional<ModelSpeedup> EvaluateConvModel(
    const std::vector<ConvLayerSpec>& layers, KernelClass klass,
    double density, int v, const GpuSpec& spec) {
  const runtime::FormatOps* ops = nullptr;
  for (runtime::Format f : runtime::AllFormats()) {
    if (runtime::Ops(f).kernel_class == klass) ops = &runtime::Ops(f);
  }
  // §6.2: baselines lack convolution.
  if (ops == nullptr || ops->conv_stats == nullptr) return std::nullopt;

  const CostModel model(spec);
  ModelSpeedup total;
  for (const ConvLayerSpec& l : layers) {
    const ConvShape shape = runtime::ToConvShape(l);
    const auto stats = ops->conv_stats(shape, density, v, spec);
    if (!stats) return std::nullopt;
    const double dense_s = model.Seconds(Conv2dDenseStats(shape, spec));
    const double sparse_s = model.Seconds(*stats);
    LayerTiming t{l.name, dense_s * l.repeat, sparse_s * l.repeat,
                  dense_s / sparse_s};
    total.dense_s += t.dense_s;
    total.sparse_s += t.sparse_s;
    total.layers.push_back(std::move(t));
  }
  total.speedup = total.dense_s / total.sparse_s;
  return total;
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
