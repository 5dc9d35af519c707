// Model-level evaluation: the machinery behind the Fig. 2 / Fig. 6 /
// Table 1 benches. Times whole models (sum of compute-intensive layers,
// §6.1) with the planner's per-layer model, ModeledLayerSeconds, so a
// figure's bar and a plan's modelled time are one computation; scores
// pruned-model quality with the retained-importance proxy
// (docs/REPRODUCTION.md §2).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "arch/gpu_spec.h"
#include "common/matrix.h"
#include "runtime/format.h"
#include "runtime/model_desc.h"

namespace shflbw {

/// Per-layer timing line of a model sweep.
struct LayerTiming {
  std::string name;
  double dense_s = 0;
  double sparse_s = 0;
  double speedup = 0;
};

/// Whole-model timing result.
struct ModelSpeedup {
  double dense_s = 0;
  double sparse_s = 0;
  double speedup = 0;
  std::vector<LayerTiming> layers;
};

/// Modelled seconds of one invocation of a layer, or nullopt where the
/// kernel cannot run it.
using LayerSecondsFn =
    std::function<std::optional<double>(const runtime::LayerDesc&)>;

/// Times `model` with `sparse_seconds` against the dense baseline on
/// `arch`, weighting each layer by its repeat count. nullopt if
/// `sparse_seconds` cannot run some layer.
std::optional<ModelSpeedup> EvaluateModel(const runtime::ModelDesc& model,
                                          const LayerSecondsFn& sparse_seconds,
                                          GpuArch arch);

/// The same for `format` at (density, v): each layer's seconds are
/// runtime::ModeledLayerSeconds. nullopt where the format cannot run
/// some layer — 2:4 off the A100 or at a density other than 0.5, a V
/// that does not divide m, or a conv layer on a format without a conv
/// kernel ("the baselines all lack implementation for convolution",
/// §6.2).
std::optional<ModelSpeedup> EvaluateModel(const runtime::ModelDesc& model,
                                          runtime::Format format,
                                          double density, int v, GpuArch arch);

// ---------------------------------------------------------------------
// Quality proxy (Table 1 / Fig. 2).
// ---------------------------------------------------------------------

/// Quality result for one pruned model.
struct QualityResult {
  double retained_ratio = 0;  // retained importance / total importance
  /// retained_ratio relative to unstructured pruning at the SAME
  /// density — the pattern penalty, isolated from the sparsity penalty
  /// that fine-tuning largely recovers.
  double relative_retention = 1.0;
  double proxy_score = 0;  // mapped to the model's metric scale
};

/// Maps relative retention to the model's quality metric:
///   score = dense_score * relative_retention^sensitivity.
/// Unstructured pruning maps to ~dense_score (matching the paper, where
/// fine-tuned unstructured models sit within a few tenths of dense);
/// structured patterns are discounted by how much pattern-constrained
/// selection loses versus free selection. `sensitivity` is calibrated
/// per model (see docs/REPRODUCTION.md §2); pattern ORDERINGS are
/// independent of it.
double ProxyQuality(double dense_score, double relative_retention,
                    double sensitivity);

/// Prunes every weight matrix to `format` at (density, v) and returns
/// the aggregate retained-importance ratio and proxied score.
QualityResult EvaluateQuality(const std::vector<Matrix<float>>& weights,
                              runtime::Format format, double density, int v,
                              double dense_score, double sensitivity);

}  // namespace shflbw
