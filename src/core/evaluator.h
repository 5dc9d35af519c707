// Model-level evaluation: the machinery behind the Fig. 2 / Fig. 6 /
// Table 1 benches. Times whole models (sum of compute-intensive layers,
// §6.1) under every kernel class, and scores pruned-model quality with
// the retained-importance proxy (docs/REPRODUCTION.md §2).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "arch/gpu_spec.h"
#include "arch/kernel_stats.h"
#include "common/matrix.h"
#include "model/layer_spec.h"
#include "runtime/format.h"

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

/// Times a GEMM model (Transformer / GNMT) under `klass` at the given
/// density and V on `spec`, weighting each layer by its occurrence
/// count. nullopt if the class cannot run some layer (e.g. 2:4 off-A100
/// or at density != 0.5).
std::optional<ModelSpeedup> EvaluateGemmModel(
    const std::vector<GemmLayerSpec>& layers, const std::vector<int>& counts,
    KernelClass klass, double density, int v, const GpuSpec& spec);

/// Times a convolution model (ResNet50). Only the runtime formats whose
/// runtime::Ops entry has a conv kernel — the dense baseline and our VW
/// / Shfl-BW kernels ("the baselines all lack implementation for
/// convolution", §6.2) — time it; other classes return nullopt, as do
/// VW / Shfl-BW when V does not divide some layer's out_c.
std::optional<ModelSpeedup> EvaluateConvModel(
    const std::vector<ConvLayerSpec>& layers, KernelClass klass,
    double density, int v, const GpuSpec& spec);

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
