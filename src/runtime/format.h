// Storage formats the inference runtime can select per layer, and the
// one table holding everything that differs between them. Each format
// is one sparsity pattern of Fig. 3: the mask that prunes it
// (src/prune/), the packed representation (src/format/), the kernel
// that executes it (src/kernels/) and that kernel's model on a layer
// shape. The planner and the Fig. 2/6 figures time formats through the
// entry's model, the weight cache packs the winner once, the engine
// executes it and the quality evaluator scores its mask — all through
// Ops(format), so the mask a plan scores is by construction the mask
// the engine packs.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "arch/gpu_spec.h"
#include "arch/kernel_stats.h"
#include "common/matrix.h"
#include "format/balanced24.h"
#include "format/bsr.h"
#include "format/csr.h"
#include "format/shfl_bw.h"
#include "format/vector_wise.h"
#include "kernels/conv2d.h"

namespace shflbw {
namespace runtime {

/// Selectable weight formats, in planner evaluation order.
enum class Format {
  kDense,       // fp16 dense weight, cuBLAS-style tensor-core GEMM
  kCsr,         // unstructured CSR, executed with the Sputnik schedule
  kBsr,         // V x V block-sparse, cuSPARSE bsrmm-style
  kBalanced24,  // 2:4 structured, A100 sparse tensor-core only
  kVectorWise,  // V x 1 vector-wise tensor-core SpMM
  kShflBw,      // the paper's shuffled vector-wise kernel
};

/// All selectable formats, in evaluation order (the planner breaks
/// modelled-time ties by it).
const std::vector<Format>& AllFormats();

/// Short stable name ("dense", "csr", "bsr", "2:4", "vw", "shfl-bw").
std::string FormatName(Format f);

/// Inverse of FormatName; throws shflbw::Error on unknown names.
Format ParseFormat(const std::string& name);

/// A weight pruned and converted for one format. Only the member
/// matching `format` is populated (dense holds the fp16-rounded weight).
struct PackedWeight {
  Format format = Format::kDense;
  Matrix<float> dense;
  CsrMatrix csr;
  BsrMatrix bsr;
  Balanced24Matrix balanced24;
  VectorWiseMatrix vw;
  ShflBwMatrix shflbw;
  double pack_seconds = 0;  // wall-clock spent pruning + converting

  /// Weight values stored: m·k for dense, nnz for CSR, blocks·V² for
  /// BSR, m·k/2 for 2:4 and kept vectors·V for VW and Shfl-BW. A
  /// launch on n activation columns retires 2 · StoredValues() · n
  /// useful FLOPs.
  [[nodiscard]] double StoredValues() const;
};

/// A pruning mask in original row order, plus the row permutation the
/// Shfl-BW search discovered (storage row -> original row; empty for
/// every other format).
struct FormatMask {
  Matrix<float> mask;
  std::vector<int> storage_to_original;
};

/// A format's kernel modelled on one layer: the stats, or nullopt with
/// the reason when the layer's shape or the GPU rules the kernel out
/// ("m not divisible by V", "sparse tensor-core is A100-only", ...).
struct LayerModel {
  std::optional<KernelStats> stats;
  const char* why = nullptr;
};

/// One format's entry in the table: every per-format decision.
struct FormatOps {
  Format format;
  const char* name;  // FormatName
  /// The one kept density the format can hold, or 0 when any density
  /// in (0, 1] works. 2:4 keeps two of every four weights, so it holds
  /// exactly 0.5 and ignores V.
  double fixed_density;

  /// Mask of importance `scores` at (density, v). Throws shflbw::Error
  /// on a density the format cannot hold or a shape V does not divide.
  FormatMask (*mask)(const Matrix<float>& scores, double density, int v);
  /// Converts `pruned` (a weight with this format's mask applied, in
  /// original row order) into `out`; Shfl-BW also takes the mask's
  /// permutation. Does not set out.format.
  void (*pack)(const Matrix<float>& pruned, int v,
               const std::vector<int>& storage_to_original,
               PackedWeight& out);
  /// C = W * act on the format's kernel.
  Matrix<float> (*gemm)(const PackedWeight& w, const Matrix<float>& act);
  /// The model of `gemm` on an m x k weight kept at (density, v), before
  /// anything is packed: what the planner and the figures time. CSR is
  /// modelled as Sputnik, the stronger of the two unstructured
  /// baselines (both execute as SpmmCsr). Dense and 2:4 ignore density
  /// (the caller checks HoldsDensity first).
  LayerModel (*gemm_model)(int m, int n, int k, double density, int v,
                           const GpuSpec& spec);
  /// Implicit-GEMM convolution and its model at (density, v). Both are
  /// null for formats without a conv kernel ("the baselines all lack
  /// implementation for convolution", §6.2).
  Matrix<float> (*conv)(const PackedWeight& w, const ConvShape& shape,
                        const Tensor4& input);
  LayerModel (*conv_model)(const ConvShape& shape, double density, int v,
                           const GpuSpec& spec);

  /// True when the format can hold kept density `density`.
  [[nodiscard]] bool HoldsDensity(double density) const;
  /// "2:4 fixes density at 0.5" — meaningful when fixed_density > 0.
  [[nodiscard]] std::string FixedDensityRule() const;
};

/// The table entry of `f`.
const FormatOps& Ops(Format f);

}  // namespace runtime
}  // namespace shflbw
