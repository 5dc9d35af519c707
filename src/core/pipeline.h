// The prune -> mask pipeline shared by SparseLinear/SparseConv2d and the
// quality experiments: one entry point that applies any format's mask
// (runtime::Ops, the table the inference runtime packs through) to a
// weight matrix at a target density.
#pragma once

#include <vector>

#include "common/matrix.h"
#include "runtime/format.h"

namespace shflbw {

struct PruneResult {
  Matrix<float> mask;            // binary mask, original row order
  Matrix<float> pruned_weights;  // weights .* mask
  /// Shfl-BW only: the discovered row permutation (storage row ->
  /// original row); empty for every other format.
  std::vector<int> storage_to_original;
};

/// Prunes `weights` by magnitude to `format` at (density, v). Dense
/// returns an all-ones mask; 2:4 requires density 0.5; formats without
/// a granularity ignore v.
PruneResult PruneWithPattern(const Matrix<float>& weights,
                             runtime::Format format, double density, int v);

/// The format's mask of importance `scores` at (density, v), as a
/// grow-and-prune-compatible masker.
Matrix<float> PatternMask(const Matrix<float>& scores, runtime::Format format,
                          double density, int v);

}  // namespace shflbw
