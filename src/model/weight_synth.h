// Synthetic weight matrices with realistic structure — the stand-in for
// trained Transformer/GNMT/ResNet50 weights in the Table 1 quality
// experiments (see docs/REPRODUCTION.md §2).
//
// Real DNN weight matrices have (a) heavy-tailed magnitudes, (b) per-row
// scale variation, and (c) *row clusters that share important columns*
// (co-activated features). Property (c) is precisely what row shuffling
// exploits: rows whose large weights sit in similar columns can be
// grouped so vector-wise pruning keeps them together. Generating weights
// with latent row types therefore exercises the Shfl-BW search exactly
// the way trained weights do.
#pragma once

#include <cstdint>

#include "common/matrix.h"

namespace shflbw {

struct SynthWeightOptions {
  int row_types = 16;        // latent clusters of rows
  double type_strength = 1.5;  // how strongly a row follows its type
  double noise = 0.5;        // idiosyncratic per-weight component
  double heavy_tail = 0.3;   // fraction of variance from a wide tail
  std::uint64_t seed = 1234;
};

/// Generates an m x k weight matrix with the structure described above.
/// Rows of the same latent type are scattered across the matrix (not
/// contiguous), so contiguous vector-wise grouping is suboptimal while a
/// learned row permutation can recover the clusters.
Matrix<float> SynthesizeWeights(int m, int k,
                                const SynthWeightOptions& opts = {});

}  // namespace shflbw
