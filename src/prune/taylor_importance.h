// First-order (Taylor) importance scores — an extension hook for the §5
// search, which is generic in its score input ("Given the importance
// scores of all weights, our algorithm decides which weights to keep").
// The paper uses |w| (magnitude); first-order scores |w * dL/dw| rank
// weights by the loss change their removal causes to first order, and
// plug into the same ShflBwSearch and format masks (runtime::Ops(f).mask
// takes any score matrix). (With the nn substrate, pass
// layer.weights() and layer.grad_weights() after a backward pass over
// a scoring batch.)
#pragma once

#include "common/matrix.h"

namespace shflbw {

/// |w .* g| elementwise — the first-order Taylor removal criterion.
Matrix<float> TaylorScores(const Matrix<float>& weights,
                           const Matrix<float>& gradients);

/// Blended criterion: (1-mix)*|w| + mix*|w.*g|, each term normalized by
/// its mean so the blend weight is meaningful. mix in [0,1].
Matrix<float> BlendedScores(const Matrix<float>& weights,
                            const Matrix<float>& gradients, double mix);

}  // namespace shflbw
