// Weight-importance scoring. The paper uses absolute magnitude ([11],
// §5); squared magnitude is provided for ablations.
#pragma once

#include "common/matrix.h"

namespace shflbw {

/// |w| elementwise.
Matrix<float> MagnitudeScores(const Matrix<float>& weights);

/// w^2 elementwise.
Matrix<float> SquaredScores(const Matrix<float>& weights);

/// Total score retained by a mask: sum(scores .* mask). The
/// retained-score ratio is the Table 1 quality proxy (see
/// docs/REPRODUCTION.md §2).
double RetainedScore(const Matrix<float>& scores, const Matrix<float>& mask);

/// RetainedScore normalized by the total score (1.0 = nothing pruned).
double RetainedScoreRatio(const Matrix<float>& scores,
                          const Matrix<float>& mask);

}  // namespace shflbw
