#include "core/pipeline.h"

#include <utility>

#include "format/convert.h"
#include "prune/importance.h"

namespace shflbw {

Matrix<float> PatternMask(const Matrix<float>& scores, runtime::Format format,
                          double density, int v) {
  return runtime::Ops(format).mask(scores, density, v).mask;
}

PruneResult PruneWithPattern(const Matrix<float>& weights,
                             runtime::Format format, double density, int v) {
  runtime::FormatMask m =
      runtime::Ops(format).mask(MagnitudeScores(weights), density, v);
  PruneResult result;
  result.pruned_weights = ApplyMask(weights, m.mask);
  result.mask = std::move(m.mask);
  result.storage_to_original = std::move(m.storage_to_original);
  return result;
}

}  // namespace shflbw
