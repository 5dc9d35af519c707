#include "prune/shfl_bw_search.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "format/convert.h"
#include "prune/importance.h"
#include "prune/kmeans.h"
#include "prune/unstructured.h"
#include "prune/vector_wise_prune.h"

namespace shflbw {
namespace {

Matrix<float> PermuteRows(const Matrix<float>& m,
                          const std::vector<int>& storage_to_original) {
  Matrix<float> out(m.rows(), m.cols());
  for (int s = 0; s < m.rows(); ++s) {
    const int orig = storage_to_original[s];
    for (int c = 0; c < m.cols(); ++c) out(s, c) = m(orig, c);
  }
  return out;
}

Matrix<float> UnpermuteRows(const Matrix<float>& m,
                            const std::vector<int>& storage_to_original) {
  Matrix<float> out(m.rows(), m.cols());
  for (int s = 0; s < m.rows(); ++s) {
    const int orig = storage_to_original[s];
    for (int c = 0; c < m.cols(); ++c) out(orig, c) = m(s, c);
  }
  return out;
}

}  // namespace

ShflBwSearchResult ShflBwSearch(const Matrix<float>& scores, double density,
                                int v, const ShflBwSearchOptions& opts) {
  SHFLBW_CHECK_MSG(density > 0.0 && density <= 1.0, "density " << density);
  SHFLBW_CHECK_MSG(v > 0 && scores.rows() % v == 0,
                   "rows=" << scores.rows() << " not divisible by V=" << v);
  // std::min(1.0, NaN) is 1.0, so an unchecked NaN ratio would keep
  // every weight in the clustering mask.
  SHFLBW_CHECK_MSG(std::isfinite(opts.beta_ratio) && opts.beta_ratio > 0.0,
                   "ShflBwSearchOptions.beta_ratio must be finite and > 0 "
                   "(mask density beta = min(1, ratio * density)), got "
                       << opts.beta_ratio);
  SHFLBW_CHECK_MSG(opts.kmeans_iterations >= 1,
                   "ShflBwSearchOptions.kmeans_iterations must be >= 1, got "
                       << opts.kmeans_iterations);

  // (b) Reduced-sparsity unstructured mask: beta = 2*alpha keeps enough
  // candidates for the clustering to see where important weights live
  // without drowning the signal (paper finds this best, §5).
  const double beta = std::min(1.0, opts.beta_ratio * density);
  const Matrix<float> binary_mask = UnstructuredMask(scores, beta);

  // (c) Cluster rows of the binary mask into groups of exactly V.
  KMeansOptions km;
  km.iterations = opts.kmeans_iterations;
  km.seed = opts.seed;
  RowGrouping grouping = BalancedKMeansRows(binary_mask, v, km);

  // (d) Shuffle the ORIGINAL scores (not the mask) into group order.
  const Matrix<float> shuffled =
      PermuteRows(scores, grouping.storage_to_original);

  // (e) Vector-wise prune the shuffled scores at the target density.
  const Matrix<float> shuffled_mask = VectorWiseMask(shuffled, density, v);

  // (f) Reverse the shuffle to express the mask over original rows.
  ShflBwSearchResult result;
  result.mask = UnpermuteRows(shuffled_mask, grouping.storage_to_original);
  result.storage_to_original = std::move(grouping.storage_to_original);
  return result;
}

ShflBwMatrix PruneToShflBw(const Matrix<float>& weights, double density,
                           int v, const ShflBwSearchOptions& opts) {
  const ShflBwSearchResult search =
      ShflBwSearch(MagnitudeScores(weights), density, v, opts);
  const Matrix<float> pruned = ApplyMask(weights, search.mask);
  return ShflBwMatrix::FromDense(pruned, v, search.storage_to_original);
}

}  // namespace shflbw
