// Vector-wise sparse format (Fig. 3(c)): the pruning granularity is a
// V x 1 column vector within a group of V consecutive rows. This is also
// the storage format of Shfl-BW after its offline row reordering (§4.2):
// values of one vector are contiguous, so the kernel streams them with
// fully-coalesced loads.
#pragma once

#include <vector>

#include "common/matrix.h"

namespace shflbw {

/// Vector-wise sparse matrix. Rows are partitioned into contiguous groups
/// of V; each group keeps a set of columns; each kept (group, column)
/// pair stores V contiguous values (the "vector").
struct VectorWiseMatrix {
  int rows = 0;
  int cols = 0;
  int v = 0;  // vector length == group height
  std::vector<int> group_col_ptr;  // size rows/v + 1
  std::vector<int> col_idx;        // kept columns, sorted within a group
  std::vector<float> values;       // col_idx.size() * v, vector-contiguous

  int Groups() const { return v > 0 ? rows / v : 0; }
  int KeptVectors() const { return static_cast<int>(col_idx.size()); }
  int KeptColumnsInGroup(int g) const {
    return group_col_ptr[g + 1] - group_col_ptr[g];
  }
  /// KeptColumnsInGroup for every group, in group order (the kept-vector
  /// profile the VW-family stats model takes).
  std::vector<int> KeptPerGroup() const;
  /// Stored-element density including padding zeros inside kept vectors.
  double StoredDensity() const {
    const double total = static_cast<double>(rows) * cols;
    return total > 0 ? static_cast<double>(values.size()) / total : 0.0;
  }
  /// Fraction of stored slots that are padding zeros.
  double PaddingFraction() const;

  /// Builds from a dense matrix: group g keeps every column that has at
  /// least one non-zero among its V rows (zeros inside kept vectors
  /// become explicit padding). rows must be a multiple of v.
  static VectorWiseMatrix FromDense(const Matrix<float>& dense, int v);

  Matrix<float> ToDense() const;

  void Validate() const;

  /// Value of (element row r, kept-vector i) — vector-contiguous layout.
  float ValueAt(int i, int row_in_group) const {
    return values[static_cast<std::size_t>(i) * v + row_in_group];
  }

  double MetadataBytes() const {
    return 4.0 * (group_col_ptr.size() + col_idx.size());
  }
};

}  // namespace shflbw
