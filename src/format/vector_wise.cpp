#include "format/vector_wise.h"

#include "common/check.h"

namespace shflbw {

VectorWiseMatrix VectorWiseMatrix::FromDense(const Matrix<float>& dense,
                                             int v) {
  SHFLBW_CHECK_MSG(v > 0, "v=" << v);
  SHFLBW_CHECK_MSG(dense.rows() % v == 0,
                   "rows=" << dense.rows() << " not divisible by v=" << v);
  VectorWiseMatrix vw;
  vw.rows = dense.rows();
  vw.cols = dense.cols();
  vw.v = v;
  vw.group_col_ptr.reserve(vw.Groups() + 1);
  vw.group_col_ptr.push_back(0);
  for (int g = 0; g < vw.Groups(); ++g) {
    for (int c = 0; c < vw.cols; ++c) {
      bool any = false;
      for (int r = 0; r < v && !any; ++r) {
        any = dense(g * v + r, c) != 0.0f;
      }
      if (!any) continue;
      vw.col_idx.push_back(c);
      for (int r = 0; r < v; ++r) {
        vw.values.push_back(dense(g * v + r, c));
      }
    }
    vw.group_col_ptr.push_back(static_cast<int>(vw.col_idx.size()));
  }
  return vw;
}

Matrix<float> VectorWiseMatrix::ToDense() const {
  Matrix<float> dense(rows, cols);
  for (int g = 0; g < Groups(); ++g) {
    for (int i = group_col_ptr[g]; i < group_col_ptr[g + 1]; ++i) {
      const int c = col_idx[i];
      for (int r = 0; r < v; ++r) {
        dense(g * v + r, c) = ValueAt(i, r);
      }
    }
  }
  return dense;
}

std::vector<int> VectorWiseMatrix::KeptPerGroup() const {
  std::vector<int> kept(static_cast<std::size_t>(Groups()));
  for (int g = 0; g < Groups(); ++g) kept[g] = KeptColumnsInGroup(g);
  return kept;
}

double VectorWiseMatrix::PaddingFraction() const {
  if (values.empty()) return 0.0;
  std::size_t zeros = 0;
  for (float x : values) {
    if (x == 0.0f) ++zeros;
  }
  return static_cast<double>(zeros) / static_cast<double>(values.size());
}

void VectorWiseMatrix::Validate() const {
  SHFLBW_CHECK(v > 0);
  SHFLBW_CHECK(rows % v == 0);
  SHFLBW_CHECK_MSG(static_cast<int>(group_col_ptr.size()) == Groups() + 1,
                   "group_col_ptr size mismatch");
  SHFLBW_CHECK(group_col_ptr.front() == 0);
  SHFLBW_CHECK(group_col_ptr.back() == KeptVectors());
  SHFLBW_CHECK(values.size() ==
               static_cast<std::size_t>(KeptVectors()) * v);
  for (int g = 0; g < Groups(); ++g) {
    SHFLBW_CHECK(group_col_ptr[g] <= group_col_ptr[g + 1]);
    // Bound the slice before indexing col_idx with it, as
    // CsrMatrix::Validate does for row_ptr.
    SHFLBW_CHECK_MSG(group_col_ptr[g + 1] <= KeptVectors(),
                     "group_col_ptr " << group_col_ptr[g + 1]
                                      << " exceeds kept vectors "
                                      << KeptVectors() << " at group " << g);
    for (int i = group_col_ptr[g]; i < group_col_ptr[g + 1]; ++i) {
      SHFLBW_CHECK_MSG(col_idx[i] >= 0 && col_idx[i] < cols,
                       "column out of range in group " << g);
      if (i > group_col_ptr[g]) {
        SHFLBW_CHECK_MSG(col_idx[i - 1] < col_idx[i],
                         "columns not sorted in group " << g);
      }
    }
  }
}

}  // namespace shflbw
