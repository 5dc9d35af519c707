#include "format/bsr.h"

#include "common/check.h"

namespace shflbw {

BsrMatrix BsrMatrix::FromDense(const Matrix<float>& dense, int block_size) {
  SHFLBW_CHECK_MSG(block_size > 0, "block_size=" << block_size);
  SHFLBW_CHECK_MSG(
      dense.rows() % block_size == 0 && dense.cols() % block_size == 0,
      "shape " << dense.rows() << "x" << dense.cols()
               << " not divisible by V=" << block_size);
  BsrMatrix bsr;
  bsr.rows = dense.rows();
  bsr.cols = dense.cols();
  bsr.block_size = block_size;
  const int brows = bsr.BlockRows();
  const int bcols = bsr.BlockCols();
  bsr.block_row_ptr.reserve(brows + 1);
  bsr.block_row_ptr.push_back(0);
  for (int br = 0; br < brows; ++br) {
    for (int bc = 0; bc < bcols; ++bc) {
      bool any = false;
      for (int r = 0; r < block_size && !any; ++r) {
        for (int c = 0; c < block_size && !any; ++c) {
          any = dense(br * block_size + r, bc * block_size + c) != 0.0f;
        }
      }
      if (!any) continue;
      bsr.block_col_idx.push_back(bc);
      for (int r = 0; r < block_size; ++r) {
        for (int c = 0; c < block_size; ++c) {
          bsr.values.push_back(
              dense(br * block_size + r, bc * block_size + c));
        }
      }
    }
    bsr.block_row_ptr.push_back(static_cast<int>(bsr.block_col_idx.size()));
  }
  return bsr;
}

Matrix<float> BsrMatrix::ToDense() const {
  Matrix<float> dense(rows, cols);
  const int v = block_size;
  for (int br = 0; br < BlockRows(); ++br) {
    for (int i = block_row_ptr[br]; i < block_row_ptr[br + 1]; ++i) {
      const int bc = block_col_idx[i];
      const float* block = &values[static_cast<std::size_t>(i) * v * v];
      for (int r = 0; r < v; ++r) {
        for (int c = 0; c < v; ++c) {
          dense(br * v + r, bc * v + c) = block[r * v + c];
        }
      }
    }
  }
  return dense;
}

void BsrMatrix::Validate() const {
  SHFLBW_CHECK(block_size > 0);
  SHFLBW_CHECK(rows % block_size == 0 && cols % block_size == 0);
  SHFLBW_CHECK_MSG(
      static_cast<int>(block_row_ptr.size()) == BlockRows() + 1,
      "block_row_ptr size mismatch");
  SHFLBW_CHECK(block_row_ptr.front() == 0);
  SHFLBW_CHECK(block_row_ptr.back() == NnzBlocks());
  SHFLBW_CHECK(values.size() == static_cast<std::size_t>(NnzBlocks()) *
                                    block_size * block_size);
  for (int br = 0; br < BlockRows(); ++br) {
    SHFLBW_CHECK(block_row_ptr[br] <= block_row_ptr[br + 1]);
    // Bound the slice before indexing block_col_idx with it, as
    // CsrMatrix::Validate does for row_ptr.
    SHFLBW_CHECK_MSG(block_row_ptr[br + 1] <= NnzBlocks(),
                     "block_row_ptr " << block_row_ptr[br + 1]
                                      << " exceeds nnz blocks " << NnzBlocks()
                                      << " at block-row " << br);
    for (int i = block_row_ptr[br]; i < block_row_ptr[br + 1]; ++i) {
      SHFLBW_CHECK_MSG(block_col_idx[i] >= 0 && block_col_idx[i] < BlockCols(),
                       "block col out of range");
      if (i > block_row_ptr[br]) {
        SHFLBW_CHECK_MSG(block_col_idx[i - 1] < block_col_idx[i],
                         "block columns not sorted in block-row " << br);
      }
    }
  }
}

bool IsBlockAligned(const Matrix<float>& dense, int block_size) {
  if (block_size <= 0 || dense.rows() % block_size != 0 ||
      dense.cols() % block_size != 0) {
    return false;
  }
  // Every kept block must be fully dense (pure block-wise pattern).
  for (int br = 0; br < dense.rows() / block_size; ++br) {
    for (int bc = 0; bc < dense.cols() / block_size; ++bc) {
      int nz = 0;
      for (int r = 0; r < block_size; ++r) {
        for (int c = 0; c < block_size; ++c) {
          if (dense(br * block_size + r, bc * block_size + c) != 0.0f) ++nz;
        }
      }
      if (nz != 0 && nz != block_size * block_size) return false;
    }
  }
  return true;
}

}  // namespace shflbw
