#include "format/convert.h"

#include "common/check.h"

namespace shflbw {

Matrix<float> ExtractMask(const Matrix<float>& dense) {
  Matrix<float> mask(dense.rows(), dense.cols());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    mask.storage()[i] = dense.storage()[i] != 0.0f ? 1.0f : 0.0f;
  }
  return mask;
}

Matrix<float> ApplyMask(const Matrix<float>& dense,
                        const Matrix<float>& mask) {
  SHFLBW_CHECK(dense.rows() == mask.rows() && dense.cols() == mask.cols());
  Matrix<float> out(dense.rows(), dense.cols());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    out.storage()[i] = dense.storage()[i] * mask.storage()[i];
  }
  return out;
}

BsrMatrix ShflBwToBlockWise(const ShflBwMatrix& m) {
  const VectorWiseMatrix& vw = m.vw;
  const int v = vw.v;
  BsrMatrix bsr;
  bsr.rows = vw.rows;
  bsr.block_size = v;
  bsr.block_row_ptr.push_back(0);

  // Column stitching: within each group, the kept columns are packed
  // left-to-right into V-wide blocks (Fig. 3(c) -> (d)); the last block
  // of a group is zero-padded. Note the stitched matrix has its own
  // (compacted) column space — it is only used to run a dense-block
  // kernel per group; the kernel maps block columns back through col_idx.
  int max_blocks_per_group = 0;
  for (int g = 0; g < vw.Groups(); ++g) {
    const int kept = vw.KeptColumnsInGroup(g);
    max_blocks_per_group =
        std::max(max_blocks_per_group, (kept + v - 1) / v);
  }
  bsr.cols = std::max(1, max_blocks_per_group) * v;

  for (int g = 0; g < vw.Groups(); ++g) {
    const int base = vw.group_col_ptr[g];
    const int kept = vw.KeptColumnsInGroup(g);
    const int blocks = (kept + v - 1) / v;
    for (int b = 0; b < blocks; ++b) {
      bsr.block_col_idx.push_back(b);
      for (int r = 0; r < v; ++r) {
        for (int c = 0; c < v; ++c) {
          const int vec = b * v + c;
          bsr.values.push_back(vec < kept ? vw.ValueAt(base + vec, r) : 0.0f);
        }
      }
    }
    bsr.block_row_ptr.push_back(static_cast<int>(bsr.block_col_idx.size()));
  }
  return bsr;
}

CsrMatrix VectorWiseToCsr(const VectorWiseMatrix& vw) {
  return CsrMatrix::FromDense(vw.ToDense());
}

}  // namespace shflbw
