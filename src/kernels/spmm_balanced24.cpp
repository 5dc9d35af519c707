#include "kernels/spmm_balanced24.h"

#include <algorithm>

#include "common/check.h"
#include "common/fp16.h"
#include "common/hot_path.h"
#include "common/thread_pool.h"

namespace shflbw {

KernelStats SpmmBalanced24Stats(int m, int n, int k, const GpuSpec& spec) {
  KernelStats s;
  s.kernel_name = "cusparselt-2in4";
  s.kernel_class = KernelClass::kBalanced24;
  s.tensor_core = true;
  const double nnz = 0.5 * m * k;
  s.useful_flops = 2.0 * nnz * n;
  // The sparse tensor-core runs the 16x8x16 MMA over the compressed
  // operand: half the MACs of the dense kernel at the same tile shape.
  const int tm = 128;
  const int tn = n >= 128 ? 128 : 64;
  const double m_pad = std::ceil(static_cast<double>(m) / tm) * tm;
  const double n_pad = std::ceil(static_cast<double>(n) / tn) * tn;
  s.issued_macs = 0.5 * m_pad * n_pad * k;

  s.metadata_bytes = nnz * 2.0 / 8.0;  // 2-bit position per kept value
  const double a_bytes = nnz * kHalfBytes + s.metadata_bytes;
  const double b_unique = static_cast<double>(k) * n * kHalfBytes;
  const double row_tiles = m_pad / tm;
  const double col_tiles = n_pad / tn;
  // Key inefficiency (§1): the FULL K x TN B tile is loaded before the
  // hardware selects the 2-of-4 operands, so B traffic equals the dense
  // kernel's despite the halved compute.
  s.l2_read_bytes = b_unique * row_tiles + a_bytes * col_tiles;
  s.dram_read_bytes =
      a_bytes + b_unique * ReloadFactor(b_unique, spec.l2_capacity,
                                        row_tiles);
  s.dram_write_bytes = static_cast<double>(m) * n * kHalfBytes;
  s.threadblocks = static_cast<int>(row_tiles * col_tiles);
  s.main_loop_iters = std::max(1, k / 32);
  s.pipeline_stages = 2;
  return s;
}

Matrix<float> SpmmBalanced24(const Balanced24Matrix& a,
                             const Matrix<float>& b) {
  SHFLBW_CHECK_MSG(a.cols == b.rows(), "SpMM shape mismatch");
  const int n = b.cols();
  Matrix<float> c(a.rows, n);
  // Operand selection + MMA: for each quad, the two kept values multiply
  // the B rows their metadata points at (ascending position within the
  // quad == ascending K). Rows are independent and run in parallel over
  // pre-rounded operands.
  std::vector<float> vals(a.values.size());
  RoundRows(a.values.data(), vals.data(), vals.size());
  const Matrix<float> bh = RoundThroughFp16(b);
  ParallelFor(0, a.rows, /*grain=*/8, [&](std::int64_t lo, std::int64_t hi) {
    std::vector<float> acc(static_cast<std::size_t>(n));
    SHFLBW_HOT_BEGIN;
    for (std::int64_t row = lo; row < hi; ++row) {
      std::fill(acc.begin(), acc.end(), 0.0f);
      std::size_t slot = static_cast<std::size_t>(row) * a.cols / 2;
      for (int q = 0; q < a.QuadsPerRow(); ++q) {
        for (int ss = 0; ss < 2; ++ss, ++slot) {
          if (a.values[slot] == 0.0f) continue;  // padding slot
          const float v = vals[slot];
          const float* brow = bh.row(q * 4 + a.meta[slot]);
          for (int j = 0; j < n; ++j) acc[j] += v * brow[j];
        }
      }
      float* crow = c.row(static_cast<int>(row));
      for (int j = 0; j < n; ++j) crow[j] = RoundToFp16(acc[j]);
    }
    SHFLBW_HOT_END;
  });
  return c;
}

}  // namespace shflbw
