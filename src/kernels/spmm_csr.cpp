#include "kernels/spmm_csr.h"

#include <algorithm>

#include "common/check.h"
#include "common/fp16.h"
#include "common/hot_path.h"
#include "common/thread_pool.h"

namespace shflbw {

KernelStats SpmmCsrScalarStats(int m, int n, int k, double nnz,
                               const GpuSpec& spec) {
  KernelStats s;
  s.kernel_name = "cusparse-csrmm";
  s.kernel_class = KernelClass::kCsrScalar;
  s.tensor_core = false;
  s.useful_flops = 2.0 * nnz * n;
  s.issued_macs = nnz * n;

  s.metadata_bytes = 4.0 * (m + 1) + 4.0 * nnz;  // row_ptr + col_idx
  const double a_bytes = nnz * kHalfBytes + s.metadata_bytes;
  const double b_unique = static_cast<double>(k) * n * kHalfBytes;
  // Scalar gathers: every non-zero pulls one B row segment of N values
  // through the L2 with no shared-memory reuse across rows.
  s.l2_read_bytes = nnz * n * kHalfBytes + a_bytes;
  s.dram_read_bytes =
      a_bytes +
      b_unique * ReloadFactor(b_unique, spec.l2_capacity,
                              std::max(1.0, nnz / std::max(1, k)));
  s.dram_write_bytes = static_cast<double>(m) * n * kHalfBytes;
  s.threadblocks = (m + 127) / 128;
  s.main_loop_iters = m > 0 ? static_cast<int>(nnz / m) : 0;
  s.pipeline_stages = 0;  // csrmm does not software-pipeline
  return s;
}

KernelStats SpmmSputnikStats(int m, int n, int k, double nnz,
                             const GpuSpec& spec) {
  KernelStats s;
  s.kernel_name = "sputnik";
  s.kernel_class = KernelClass::kSputnik;
  s.tensor_core = false;
  s.useful_flops = 2.0 * nnz * n;
  s.issued_macs = nnz * n;

  // Sputnik stores fp16 values with int16 relative column offsets after
  // its index compression, plus row offsets.
  s.metadata_bytes = 2.0 * nnz + 4.0 * (m + 1);
  const double a_bytes = nnz * kHalfBytes + s.metadata_bytes;
  const double b_unique = static_cast<double>(k) * n * kHalfBytes;
  // Row-split: each non-zero triggers a vector load of the N-wide B row
  // slice. Sputnik's 128-bit vector loads and row-sorted schedule give
  // high L1 locality on the B slices, so only ~1/4 of the gather volume
  // reaches the L2 (the rest hits in L1).
  constexpr double kL1MissRate = 0.25;
  s.l2_read_bytes = nnz * n * kHalfBytes * kL1MissRate + a_bytes;
  s.dram_read_bytes =
      a_bytes + b_unique * ReloadFactor(b_unique, spec.l2_capacity,
                                        std::max(1.0, nnz / std::max(1, k)));
  s.dram_write_bytes = static_cast<double>(m) * n * kHalfBytes;
  s.threadblocks = (m + 3) / 4;  // 4 rows per threadblock (subwarp tiling)
  s.main_loop_iters =
      m > 0 ? std::max(1, static_cast<int>(nnz / m / 32)) : 0;
  s.pipeline_stages = 1;  // single-stage prefetch in Sputnik
  return s;
}

Matrix<float> SpmmCsr(const CsrMatrix& a, const Matrix<float>& b) {
  SHFLBW_CHECK_MSG(a.cols == b.rows(), "SpMM shape mismatch");
  const int n = b.cols();
  Matrix<float> c(a.rows, n);
  // Pre-round both operands through fp16 once, then run pure float
  // gather-accumulate, row-parallel (each output row is independent;
  // per element the sum stays in ascending column order, so results are
  // bit-identical to the serial elementwise version).
  std::vector<float> vals(a.values.size());
  RoundRows(a.values.data(), vals.data(), vals.size());
  const Matrix<float> bh = RoundThroughFp16(b);
  ParallelFor(0, a.rows, /*grain=*/8, [&](std::int64_t lo, std::int64_t hi) {
    std::vector<float> acc(static_cast<std::size_t>(n));
    SHFLBW_HOT_BEGIN;
    for (std::int64_t row = lo; row < hi; ++row) {
      std::fill(acc.begin(), acc.end(), 0.0f);
      for (int i = a.row_ptr[row]; i < a.row_ptr[row + 1]; ++i) {
        const float av = vals[static_cast<std::size_t>(i)];
        const float* brow = bh.row(a.col_idx[i]);
        for (int j = 0; j < n; ++j) acc[j] += av * brow[j];
      }
      float* crow = c.row(static_cast<int>(row));
      for (int j = 0; j < n; ++j) crow[j] = RoundToFp16(acc[j]);
    }
    SHFLBW_HOT_END;
  });
  return c;
}

}  // namespace shflbw
