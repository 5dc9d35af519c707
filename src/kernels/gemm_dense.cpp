#include "kernels/gemm_dense.h"

#include <algorithm>

#include "common/check.h"
#include "common/fp16.h"
#include "common/hot_path.h"
#include "common/thread_pool.h"

namespace shflbw {

Matrix<float> GemmReference(const Matrix<float>& a, const Matrix<float>& b) {
  SHFLBW_CHECK_MSG(a.cols() == b.rows(), "GEMM shape mismatch: A is "
                                             << a.rows() << "x" << a.cols()
                                             << ", B is " << b.rows() << "x"
                                             << b.cols());
  const int m = a.rows(), k = a.cols(), n = b.cols();
  Matrix<float> c(m, n);
  // Pre-round both operands through fp16 once; each output row then
  // accumulates pure float FMA in ascending-k order, rows in parallel
  // (bit-identical to the serial elementwise version).
  const Matrix<float> ah = RoundThroughFp16(a);
  const Matrix<float> bh = RoundThroughFp16(b);
  ParallelFor(0, m, /*grain=*/4, [&](std::int64_t lo, std::int64_t hi) {
    std::vector<float> acc(static_cast<std::size_t>(n));
    SHFLBW_HOT_BEGIN;
    for (std::int64_t i = lo; i < hi; ++i) {
      std::fill(acc.begin(), acc.end(), 0.0f);
      const float* arow = ah.row(static_cast<int>(i));
      for (int kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        const float* brow = bh.row(kk);
        for (int j = 0; j < n; ++j) acc[j] += av * brow[j];
      }
      float* crow = c.row(static_cast<int>(i));
      for (int j = 0; j < n; ++j) crow[j] = RoundToFp16(acc[j]);
    }
    SHFLBW_HOT_END;
  });
  return c;
}

namespace {

/// Shared traffic model for a tiled dense GEMM with TM x TN threadblock
/// tiles and TK-step main loop.
KernelStats DenseStats(int m, int n, int k, int tm, int tn, int tk,
                       const GpuSpec& spec, KernelClass klass,
                       bool tensor_core) {
  KernelStats s;
  s.kernel_name = KernelClassName(klass);
  s.kernel_class = klass;
  s.tensor_core = tensor_core;
  s.useful_flops = 2.0 * m * n * k;
  // Tiles are padded to the threadblock granularity; padded lanes issue
  // wasted MACs exactly as a real kernel does.
  const double m_pad = std::ceil(static_cast<double>(m) / tm) * tm;
  const double n_pad = std::ceil(static_cast<double>(n) / tn) * tn;
  s.issued_macs = m_pad * n_pad * k;

  const double row_tiles = m_pad / tm;
  const double col_tiles = n_pad / tn;
  const double a_bytes = static_cast<double>(m) * k * kHalfBytes;
  const double b_bytes = static_cast<double>(k) * n * kHalfBytes;
  // Each operand streams from DRAM once as long as the slice reused
  // across the opposing tile dimension stays L2-resident (an A row
  // strip of tm x K, a B column slice of K x tn); otherwise every pass
  // re-reads it.
  const double a_strip = static_cast<double>(tm) * k * kHalfBytes;
  const double b_slice = static_cast<double>(k) * tn * kHalfBytes;
  s.dram_read_bytes = a_bytes * ReloadFactor(a_strip, spec.l2_capacity,
                                             col_tiles) +
                      b_bytes * ReloadFactor(b_slice, spec.l2_capacity,
                                             row_tiles);
  s.dram_write_bytes = static_cast<double>(m) * n * kHalfBytes;
  // L2 serves each tile load: A tiles once per column pass, B tiles once
  // per row pass.
  s.l2_read_bytes = a_bytes * col_tiles + b_bytes * row_tiles;
  s.threadblocks = static_cast<int>(row_tiles * col_tiles);
  s.main_loop_iters = static_cast<int>(std::ceil(static_cast<double>(k) / tk));
  s.pipeline_stages = 2;
  return s;
}

}  // namespace

KernelStats GemmTensorCoreStats(int m, int n, int k, const GpuSpec& spec) {
  // cuBLAS TC kernels use 128x128 (or 128x64 for narrow N) tiles.
  const int tn = n >= 128 ? 128 : 64;
  return DenseStats(m, n, k, /*tm=*/128, tn, /*tk=*/32, spec,
                    KernelClass::kDenseTensorCore, /*tensor_core=*/true);
}

KernelStats GemmCudaCoreStats(int m, int n, int k, const GpuSpec& spec) {
  return DenseStats(m, n, k, /*tm=*/64, /*tn=*/64, /*tk=*/16, spec,
                    KernelClass::kDenseCudaCore, /*tensor_core=*/false);
}

}  // namespace shflbw
