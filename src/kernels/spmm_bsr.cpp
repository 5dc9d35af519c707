#include "kernels/spmm_bsr.h"

#include <algorithm>

#include "common/check.h"
#include "common/fp16.h"
#include "common/hot_path.h"
#include "common/thread_pool.h"

namespace shflbw {

KernelStats SpmmBsrStats(int m, int n, int k, double nnz_blocks, int v,
                         const GpuSpec& spec, const TileConfig& cfg) {
  ValidateTileConfig(cfg, /*min_pipeline_stages=*/0);
  KernelStats s;
  s.kernel_name = "cusparse-bsrmm";
  s.kernel_class = KernelClass::kBsrTensorCore;
  s.tensor_core = true;
  s.block_size = v;
  const double nnz = nnz_blocks * v * v;  // stored elements (incl. padding)
  s.useful_flops = 2.0 * nnz * n;
  const int tn = std::min(cfg.tn, std::max(kMmaN, n));
  const double n_pad = std::ceil(static_cast<double>(n) / tn) * tn;
  s.issued_macs = nnz * n_pad;

  s.metadata_bytes = 4.0 * (static_cast<double>(m) / v + 1 + nnz_blocks);
  const double a_bytes = nnz * kHalfBytes + s.metadata_bytes;
  const double b_unique = static_cast<double>(k) * n * kHalfBytes;
  const double col_tiles = n_pad / tn;
  // Dense blocks: per output tile, B contributes only the rows covered by
  // non-zero blocks — V rows per block, shared across the whole V-tall
  // tile. This is the full data reuse of §3.2.2.
  s.l2_read_bytes = nnz_blocks * v * tn * kHalfBytes * col_tiles +
                    a_bytes * col_tiles;
  // Column-tile-outer loop order keeps a K x tn slice of B L2-resident
  // across block rows; B streams from DRAM once if the slice fits.
  const double b_slice = static_cast<double>(k) * tn * kHalfBytes;
  s.dram_read_bytes =
      a_bytes + b_unique * ReloadFactor(b_slice, spec.l2_capacity,
                                        static_cast<double>(m) / v);
  s.dram_write_bytes = static_cast<double>(m) * n * kHalfBytes;
  s.threadblocks = static_cast<int>((static_cast<double>(m) / v) * col_tiles);
  s.main_loop_iters = std::max(
      1, static_cast<int>(nnz_blocks / std::max(1.0, static_cast<double>(m) / v)));
  s.pipeline_stages = cfg.pipeline_stages;
  return s;
}

Matrix<float> SpmmBsr(const BsrMatrix& a, const Matrix<float>& b) {
  SHFLBW_CHECK_MSG(a.cols == b.rows(), "SpMM shape mismatch");
  const int n = b.cols();
  const int v = a.block_size;
  Matrix<float> c(a.rows, n);
  // Block-row schedule: accumulate dense V x V blocks in ascending
  // block-column order (== ascending K). Block rows are independent
  // output strips, so they run in parallel over pre-rounded operands.
  std::vector<float> vals(a.values.size());
  RoundRows(a.values.data(), vals.data(), vals.size());
  const Matrix<float> bh = RoundThroughFp16(b);
  ParallelFor(0, a.BlockRows(), /*grain=*/1,
              [&](std::int64_t lo, std::int64_t hi) {
    std::vector<float> acc(static_cast<std::size_t>(n));
    SHFLBW_HOT_BEGIN;
    for (std::int64_t br = lo; br < hi; ++br) {
      for (int rr = 0; rr < v; ++rr) {
        const int row = static_cast<int>(br) * v + rr;
        std::fill(acc.begin(), acc.end(), 0.0f);
        for (int i = a.block_row_ptr[br]; i < a.block_row_ptr[br + 1]; ++i) {
          const int bc = a.block_col_idx[i];
          const float* block =
              &vals[static_cast<std::size_t>(i) * v * v + rr * v];
          for (int cc = 0; cc < v; ++cc) {
            const float av = block[cc];
            const float* brow = bh.row(bc * v + cc);
            for (int j = 0; j < n; ++j) acc[j] += av * brow[j];
          }
        }
        float* crow = c.row(row);
        for (int j = 0; j < n; ++j) crow[j] = RoundToFp16(acc[j]);
      }
    }
    SHFLBW_HOT_END;
  });
  return c;
}

}  // namespace shflbw
