#include "kernels/spmm_vector_wise.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "common/check.h"
#include "common/fp16.h"
#include "common/hot_path.h"
#include "common/thread_pool.h"

namespace shflbw {

KernelStats VwFamilyStats(int m, int n, int k,
                          const std::vector<int>& kept_per_group, int v,
                          const GpuSpec& spec, const TileConfig& cfg,
                          KernelClass klass, double extra_metadata_bytes) {
  KernelStats s;
  s.kernel_name = KernelClassName(klass);
  s.kernel_class = klass;
  s.tensor_core = true;
  s.block_size = v;

  const int tn = std::min(cfg.tn, std::max(kMmaN, n));
  const double n_pad = std::ceil(static_cast<double>(n) / tn) * tn;
  const double col_tiles = n_pad / tn;
  const double kept_total =
      std::accumulate(kept_per_group.begin(), kept_per_group.end(), 0.0);

  s.useful_flops = 2.0 * kept_total * v * n;
  // The main loop advances tk kept-columns per step; the final partial
  // step pads with zero vectors, issuing wasted MACs.
  double padded_cols = 0;
  int max_steps = 0;
  for (int kept : kept_per_group) {
    const int steps =
        static_cast<int>(std::ceil(static_cast<double>(kept) / cfg.tk));
    padded_cols += static_cast<double>(steps) * cfg.tk;
    max_steps = std::max(max_steps, steps);
  }
  const double v_pad = std::ceil(static_cast<double>(v) / kMmaM) * kMmaM;
  s.issued_macs = padded_cols * v_pad * n_pad;

  // Sparse operand: values stream once per column tile (vector-contiguous
  // after the offline reorder, §4.2); metadata is one int32 column index
  // per kept vector plus group pointers (bulk-prefetched, Alg. 1).
  s.metadata_bytes =
      4.0 * (kept_total + kept_per_group.size() + 1) + extra_metadata_bytes;
  const double a_bytes = kept_total * v * kHalfBytes + s.metadata_bytes;

  // Dense operand: in-buffer stitching gathers exactly the kept rows of
  // the B tile — kept_g rows x tn columns per (group, column-tile). This
  // is the §3.2.2 full-reuse traffic (divided by v versus unstructured).
  s.l2_read_bytes = kept_total * tn * kHalfBytes * col_tiles +
                    a_bytes * col_tiles;
  // DRAM side: the kernel iterates column tiles in the outer loop, so a
  // K x tn slice of B stays L2-resident while every row group consumes
  // it — B streams from DRAM once as long as one slice fits.
  const double b_unique = static_cast<double>(k) * n * kHalfBytes;
  const double b_slice = static_cast<double>(k) * tn * kHalfBytes;
  s.dram_read_bytes =
      a_bytes + b_unique * ReloadFactor(b_slice, spec.l2_capacity,
                                        static_cast<double>(
                                            kept_per_group.size()));
  s.dram_write_bytes = static_cast<double>(m) * n * kHalfBytes;

  s.threadblocks = static_cast<int>(kept_per_group.size() * col_tiles);
  s.main_loop_iters = std::max(1, max_steps);
  s.pipeline_stages = cfg.pipeline_stages;
  return s;
}

namespace {

/// Per-thread reusable scratch for one output tile: the software-pipeline
/// ring (Fig. 4(d)) and the fp32 accumulator. Stage buffers hold fp16
/// values already widened to float (decoded once per stitch), so the MMA
/// loop is pure float FMA over contiguous arrays.
struct TileScratch {
  struct Stage {
    std::vector<float> a_tile;  // v * tk, vector-major, fp16-rounded
    std::vector<float> b_tile;  // tk * tn, fp16-rounded
    int valid_k = 0;            // kept vectors in this step (<= tk)
  };
  std::vector<Stage> stages;
  std::vector<float> acc;  // v * tn fp32 accumulators (register file)

  void Prepare(int v, int tk, int tn, int num_stages) {
    stages.resize(static_cast<std::size_t>(num_stages));
    const std::size_t a_size = static_cast<std::size_t>(v) * tk;
    const std::size_t b_size = static_cast<std::size_t>(tk) * tn;
    for (Stage& s : stages) {
      if (s.a_tile.size() != a_size) s.a_tile.assign(a_size, 0.0f);
      if (s.b_tile.size() != b_size) s.b_tile.assign(b_size, 0.0f);
      s.valid_k = 0;
    }
    // The accumulator must start at zero for every tile; the stage
    // buffers are fully rewritten by each stitch before the MMA reads
    // them, so they carry over between tiles.
    acc.assign(static_cast<std::size_t>(v) * tn, 0.0f);
  }
};

TileScratch& LocalTileScratch() {
  thread_local TileScratch scratch;
  return scratch;
}

/// Executes one (row-group, column-tile) work item: the pipelined
/// stitch + MMA loop of Alg. 1 followed by the write-back. Output rows
/// row_map[g*v + r], columns [j0, j0+jw) — disjoint across work items,
/// which is what makes the parallel schedule bit-identical to serial.
/// a_vals / bh are the operands already rounded through fp16 (done once
/// per kernel call), so the stitch is a pure copy.
void ExecuteVwTile(const VectorWiseMatrix& a, const std::vector<float>& a_vals,
                   const std::vector<int>& row_map, const Matrix<float>& bh,
                   const TileConfig& cfg, int tn, int g, int j0,
                   TileScratch& scratch, Matrix<float>& c,
                   std::vector<PipelineEvent>* pipeline_trace) {
  const int n = bh.cols();
  const int v = a.v;
  const int jw = std::min(tn, n - j0);
  const int base = a.group_col_ptr[g];
  const int kept = a.KeptColumnsInGroup(g);
  const int total_step =
      static_cast<int>(std::ceil(static_cast<double>(kept) / cfg.tk));
  float* acc = scratch.acc.data();

  SHFLBW_HOT_BEGIN;
  // Metadata queue: BulkLoadMeta fetches meta_prefetch_stage steps'
  // worth of column indices ahead of the stitch that consumes them
  // (Alg. 1 lines 6-8). meta_loaded_until tracks the frontier.
  int meta_loaded_until = 0;

  // Pipelined main loop (Alg. 1 lines 1-16): the three counters run
  // skewed so that metadata is MetaPrefetchStage steps ahead of the
  // stitch, and the stitch is pipeline_stages ahead of the MMA.
  int metaload_step = 0;
  int load_step = metaload_step - cfg.meta_prefetch_stage;
  int step = load_step - cfg.pipeline_stages;
  while (step < total_step) {
    const bool record = pipeline_trace != nullptr && step < total_step;
    bool meta_ready = true;

    if (metaload_step % cfg.meta_prefetch_stage == 0 &&
        metaload_step <
            total_step + cfg.meta_prefetch_stage + cfg.pipeline_stages) {
      // BulkLoadMeta: aggregate column indices of the next
      // meta_prefetch_stage steps (bandwidth-efficient bulk load).
      meta_loaded_until =
          std::min(total_step, std::max(meta_loaded_until,
                                        metaload_step +
                                            cfg.meta_prefetch_stage));
    }

    if (step >= 0 && step < total_step) {
      // WarpMMA (Fig. 4(c)): dense v x tn x tk tile product, fp32
      // accumulation, ascending-k order within the buffer. Operands were
      // decoded at stitch time, so this is pure float FMA.
      const TileScratch::Stage& buf =
          scratch.stages[static_cast<std::size_t>(step % cfg.pipeline_stages)];
      for (int kk = 0; kk < buf.valid_k; ++kk) {
        const float* arow = &buf.a_tile[static_cast<std::size_t>(kk) * v];
        const float* brow = &buf.b_tile[static_cast<std::size_t>(kk) * tn];
        for (int r = 0; r < v; ++r) {
          const float av = arow[r];
          if (av == 0.0f) continue;  // padded lane
          float* crow = &acc[static_cast<std::size_t>(r) * tn];
          for (int j = 0; j < jw; ++j) {
            crow[j] += av * brow[j];
          }
        }
      }
    }

    if (load_step >= 0 && load_step < total_step) {
      // StitchTile (Fig. 4(b)): requires the metadata of this step.
      meta_ready = load_step < meta_loaded_until;
      // SHFLBW_LINT_ALLOW(hot-path): hazard assert; allocates only on failure
      SHFLBW_CHECK_MSG(meta_ready, "pipeline hazard: stitching step "
                                       << load_step
                                       << " before its metadata loaded");
      TileScratch::Stage& buf =
          scratch.stages[static_cast<std::size_t>(load_step %
                                                  cfg.pipeline_stages)];
      const int k0 = load_step * cfg.tk;
      buf.valid_k = std::min(cfg.tk, kept - k0);
      for (int kk = 0; kk < cfg.tk; ++kk) {
        const bool in_range = kk < buf.valid_k;
        const int vec = base + k0 + kk;
        float* arow = &buf.a_tile[static_cast<std::size_t>(kk) * v];
        float* brow = &buf.b_tile[static_cast<std::size_t>(kk) * tn];
        if (in_range) {
          // A tile: vector-contiguous fp16 load (pre-rounded values).
          const float* asrc = &a_vals[static_cast<std::size_t>(vec) * v];
          std::copy(asrc, asrc + v, arow);
          // B tile: gather row col_idx[vec] — the in-buffer stitching
          // that turns the vector-wise matrix into a dense tile.
          const float* bsrc = bh.row(a.col_idx[vec]) + j0;
          std::copy(bsrc, bsrc + jw, brow);
          std::fill(brow + jw, brow + tn, 0.0f);
        } else {
          std::fill(arow, arow + v, 0.0f);
          std::fill(brow, brow + tn, 0.0f);
        }
      }
    }

    if (record) {
      // SHFLBW_LINT_ALLOW(hot-path): first-tile-only trace, off steady path
      pipeline_trace->push_back({metaload_step, load_step, step, meta_ready});
    }
    ++step;
    ++load_step;
    ++metaload_step;
  }

  // Write-back (Fig. 4(e)): row r of the tile goes to C row
  // row_map[g*v + r] — identity for VW, storage_to_original for
  // Shfl-BW (the reordered write-back, §4.2).
  for (int r = 0; r < v; ++r) {
    const int out_row = row_map[static_cast<std::size_t>(g) * v + r];
    float* dst = c.row(out_row) + j0;
    const float* src = &acc[static_cast<std::size_t>(r) * tn];
    for (int j = 0; j < jw; ++j) {
      dst[j] = RoundToFp16(src[j]);
    }
  }
  SHFLBW_HOT_END;
}

}  // namespace

Matrix<float> RunVwFamilyKernel(const VectorWiseMatrix& a,
                                const std::vector<int>& row_map,
                                const Matrix<float>& b, const TileConfig& cfg,
                                std::vector<PipelineEvent>* pipeline_trace) {
  SHFLBW_CHECK_MSG(a.cols == b.rows(), "SpMM shape mismatch");
  SHFLBW_CHECK_MSG(static_cast<int>(row_map.size()) == a.rows,
                   "row_map size " << row_map.size() << " != rows " << a.rows);
  SHFLBW_CHECK_MSG(cfg.tk > 0 && cfg.pipeline_stages > 0 &&
                       cfg.meta_prefetch_stage > 0,
                   "bad tile config");
  const int n = b.cols();
  const int v = a.v;
  // Tile width is clamped to the MMA granularity, matching VwFamilyStats
  // (a narrower-than-kMmaN output still occupies a full MMA tile).
  const int tn = std::min(cfg.tn, std::max(kMmaN, n));
  Matrix<float> c(a.rows, n);

  // Round both operands through fp16 once; every stitch then copies
  // floats instead of re-encoding the same entries per row-group.
  std::vector<float> a_vals(a.values.size());
  RoundRows(a.values.data(), a_vals.data(), a_vals.size());
  const Matrix<float> bh = RoundThroughFp16(b);

  // Every (row-group, column-tile) pair is an independent work item —
  // the same decomposition the CUDA grid uses (one threadblock per
  // output tile). Output regions are disjoint and each tile accumulates
  // in ascending-k order, so the result is bit-identical at any thread
  // count. The pipeline trace is only recorded for the first tile
  // (work item 0), exactly as the serial engine did.
  const int col_tiles = n > 0 ? (n + tn - 1) / tn : 0;
  const std::int64_t items =
      static_cast<std::int64_t>(a.Groups()) * col_tiles;
  ParallelFor(0, items, /*grain=*/1,
              [&](std::int64_t lo, std::int64_t hi) {
                TileScratch& scratch = LocalTileScratch();
                for (std::int64_t t = lo; t < hi; ++t) {
                  scratch.Prepare(v, cfg.tk, tn, cfg.pipeline_stages);
                  const int g = static_cast<int>(t / col_tiles);
                  const int j0 = static_cast<int>(t % col_tiles) * tn;
                  ExecuteVwTile(a, a_vals, row_map, bh, cfg, tn, g, j0,
                                scratch, c,
                                t == 0 ? pipeline_trace : nullptr);
                }
              });
  return c;
}

Matrix<float> SpmmVectorWise(const VectorWiseMatrix& a, const Matrix<float>& b,
                             const TileConfig& cfg) {
  std::vector<int> identity(static_cast<std::size_t>(a.rows));
  std::iota(identity.begin(), identity.end(), 0);
  return RunVwFamilyKernel(a, identity, b, cfg, nullptr);
}

KernelStats SpmmVectorWiseStats(const VectorWiseMatrix& a, int n,
                                const GpuSpec& spec) {
  return VwFamilyStats(a.rows, n, a.cols, a.KeptPerGroup(), a.v, spec,
                       TileConfig{}, KernelClass::kVectorWiseTensorCore,
                       /*extra_metadata_bytes=*/0.0);
}

KernelResult SpmmVectorWise(const VectorWiseMatrix& a, const Matrix<float>& b,
                            const GpuSpec& spec) {
  return {SpmmVectorWise(a, b), SpmmVectorWiseStats(a, b.cols(), spec)};
}

KernelStats SpmmVectorWiseStats(int m, int n, int k, double alpha, int v,
                                const GpuSpec& spec, const TileConfig& cfg) {
  return VwFamilyStats(m, n, k, UniformKeptPerGroup(m, k, alpha, v), v, spec,
                       cfg, KernelClass::kVectorWiseTensorCore,
                       /*extra_metadata_bytes=*/0.0);
}

std::vector<int> UniformKeptPerGroup(int m, int k, double alpha, int v) {
  SHFLBW_CHECK_MSG(v > 0 && m % v == 0,
                   "m=" << m << " not divisible by v=" << v);
  const int per_group =
      static_cast<int>(std::llround(alpha * static_cast<double>(k)));
  return std::vector<int>(static_cast<std::size_t>(m / v), per_group);
}

}  // namespace shflbw
