#include "kernels/spmm_vector_wise.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
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
  ValidateTileConfig(cfg, /*min_pipeline_stages=*/0);
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

std::vector<PipelineEvent> PipelineSchedule(int kept, const TileConfig& cfg) {
  ValidateTileConfig(cfg, /*min_pipeline_stages=*/1);
  SHFLBW_CHECK_MSG(kept >= 0, "kept must be >= 0, got " << kept);
  const int total_step = kept / cfg.tk + (kept % cfg.tk != 0 ? 1 : 0);
  // The counters below reach total_step + the skew; keep them in int.
  const std::int64_t skew =
      std::int64_t{cfg.meta_prefetch_stage} + cfg.pipeline_stages;
  SHFLBW_CHECK_MSG(total_step + skew < std::numeric_limits<int>::max(),
                   "pipeline schedule of " << total_step
                                           << " steps and skew " << skew
                                           << " overflows int");
  std::vector<PipelineEvent> trace;
  // Alg. 1 lines 1-16: the three counters run skewed, so metadata is
  // meta_prefetch_stage steps ahead of the stitch and the stitch is
  // pipeline_stages ahead of the MMA. meta_loaded_until is the frontier
  // of the BulkLoadMeta queue (lines 6-8): every meta_prefetch_stage
  // steps it fetches that many steps' worth of column indices.
  int meta_loaded_until = 0;
  int metaload_step = 0;
  int load_step = metaload_step - cfg.meta_prefetch_stage;
  for (int step = load_step - cfg.pipeline_stages; step < total_step;
       ++step, ++load_step, ++metaload_step) {
    if (metaload_step % cfg.meta_prefetch_stage == 0) {
      meta_loaded_until = static_cast<int>(std::min<std::int64_t>(
          total_step, std::int64_t{metaload_step} + cfg.meta_prefetch_stage));
    }
    // StitchTile (Fig. 4(b)) needs the metadata of the step it loads.
    const bool stitching = load_step >= 0 && load_step < total_step;
    trace.push_back({metaload_step, load_step, step,
                     !stitching || load_step < meta_loaded_until});
  }
  return trace;
}

namespace {

/// Operands of one RunVwFamilyKernel call, already rounded through fp16.
struct VwOperands {
  const float* a_vals;  // kept-vector values, vector-contiguous
  const int* col_idx;
  const int* group_col_ptr;
  const int* row_map;
  const float* b;  // row-major, n columns
  float* c;        // row-major, n columns
  int v;
  int n;
  int strips;       // column strips per row group (work items per group)
  bool b_finite;    // every entry of b is finite
};

/// Widest column block, and the width of one work item's column strip.
constexpr int kStripCols = 32;

/// Rows [r0, r0+R) of group g over columns [j0, j0+w): an R x C fp32
/// accumulator block (w = C, or jw < C for the ragged tail) that stays
/// in registers while the group's kept vectors are walked in ascending
/// order, each kept value broadcast against its gathered B row. Every
/// output element therefore adds its products in ascending kept order,
/// the order of GemmReference on the masked weights. The product of two
/// fp16-rounded values is exact in fp32, so a contracted FMA gives the
/// same bits as the separate multiply and add.
///
/// kSkipZeros keeps the zero-weight skip: 0 x inf is NaN, so a zero
/// weight must contribute nothing when B holds inf or NaN. When B is
/// finite, 0 x b is a signed zero and adding it leaves the sum's bits
/// alone (the sum is never -0: it starts at +0, and x + -x is +0).
template <int R, int C, bool kFullWidth, bool kSkipZeros>
[[gnu::always_inline]] inline void VwBlock(const VwOperands& op, int g,
                                           int r0, int j0, int jw) {
  const int w = kFullWidth ? C : jw;
  float acc[R][C] = {};
  for (int vec = op.group_col_ptr[g]; vec < op.group_col_ptr[g + 1]; ++vec) {
    const float* brow =
        op.b + static_cast<std::size_t>(op.col_idx[vec]) * op.n + j0;
    const float* arow = op.a_vals + static_cast<std::size_t>(vec) * op.v + r0;
    for (int r = 0; r < R; ++r) {
      const float av = arow[r];
      if (kSkipZeros && av == 0.0f) continue;
      for (int j = 0; j < w; ++j) acc[r][j] += av * brow[j];
    }
  }
  // Write-back (Fig. 4(e)): row r of the block goes to C row
  // row_map[g*v + r0 + r] — the reordered write-back for Shfl-BW (§4.2).
  for (int r = 0; r < R; ++r) {
    float* dst =
        op.c + static_cast<std::size_t>(op.row_map[g * op.v + r0 + r]) * op.n +
        j0;
    for (int j = 0; j < w; ++j) dst[j] = RoundToFp16(acc[r][j]);
  }
}

/// All rows of group g from r0 on, in R-row blocks, then the remainder
/// in halving blocks (V need not be a multiple of R).
template <int R, int C, bool kFullWidth, bool kSkipZeros>
[[gnu::always_inline]] inline void VwRows(const VwOperands& op, int g, int r0,
                                          int j0, int jw) {
  for (; r0 + R <= op.v; r0 += R) {
    VwBlock<R, C, kFullWidth, kSkipZeros>(op, g, r0, j0, jw);
  }
  if constexpr (R > 1) VwRows<R / 2, C, kFullWidth, kSkipZeros>(op, g, r0, j0, jw);
}

/// One work item: columns [j0, j0+jw), jw <= kStripCols, of group g, in
/// column blocks of 32, 16 and 8 and a narrower tail. A block holds
/// kAccFloats accumulators (the tier's register budget) as
/// kAccFloats / max(C, 16) rows, so narrow launches keep the register
/// file as full as wide ones.
template <int kAccFloats, bool kSkipZeros>
[[gnu::always_inline]] inline void VwStrip(const VwOperands& op, int g,
                                           int j0, int jw) {
  constexpr int kRows32 = kAccFloats / 32;
  constexpr int kRows16 = kAccFloats / 16;
  if (jw == 32) {
    VwRows<kRows32, 32, true, kSkipZeros>(op, g, 0, j0, 32);
    return;
  }
  if (jw >= 16) {
    VwRows<kRows16, 16, true, kSkipZeros>(op, g, 0, j0, 16);
    j0 += 16;
    jw -= 16;
  }
  if (jw >= 8) {
    VwRows<kRows16, 8, true, kSkipZeros>(op, g, 0, j0, 8);
    j0 += 8;
    jw -= 8;
  }
  if (jw > 0) VwRows<kRows16, 8, false, kSkipZeros>(op, g, 0, j0, jw);
}

/// Work items [lo, hi): item t is column strip t % strips of group
/// t / strips. Output regions are disjoint across items, so any
/// schedule of items gives the same bits.
template <int kAccFloats>
[[gnu::always_inline]] inline void VwItems(const VwOperands& op,
                                           std::int64_t lo, std::int64_t hi) {
  SHFLBW_HOT_BEGIN;
  for (std::int64_t t = lo; t < hi; ++t) {
    const int g = static_cast<int>(t / op.strips);
    const int j0 = static_cast<int>(t % op.strips) * kStripCols;
    const int jw = std::min(kStripCols, op.n - j0);
    if (op.b_finite) {
      VwStrip<kAccFloats, false>(op, g, j0, jw);
    } else {
      VwStrip<kAccFloats, true>(op, g, j0, jw);
    }
  }
  SHFLBW_HOT_END;
}

/// The fragment-load rounding of an operand (RoundRows), returning
/// whether every rounded value is finite. Branch-free, so it vectorizes
/// at each tier's width.
[[gnu::always_inline]] inline bool RoundAllFinite(const float* src, float* dst,
                                                  std::size_t n) {
  std::uint32_t non_finite = 0;
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = RoundToFp16(src[i]);
    non_finite |= static_cast<std::uint32_t>(
        (std::bit_cast<std::uint32_t>(dst[i]) & 0x7F800000u) == 0x7F800000u);
  }
  return non_finite == 0;
}

/// One tier's build of the bodies above. Each entry point carries its
/// tier's target attribute and inlines the always_inline bodies, so the
/// tier's instructions never reach code the baseline tier runs (a
/// per-file -march would let the linker hand baseline callers an
/// AVX-512 copy of a shared inline function such as RoundToFp16).
struct VwTierEntry {
  bool (*round)(const float* src, float* dst, std::size_t n);
  void (*items)(const VwOperands& op, std::int64_t lo, std::int64_t hi);
};

// Register budgets (fp32 accumulators per block): 16 vector registers'
// worth at AVX-512 and AVX2 widths; the SSE2 baseline shares the AVX2
// shape (blocks measured in docs/PERFORMANCE.md "Kernel tiers").
bool RoundBaseline(const float* src, float* dst, std::size_t n) {
  return RoundAllFinite(src, dst, n);
}
void ItemsBaseline(const VwOperands& op, std::int64_t lo, std::int64_t hi) {
  VwItems<128>(op, lo, hi);
}

#if defined(__x86_64__)
__attribute__((target("avx2,fma"))) bool RoundV3(const float* src,
                                                 float* dst, std::size_t n) {
  return RoundAllFinite(src, dst, n);
}
__attribute__((target("avx2,fma"))) void ItemsV3(const VwOperands& op,
                                                 std::int64_t lo,
                                                 std::int64_t hi) {
  VwItems<128>(op, lo, hi);
}
__attribute__((target("avx512f,avx512vl,avx512bw,avx512dq,avx2,fma"))) bool
RoundV4(const float* src, float* dst, std::size_t n) {
  return RoundAllFinite(src, dst, n);
}
__attribute__((target("avx512f,avx512vl,avx512bw,avx512dq,avx2,fma"))) void
ItemsV4(const VwOperands& op, std::int64_t lo, std::int64_t hi) {
  VwItems<256>(op, lo, hi);
}

constexpr VwTierEntry kTierEntries[] = {{RoundBaseline, ItemsBaseline},
                                        {RoundV3, ItemsV3},
                                        {RoundV4, ItemsV4}};

KernelTier DetectKernelTier() {
  __builtin_cpu_init();
  const bool v3 =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  const bool v4 = v3 && __builtin_cpu_supports("avx512f") &&
                  __builtin_cpu_supports("avx512vl") &&
                  __builtin_cpu_supports("avx512bw") &&
                  __builtin_cpu_supports("avx512dq");
  return v4 ? KernelTier::kX86_64_V4
            : v3 ? KernelTier::kX86_64_V3 : KernelTier::kBaseline;
}
#else
// Other architectures build the baseline tier only.
constexpr VwTierEntry kTierEntries[] = {{RoundBaseline, ItemsBaseline},
                                        {RoundBaseline, ItemsBaseline},
                                        {RoundBaseline, ItemsBaseline}};

KernelTier DetectKernelTier() { return KernelTier::kBaseline; }
#endif

Matrix<float> RunVwFamilyKernelWith(const VwTierEntry& tier,
                                    const VectorWiseMatrix& a,
                                    const std::vector<int>& row_map,
                                    const Matrix<float>& b) {
  SHFLBW_CHECK_MSG(a.cols == b.rows(), "SpMM shape mismatch");
  SHFLBW_CHECK_MSG(static_cast<int>(row_map.size()) == a.rows,
                   "row_map size " << row_map.size() << " != rows " << a.rows);
  const int n = b.cols();
  Matrix<float> c(a.rows, n);

  // Round both operands through fp16 once per call (the fragment loads);
  // the B pass also proves B finite, which lets the MMA drop the
  // zero-weight skip.
  std::vector<float> a_vals(a.values.size());
  tier.round(a.values.data(), a_vals.data(), a_vals.size());
  Matrix<float> bh(b.rows(), n);
  const bool b_finite = tier.round(b.data(), bh.data(), bh.size());

  // Every (row group, column strip) pair is an independent work item —
  // the decomposition the CUDA grid uses (one threadblock per output
  // tile). Output regions are disjoint and each element accumulates in
  // ascending kept order, so the result is bit-identical at any thread
  // count.
  const int strips = (n + kStripCols - 1) / kStripCols;
  const VwOperands op{a_vals.data(), a.col_idx.data(), a.group_col_ptr.data(),
                      row_map.data(), bh.data(), c.data(), a.v, n, strips,
                      b_finite};
  const std::int64_t items = static_cast<std::int64_t>(a.Groups()) * strips;
  ParallelFor(0, items, /*grain=*/1, [&](std::int64_t lo, std::int64_t hi) {
    tier.items(op, lo, hi);
  });
  return c;
}

}  // namespace

const char* KernelTierName(KernelTier tier) {
  static constexpr const char* kNames[] = {"baseline", "x86-64-v3",
                                           "x86-64-v4"};
  return kNames[static_cast<int>(tier)];
}

KernelTier ActiveKernelTier() {
  static const KernelTier tier = DetectKernelTier();
  return tier;
}

bool KernelTierSupported(KernelTier tier) {
  return static_cast<int>(tier) <= static_cast<int>(ActiveKernelTier());
}

Matrix<float> RunVwFamilyKernel(const VectorWiseMatrix& a,
                                const std::vector<int>& row_map,
                                const Matrix<float>& b) {
  static const VwTierEntry& tier =
      kTierEntries[static_cast<int>(ActiveKernelTier())];
  return RunVwFamilyKernelWith(tier, a, row_map, b);
}

namespace detail {
Matrix<float> RunVwFamilyKernelAt(KernelTier tier, const VectorWiseMatrix& a,
                                  const std::vector<int>& row_map,
                                  const Matrix<float>& b) {
  SHFLBW_CHECK_MSG(KernelTierSupported(tier),
                   "kernel tier " << KernelTierName(tier)
                                  << " is not supported on this host");
  return RunVwFamilyKernelWith(kTierEntries[static_cast<int>(tier)], a,
                               row_map, b);
}
}  // namespace detail

Matrix<float> SpmmVectorWise(const VectorWiseMatrix& a,
                             const Matrix<float>& b) {
  std::vector<int> identity(static_cast<std::size_t>(a.rows));
  std::iota(identity.begin(), identity.end(), 0);
  return RunVwFamilyKernel(a, identity, b);
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
