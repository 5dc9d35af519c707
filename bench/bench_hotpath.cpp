// Hot-path benchmark for the parallel tiled SpMM execution engine.
//
// Times variants of the VW-family engine on real layer shapes
// (GNMT / Transformer / ResNet50, §6.1) at several sparsities:
//   seed      the pre-optimization serial engine: fp16 stage buffers,
//             out-of-line arithmetic decode (Fp16::DecodeReference) in
//             the inner MMA loop, fresh scratch allocations per tile —
//             a faithful replica of the original RunVwFamilyKernel.
//   serial    the current engine pinned to 1 thread, at the dispatched
//             kernel tier (provenance.kernel_tier).
//   parallel  the current engine at the full ParallelThreadCount().
//   tier_ms   the current engine pinned to 1 thread at each kernel tier
//             this host supports (baseline, x86-64-v3, x86-64-v4).
//
// All outputs are verified bit-identical before timing is reported.
// Results go to BENCH_hotpath.json (see docs/PERFORMANCE.md).
//
// A second section tracks the convolution trajectory: ResNet50 conv
// shapes through the implicit-GEMM Conv2dShflBw kernel (serial vs
// parallel, with the dense cuDNN-style baseline for reference), so conv
// and GEMM hot paths are both covered.
//
// Flags: --smoke (tiny shape, 1 rep — CI harness check)
//        --out=FILE (default BENCH_hotpath.json)
//        --reps=N (default 3, best-of)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/fp16.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "format/vector_wise.h"
#include "kernels/conv2d.h"
#include "kernels/kernel_api.h"
#include "kernels/spmm_vector_wise.h"
#include "prune/shfl_bw_search.h"
#include "prune/vector_wise_prune.h"

namespace shflbw {
namespace {

/// Replica of the seed serial engine (identity row map). Kept verbatim
/// so the speedup this PR claims stays measurable against the exact
/// code it replaced: Fp16 stage buffers decoded element-by-element with
/// the out-of-line arithmetic decoder inside the MMA loop, and a fresh
/// fp32 accumulator allocated per output tile.
Matrix<float> SeedSerialVw(const VectorWiseMatrix& a, const Matrix<float>& b,
                           const TileConfig& cfg) {
  const int n = b.cols();
  const int v = a.v;
  const int tn = std::min(cfg.tn, std::max(1, n));
  Matrix<float> c(a.rows, n);
  auto slow = [](Fp16 h) { return Fp16::DecodeReference(h.bits()); };

  struct StageBuffer {
    std::vector<Fp16> a_tile;
    std::vector<Fp16> b_tile;
    int valid_k = 0;
  };
  std::vector<StageBuffer> buffers(cfg.pipeline_stages);
  for (auto& buf : buffers) {
    buf.a_tile.assign(static_cast<std::size_t>(v) * cfg.tk, Fp16());
    buf.b_tile.assign(static_cast<std::size_t>(cfg.tk) * tn, Fp16());
  }

  for (int g = 0; g < a.Groups(); ++g) {
    const int base = a.group_col_ptr[g];
    const int kept = a.KeptColumnsInGroup(g);
    const int total_step =
        static_cast<int>(std::ceil(static_cast<double>(kept) / cfg.tk));
    for (int j0 = 0; j0 < n; j0 += tn) {
      const int jw = std::min(tn, n - j0);
      std::vector<float> acc(static_cast<std::size_t>(v) * tn, 0.0f);
      int load_step = -cfg.meta_prefetch_stage;
      int step = load_step - cfg.pipeline_stages;
      int metaload_step = 0;
      while (step < total_step) {
        (void)metaload_step;
        if (step >= 0 && step < total_step) {
          const StageBuffer& buf = buffers[step % cfg.pipeline_stages];
          for (int kk = 0; kk < buf.valid_k; ++kk) {
            const Fp16* arow = &buf.a_tile[static_cast<std::size_t>(kk) * v];
            const Fp16* brow = &buf.b_tile[static_cast<std::size_t>(kk) * tn];
            for (int r = 0; r < v; ++r) {
              const float av = slow(arow[r]);
              if (av == 0.0f) continue;
              float* crow = &acc[static_cast<std::size_t>(r) * tn];
              for (int j = 0; j < jw; ++j) {
                crow[j] += av * slow(brow[j]);
              }
            }
          }
        }
        if (load_step >= 0 && load_step < total_step) {
          StageBuffer& buf = buffers[load_step % cfg.pipeline_stages];
          const int k0 = load_step * cfg.tk;
          buf.valid_k = std::min(cfg.tk, kept - k0);
          for (int kk = 0; kk < cfg.tk; ++kk) {
            const bool in_range = kk < buf.valid_k;
            const int vec = base + k0 + kk;
            for (int r = 0; r < v; ++r) {
              buf.a_tile[static_cast<std::size_t>(kk) * v + r] =
                  in_range ? Fp16(a.ValueAt(vec, r)) : Fp16();
            }
            for (int j = 0; j < tn; ++j) {
              const bool col_ok = in_range && j < jw;
              buf.b_tile[static_cast<std::size_t>(kk) * tn + j] =
                  col_ok ? Fp16(b(a.col_idx[vec], j0 + j)) : Fp16();
            }
          }
        }
        ++step;
        ++load_step;
        ++metaload_step;
      }
      for (int r = 0; r < v; ++r) {
        for (int j = 0; j < jw; ++j) {
          c(r + g * v, j0 + j) =
              slow(Fp16(acc[static_cast<std::size_t>(r) * tn + j]));
        }
      }
    }
  }
  return c;
}

struct BenchCase {
  std::string name;
  int m, k, n;
  double alpha;  // kept-vector density
};

struct Timing {
  double seed_ms = 0;
  double serial_ms = 0;
  double parallel_ms = 0;
  std::vector<std::pair<KernelTier, double>> tier_ms;  // supported tiers
  double flops = 0;
  bool identical = false;
};

constexpr KernelTier kTiers[] = {KernelTier::kBaseline, KernelTier::kX86_64_V3,
                                 KernelTier::kX86_64_V4};

double BestOfMs(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

/// A ResNet50 convolution shape driven through Conv2dShflBw.
struct ConvCase {
  std::string name;
  int in_c, hw, out_c, kernel, pad;
  double alpha;  // kept-vector density

  ConvShape Shape() const {
    ConvShape s;
    s.batch = 1;
    s.in_c = in_c;
    s.in_h = s.in_w = hw;
    s.out_c = out_c;
    s.kh = s.kw = kernel;
    s.stride = 1;
    s.pad = pad;
    return s;
  }
};

struct ConvTiming {
  double dense_ms = 0;     // Conv2dDense at full ParallelThreadCount()
  double serial_ms = 0;    // Conv2dShflBw pinned to 1 thread
  double parallel_ms = 0;  // Conv2dShflBw at full ParallelThreadCount()
  double flops = 0;        // useful sparse FLOPs
  bool identical = false;  // serial vs parallel bit-identical
};

ConvTiming RunConvCase(const ConvCase& cc, int reps, int v) {
  const ConvShape shape = cc.Shape();
  Rng rng(0xc0 + cc.in_c + cc.out_c + cc.hw);
  const Matrix<float> master = rng.NormalMatrix(shape.out_c, shape.GemmK());
  const ShflBwMatrix weights = PruneToShflBw(master, cc.alpha, v);
  Tensor4 input(shape.batch, shape.in_c, shape.in_h, shape.in_w);
  for (float& x : input.data) x = static_cast<float>(rng.Normal());

  ConvTiming t;
  t.flops = 2.0 * weights.vw.KeptVectors() * v * shape.GemmN();
  Matrix<float> c_dense, c_serial, c_parallel;
  t.dense_ms =
      BestOfMs(reps, [&] { c_dense = Conv2dDense(input, master, shape); });
  SetParallelThreads(1);
  t.serial_ms = BestOfMs(
      reps, [&] { c_serial = Conv2dShflBw(input, weights, shape); });
  SetParallelThreads(0);
  t.parallel_ms = BestOfMs(
      reps, [&] { c_parallel = Conv2dShflBw(input, weights, shape); });
  t.identical = c_serial == c_parallel;
  return t;
}

Timing RunCase(const BenchCase& bc, int reps, int v) {
  Rng rng(0x5eed + bc.m + bc.k + bc.n);
  const Matrix<float> pruned =
      PruneVectorWise(rng.NormalMatrix(bc.m, bc.k), bc.alpha, v);
  const VectorWiseMatrix a = VectorWiseMatrix::FromDense(pruned, v);
  const Matrix<float> b = rng.NormalMatrix(bc.k, bc.n);
  const TileConfig cfg;

  Timing t;
  t.flops = 2.0 * a.KeptVectors() * v * bc.n;

  Matrix<float> c_seed, c_serial, c_parallel, c_tier;
  t.seed_ms = BestOfMs(reps, [&] { c_seed = SeedSerialVw(a, b, cfg); });
  SetParallelThreads(1);
  t.serial_ms = BestOfMs(reps, [&] { c_serial = SpmmVectorWise(a, b); });
  t.identical = c_seed == c_serial;
  std::vector<int> identity(static_cast<std::size_t>(a.rows));
  std::iota(identity.begin(), identity.end(), 0);
  for (KernelTier tier : kTiers) {
    if (!KernelTierSupported(tier)) continue;
    t.tier_ms.emplace_back(tier, BestOfMs(reps, [&] {
      c_tier = detail::RunVwFamilyKernelAt(tier, a, identity, b);
    }));
    t.identical = t.identical && c_tier == c_serial;
  }
  SetParallelThreads(0);
  t.parallel_ms = BestOfMs(reps, [&] { c_parallel = SpmmVectorWise(a, b); });
  t.identical = t.identical && c_serial == c_parallel;
  return t;
}

bool WriteJson(const std::string& path, const std::vector<BenchCase>& cases,
               const std::vector<Timing>& timings,
               const std::vector<ConvCase>& conv_cases,
               const std::vector<ConvTiming>& conv_timings, int threads) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"hotpath\",\n");
  shflbw::bench::WriteProvenance(f);
  std::fprintf(f, "  \"threads\": %d,\n", threads);
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  // Baselines are only comparable at equal thread counts; flag runs
  // where the parallel columns cannot show scaling.
  std::fprintf(f, "  \"note\": \"%s\",\n",
               threads > 1
                   ? "parallel columns reflect multi-core scaling"
                   : "single-thread run: parallel_ms carries no scaling "
                     "signal; compare speedup_serial across machines, "
                     "speedup_parallel only at equal thread counts");
  std::fprintf(f, "  \"results\": [\n");
  // One JSON object {"<tier>": value, ...} over the tiers timed.
  const auto tier_object = [](const Timing& t, auto value) {
    std::string out = "{";
    for (const auto& [tier, ms] : t.tier_ms) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s\"%s\": %.3f",
                    out.size() > 1 ? ", " : "", KernelTierName(tier),
                    value(ms));
      out += buf;
    }
    return out + "}";
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const BenchCase& bc = cases[i];
    const Timing& t = timings[i];
    std::fprintf(f,
                 "    {\"shape\": \"%s\", \"m\": %d, \"k\": %d, \"n\": %d, "
                 "\"alpha\": %.3f,\n"
                 "     \"seed_ms\": %.3f, \"serial_ms\": %.3f, "
                 "\"parallel_ms\": %.3f,\n"
                 "     \"seed_gflops\": %.3f, \"serial_gflops\": %.3f, "
                 "\"parallel_gflops\": %.3f,\n"
                 "     \"tier_ms\": %s,\n"
                 "     \"tier_gflops\": %s,\n"
                 "     \"speedup_serial\": %.3f, \"speedup_parallel\": %.3f, "
                 "\"bit_identical\": %s}%s\n",
                 bc.name.c_str(), bc.m, bc.k, bc.n, bc.alpha, t.seed_ms,
                 t.serial_ms, t.parallel_ms, t.flops / t.seed_ms / 1e6,
                 t.flops / t.serial_ms / 1e6, t.flops / t.parallel_ms / 1e6,
                 tier_object(t, [](double ms) { return ms; }).c_str(),
                 tier_object(t, [&](double ms) { return t.flops / ms / 1e6; })
                     .c_str(),
                 t.seed_ms / t.serial_ms, t.seed_ms / t.parallel_ms,
                 t.identical ? "true" : "false",
                 i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"conv_results\": [\n");
  for (std::size_t i = 0; i < conv_cases.size(); ++i) {
    const ConvCase& cc = conv_cases[i];
    const ConvTiming& t = conv_timings[i];
    const ConvShape shape = cc.Shape();
    std::fprintf(f,
                 "    {\"shape\": \"%s\", \"m\": %d, \"k\": %d, \"n\": %d, "
                 "\"alpha\": %.3f,\n"
                 "     \"dense_ms\": %.3f, \"serial_ms\": %.3f, "
                 "\"parallel_ms\": %.3f,\n"
                 "     \"serial_gflops\": %.3f, \"parallel_gflops\": %.3f,\n"
                 "     \"speedup_vs_dense\": %.3f, "
                 "\"speedup_vs_serial\": %.3f, \"bit_identical\": %s}%s\n",
                 cc.name.c_str(), shape.GemmM(), shape.GemmK(),
                 shape.GemmN(), cc.alpha, t.dense_ms, t.serial_ms,
                 t.parallel_ms, t.flops / t.serial_ms / 1e6,
                 t.flops / t.parallel_ms / 1e6, t.dense_ms / t.parallel_ms,
                 t.serial_ms / t.parallel_ms, t.identical ? "true" : "false",
                 i + 1 < conv_cases.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  int reps = 3;
  std::string out = "BENCH_hotpath.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
    else if (std::strncmp(argv[i], "--reps=", 7) == 0)
      reps = std::max(1, std::atoi(argv[i] + 7));
    else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  std::vector<BenchCase> cases;
  std::vector<ConvCase> conv_cases;
  if (smoke) {
    reps = 1;
    cases.push_back({"smoke-256", 256, 256, 32, 0.3});
    conv_cases.push_back({"smoke-conv-32", 32, 8, 32, 3, 1, 0.3});
  } else {
    // GNMT LSTM gate / Transformer FFN / ResNet50 conv layer shapes at
    // the paper's evaluation sparsities (alpha = kept density).
    for (double alpha : {0.1, 0.3}) {
      cases.push_back({"gnmt-lstm-4096x1024", 4096, 1024, 128, alpha});
      cases.push_back({"transformer-ffn-1024x4096", 1024, 4096, 128, alpha});
      cases.push_back({"resnet50-conv-512x4608", 512, 4608, 196, alpha});
    }
    // ResNet50 stage shapes through the full implicit-GEMM conv path
    // (im2col + Shfl-BW SpMM), batch 1 to bound simulator cost.
    for (double alpha : {0.1, 0.3}) {
      conv_cases.push_back({"resnet50-conv3.3x3-28", 128, 28, 128, 3, 1,
                            alpha});
      conv_cases.push_back({"resnet50-conv4.reduce-14", 1024, 14, 256, 1, 0,
                            alpha});
    }
  }

  const int threads = ParallelThreadCount();
  std::printf(
      "bench_hotpath: %d thread(s), %d rep(s), %zu case(s), kernel tier %s\n",
      threads, reps, cases.size(), KernelTierName(ActiveKernelTier()));
  std::printf("%-28s %7s %9s %9s %11s %8s %8s\n", "shape", "alpha",
              "seed_ms", "serial_ms", "parallel_ms", "ser_x", "par_x");

  std::vector<Timing> timings;
  bool all_identical = true;
  for (const BenchCase& bc : cases) {
    const Timing t = RunCase(bc, reps, /*v=*/8);
    all_identical = all_identical && t.identical;
    std::printf("%-28s %7.2f %9.2f %9.2f %11.2f %7.2fx %7.2fx%s\n",
                bc.name.c_str(), bc.alpha, t.seed_ms, t.serial_ms,
                t.parallel_ms, t.seed_ms / t.serial_ms,
                t.seed_ms / t.parallel_ms,
                t.identical ? "" : "  OUTPUT MISMATCH");
    for (const auto& [tier, ms] : t.tier_ms) {
      std::printf("%28s %-9s %9.2f ms %7.2f GFLOP/s\n", "tier",
                  KernelTierName(tier), ms, t.flops / ms / 1e6);
    }
    timings.push_back(t);
  }
  std::printf("\n%-28s %7s %9s %9s %11s %8s %8s\n", "conv shape", "alpha",
              "dense_ms", "serial_ms", "parallel_ms", "dense_x", "par_x");
  std::vector<ConvTiming> conv_timings;
  for (const ConvCase& cc : conv_cases) {
    const ConvTiming t = RunConvCase(cc, reps, /*v=*/8);
    all_identical = all_identical && t.identical;
    std::printf("%-28s %7.2f %9.2f %9.2f %11.2f %7.2fx %7.2fx%s\n",
                cc.name.c_str(), cc.alpha, t.dense_ms, t.serial_ms,
                t.parallel_ms, t.dense_ms / t.parallel_ms,
                t.serial_ms / t.parallel_ms,
                t.identical ? "" : "  OUTPUT MISMATCH");
    conv_timings.push_back(t);
  }

  const bool wrote =
      WriteJson(out, cases, timings, conv_cases, conv_timings, threads);
  if (wrote) std::printf("wrote %s\n", out.c_str());
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: parallel output not bit-identical\n");
    return 1;
  }
  return wrote ? 0 : 1;
}

}  // namespace
}  // namespace shflbw

int main(int argc, char** argv) { return shflbw::Main(argc, argv); }
