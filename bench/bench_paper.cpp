// Paper reproduction: every figure, table, ablation and analysis of the
// Shfl-BW paper that this repo reproduces, printed as tables and written
// to BENCH_paper.json. docs/REPRODUCTION.md says what stands in for the
// paper's GPUs, trained models and datasets.
//
// Every number in the JSON is the text printed for it, and sits next to
// the paper's value wherever the repo quotes one. Claims are recorded
// with whether they hold: a checked claim that fails fails the run; a
// deviation (a paper figure or reading the model does not reproduce) is
// recorded and gated only by CI's diff of the JSON.
//
// Flags: --smoke (skips the sections that take seconds: Fig. 2,
//                 Table 1 and the importance ablation; the ctest)
//        --out=FILE (default BENCH_paper.json)
//
// Exit status: 1 if a checked claim fails or --out cannot be written,
// 2 on an unknown flag, else 0.
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/cost_model.h"
#include "arch/flexibility.h"
#include "arch/intensity.h"
#include "arch/occupancy.h"
#include "bench_util.h"
#include "common/check.h"
#include "common/rng.h"
#include "kernels/gemm_dense.h"
#include "kernels/layernorm_fuse.h"
#include "kernels/spmm_csr.h"
#include "kernels/spmm_shfl_bw.h"
#include "kernels/spmm_tilewise.h"
#include "kernels/spmm_vector_sparse.h"
#include "kernels/spmm_vector_wise.h"
#include "model/gnmt.h"
#include "model/resnet50.h"
#include "model/transformer.h"
#include "model/weight_synth.h"
#include "nn/trainer.h"
#include "prune/block_wise.h"
#include "prune/importance.h"
#include "prune/shfl_bw_search.h"
#include "prune/taylor_importance.h"
#include "prune/vector_wise_prune.h"
#include "quality/quality_evaluator.h"
#include "runtime/planner.h"

namespace shflbw {
namespace {

// ---- Report: what is printed, as the JSON records it --------------------

[[gnu::format(printf, 1, 2)]] std::string Fmt(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

/// `v` with `precision` decimals: the text both stdout and the JSON carry.
std::string Fixed(double v, int precision) {
  return Fmt("%.*f", precision, v);
}

/// The printed text back as a number: checks read what a reader sees.
double Printed(const std::string& text) {
  return std::strtod(text.c_str(), nullptr);
}

/// `s` without leading/trailing blanks and with inner runs collapsed.
std::string Collapse(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c != ' ') {
      out += c;
    } else if (!out.empty() && out.back() != ' ') {
      out += ' ';
    }
  }
  if (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

/// One printed column: cells are " " + the number right-aligned in
/// `width` + `suffix`, or "n/a" right-aligned across both.
struct Column {
  std::string name;
  int width;
  int precision;
  const char* suffix = "";
};

std::vector<Column> Columns(const std::vector<std::string>& names, int width,
                            int precision, const char* suffix = "") {
  std::vector<Column> out;
  for (const std::string& n : names) {
    out.push_back({n, width, precision, suffix});
  }
  return out;
}

/// A printed table, as the JSON records it.
struct Table {
  struct Row {
    std::string label;               // printed label, blanks collapsed
    std::vector<std::string> cells;  // printed text, or "null" for n/a
  };

  std::string name;
  std::vector<Column> columns;
  std::vector<Row> rows;

  /// Prints `label` followed by one cell per column, and records the row.
  void Add(const std::string& label,
           const std::vector<std::optional<double>>& values) {
    if (values.size() != columns.size()) {
      throw std::logic_error("table " + name + ": row width mismatch");
    }
    Row row{Collapse(label), {}};
    std::string line = label;
    for (std::size_t i = 0; i < values.size(); ++i) {
      const Column& c = columns[i];
      if (values[i]) {
        row.cells.push_back(Fixed(*values[i], c.precision));
        line += Fmt(" %*s%s", c.width, row.cells.back().c_str(), c.suffix);
      } else {
        row.cells.push_back("null");
        line += Fmt(" %*s",
                    c.width + static_cast<int>(std::strlen(c.suffix)), "n/a");
      }
    }
    std::printf("%s\n", line.c_str());
    rows.push_back(std::move(row));
  }

  /// The printed text of column `col` in the row labelled `label`.
  const std::string& Text(const std::string& label, std::size_t col) const {
    for (const Row& r : rows) {
      if (r.label == Collapse(label)) return r.cells.at(col);
    }
    throw std::logic_error("table " + name + ": no row '" + label + "'");
  }
  double At(const std::string& label, std::size_t col) const {
    return Printed(Text(label, col));
  }
};

/// A number printed outside a table. `paper` is the paper's value, or
/// its [lo, hi] range, where the repo quotes one.
struct Value {
  std::string name;
  std::string text;
  std::vector<double> paper;
};

struct Claim {
  std::string name;
  std::string statement;
  bool checked;  // false: a recorded deviation
  bool holds;
};

/// One figure, table, ablation or analysis: everything it printed.
struct Section {
  std::string name;
  std::deque<Table> tables;  // stable references for AddTable callers
  std::vector<Value> values;
  std::vector<Claim> claims;

  Table& AddTable(std::string table, std::vector<Column> columns) {
    return tables.emplace_back(
        Table{std::move(table), std::move(columns), {}});
  }
  void AddValue(std::string value, std::string text,
                std::vector<double> paper = {}) {
    values.push_back({std::move(value), std::move(text), std::move(paper)});
  }
  void Check(std::string claim, std::string statement, bool holds) {
    claims.push_back({std::move(claim), std::move(statement), true, holds});
  }
  void Deviation(std::string claim, std::string statement, bool holds) {
    claims.push_back({std::move(claim), std::move(statement), false, holds});
  }
};

// ---- Figure 1 -----------------------------------------------------------

// SpMM throughput vs density, normalized to the CUDA-core dense GEMM, on
// GEMM shape M/N/K = 2048/128/2048 (V100). The paper marks three
// regions:
//  A: CUDA-core sparse (Sputnik) passes CUDA-core dense near 65% sparsity
//  B: CUDA-core sparse passes tensor-core dense only near 95%
//  C: tensor-core sparse (Shfl-BW) passes tensor-core dense around
//     50-60% sparsity.
void Fig1(Section& s) {
  constexpr int kM = 2048, kN = 128, kK = 2048;
  const GpuSpec& spec = GetGpuSpec(GpuArch::kV100);
  const CostModel model(spec);

  const KernelStats dense_cc = GemmCudaCoreStats(kM, kN, kK, spec);
  const KernelStats dense_tc = GemmTensorCoreStats(kM, kN, kK, spec);
  // Normalization: dense throughput uses the DENSE flop count.
  const double cc_dense_tput = dense_cc.useful_flops / model.Seconds(dense_cc);
  const double tc_dense_tput = dense_tc.useful_flops / model.Seconds(dense_tc);

  bench::Title(
      "Figure 1 — SpMM throughput vs density (M/N/K=2048/128/2048, V100)\n"
      "All numbers normalized to CUDA-core dense GEMM throughput.\n"
      "Sparse curves use EFFECTIVE throughput: dense-equivalent flops / "
      "time");
  std::printf("%8s %14s %14s %14s %14s\n", "density", "cuda-dense",
              "tensor-dense", "cuda-sparse", "tc-sparse(ours)");
  Table& t = s.AddTable(
      "throughput",
      Columns({"cuda-dense", "tensor-dense", "cuda-sparse", "tc-sparse(ours)"},
              13, 2, "x"));

  double cross_a = -1, cross_b = -1, cross_c = -1;
  double prev_sputnik = 0, prev_shflbw = 0;
  const std::vector<double> densities{0.02, 0.03, 0.05, 0.08, 0.10, 0.15,
                                      0.20, 0.25, 0.30, 0.35, 0.40, 0.50,
                                      0.60, 0.70, 0.80, 0.90, 1.00};
  // Effective speedup = dense flops / sparse time: "how much faster is
  // the layer", the quantity Fig. 1 plots.
  const double dense_flops = 2.0 * kM * kN * kK;
  for (auto it = densities.rbegin(); it != densities.rend(); ++it) {
    const double d = *it;
    const KernelStats sputnik =
        SpmmSputnikStats(kM, kN, kK, d * kM * kK, spec);
    const KernelStats shflbw = SpmmShflBwStats(kM, kN, kK, d, 64, spec);
    const double sputnik_tput = dense_flops / model.Seconds(sputnik);
    const double shflbw_tput = dense_flops / model.Seconds(shflbw);
    t.Add(Fmt("%7.0f%%", d * 100),
          {1.0, tc_dense_tput / cc_dense_tput, sputnik_tput / cc_dense_tput,
           shflbw_tput / cc_dense_tput});
    // Crossings, scanning density downward (sparsity upward).
    if (cross_a < 0 && sputnik_tput > cc_dense_tput &&
        prev_sputnik <= cc_dense_tput && prev_sputnik > 0) {
      cross_a = d;
    }
    if (cross_b < 0 && sputnik_tput > tc_dense_tput &&
        prev_sputnik <= tc_dense_tput && prev_sputnik > 0) {
      cross_b = d;
    }
    if (cross_c < 0 && shflbw_tput > tc_dense_tput &&
        prev_shflbw <= tc_dense_tput && prev_shflbw > 0) {
      cross_c = d;
    }
    prev_sputnik = sputnik_tput;
    prev_shflbw = shflbw_tput;
  }

  bench::Section("Crossover sparsities (paper: A ~65%, B ~95%, C ~50-60%)");
  const auto sparsity = [](double cross) {
    return Fixed(cross > 0 ? (1 - cross) * 100 : -1.0, 0);
  };
  const std::string a = sparsity(cross_a), b = sparsity(cross_b),
                    c = sparsity(cross_c);
  std::printf("A: cuda-sparse beats cuda-dense at sparsity > %s%%\n",
              a.c_str());
  std::printf("B: cuda-sparse beats tensor-dense at sparsity > %s%%\n",
              b.c_str());
  std::printf("C: tc-sparse (ours) beats tensor-dense at sparsity > %s%%\n",
              c.c_str());
  s.AddValue("crossover_a_sparsity_pct", a, {65});
  s.AddValue("crossover_b_sparsity_pct", b, {95});
  s.AddValue("crossover_c_sparsity_pct", c, {50, 60});
  s.Deviation("crossover_c_in_paper_range",
              "tc-sparse passes tensor-dense inside the paper's 50-60% "
              "sparsity range",
              Printed(c) >= 50 && Printed(c) <= 60);
}

// ---- Model speedup and proxy quality (Fig. 2, Fig. 6, Table 1, §7) ------

/// Modelled seconds of one invocation of a layer, or nullopt where the
/// kernel cannot run it.
using LayerSecondsFn =
    std::function<std::optional<double>(const runtime::LayerDesc&)>;

/// Whole-model speedup of `sparse_seconds` over the dense baseline on
/// `arch` (§6.1: the sum of the compute-intensive layers, each weighted
/// by its repeat count), or nullopt where some layer cannot run.
std::optional<double> ModelSpeedup(const runtime::ModelDesc& model,
                                   const LayerSecondsFn& sparse_seconds,
                                   GpuArch arch) {
  runtime::PlannerOptions dense;
  dense.arch = arch;
  double dense_s = 0.0, sparse_s = 0.0;
  for (const runtime::LayerDesc& l : model.layers) {
    const auto s = sparse_seconds(l);
    if (!s) return std::nullopt;
    dense_s +=
        *runtime::ModeledLayerSeconds(l, runtime::Format::kDense, dense) *
        l.repeat;
    sparse_s += *s * l.repeat;
  }
  return dense_s / sparse_s;
}

/// The same for `format` at (density, v), each layer timed exactly as a
/// plan pinned to that format times it (runtime::ModeledLayerSeconds).
std::optional<double> ModelSpeedup(const runtime::ModelDesc& model,
                                   runtime::Format format, double density,
                                   int v, GpuArch arch) {
  runtime::PlannerOptions point;
  point.density = density;
  point.v = v;
  point.arch = arch;
  return ModelSpeedup(
      model,
      [&](const runtime::LayerDesc& l) {
        return runtime::ModeledLayerSeconds(l, format, point);
      },
      arch);
}

/// Maps relative retention to the model's quality metric:
///   score = dense_score * relative_retention^sensitivity.
/// Unstructured pruning maps to ~dense_score (matching the paper, where
/// fine-tuned unstructured models sit within a few tenths of dense);
/// structured patterns are discounted by how much pattern-constrained
/// selection loses versus free selection. `sensitivity` is calibrated
/// per model (docs/REPRODUCTION.md §2); pattern orderings are
/// independent of it.
double ProxyQuality(double dense_score, double relative_retention,
                    double sensitivity) {
  SHFLBW_CHECK_MSG(relative_retention >= 0.0 && relative_retention <= 1.0001,
                   "relative_retention " << relative_retention);
  return dense_score *
         std::pow(std::min(relative_retention, 1.0), sensitivity);
}

/// A proxy weight: the m x k master SynthesizeWeights draws at `seed`.
struct ProxyWeight {
  int m, k;
  std::uint64_t seed;
};

/// Proxy score of pruning every weight in `weights` to `format` at
/// (density, v). Its retained importance, relative to unstructured
/// pruning at the same density (the pattern penalty, isolated from the
/// sparsity penalty that fine-tuning largely recovers), goes through
/// ProxyQuality. Retained importance is the planner's: `evaluator`
/// scores each weight as a one-GEMM layer.
double ProxyScore(quality::QualityEvaluator& evaluator,
                  const std::vector<ProxyWeight>& weights,
                  runtime::Format format, double density, int v,
                  double dense_score, double sensitivity) {
  double retained = 0.0, unstructured = 0.0;
  for (const ProxyWeight& w : weights) {
    runtime::LayerDesc l;
    l.gemm = {"proxy", w.m, 1, w.k};
    const double total = evaluator.LayerTotalScore(l, 0, w.seed);
    retained +=
        evaluator.LayerRetainedRatio(l, 0, w.seed, format, density, v) * total;
    unstructured += evaluator.LayerRetainedRatio(
                        l, 0, w.seed, runtime::Format::kCsr, density, v) *
                    total;
  }
  return ProxyQuality(dense_score,
                      unstructured > 0.0 ? retained / unstructured : 0.0,
                      sensitivity);
}

// ---- Figure 2 -----------------------------------------------------------

/// GNMT proxy weights: one synthetic weight matrix per distinct GNMT
/// layer shape, scaled down 4x in each dimension to keep the search
/// tractable while preserving the V:rows ratios.
std::vector<ProxyWeight> GnmtProxyWeights() {
  std::vector<ProxyWeight> weights;
  std::uint64_t seed = 7000;
  for (const GemmLayerSpec& l : GnmtLayers()) {
    weights.push_back({l.m / 4, l.k / 4, seed++});
  }
  return weights;
}

// Accuracy-speedup trade-off of GNMT on V100. X axis: proxy BLEU; Y axis:
// modelled speedup over the tensor-core dense baseline. Curves:
// unstructured (Sputnik), block-wise V=32, and Shfl-BW V=32/64/128,
// swept from 80% to 90% sparsity.
void Fig2(Section& s) {
  // Proxy calibration for GNMT: dense BLEU 24.6 (paper Fig. 2 axis top);
  // sensitivity fit so block-wise V=32 at 80% lands on Table 1's 13.83
  // (GNMT is the pattern-sensitive model). Orderings are calibration-free.
  constexpr double kDenseBleu = 24.6;
  constexpr double kSensitivity = 0.52;
  const runtime::ModelDesc gnmt = runtime::ModelDesc::Gnmt();
  const std::vector<ProxyWeight> weights = GnmtProxyWeights();
  quality::QualityEvaluator evaluator;

  bench::Title(
      "Figure 2 — GNMT accuracy vs speedup on V100 (sparsity 80% -> 90%)\n"
      "speedup = modelled time(dense tensor-core) / time(pattern kernel)\n"
      "BLEU = retained-importance proxy (see docs/REPRODUCTION.md)");

  struct Curve {
    const char* name;
    runtime::Format format;
    int v;
  };
  const std::vector<Curve> curves{
      {"Unstructured", runtime::Format::kCsr, 32},
      {"Block-wise V=32", runtime::Format::kBsr, 32},
      {"Shfl-BW V=32", runtime::Format::kShflBw, 32},
      {"Shfl-BW V=64", runtime::Format::kShflBw, 64},
      {"Shfl-BW V=128", runtime::Format::kShflBw, 128},
  };

  std::printf("%-18s %9s %12s %12s\n", "pattern", "sparsity", "proxy-BLEU",
              "speedup");
  Table& t = s.AddTable("gnmt_v100",
                        {{"proxy-BLEU", 12, 2}, {"speedup", 10, 2, "x"}});
  for (const Curve& c : curves) {
    for (double sparsity : {0.80, 0.85, 0.90}) {
      const double density = 1.0 - sparsity;
      t.Add(Fmt("%-18s %8.0f%%", c.name, sparsity * 100),
            {ProxyScore(evaluator, weights, c.format, density, c.v,
                        kDenseBleu, kSensitivity),
             ModelSpeedup(gnmt, c.format, density, c.v, GpuArch::kV100)});
    }
  }
  s.AddValue("block_wise_v32_80pct_bleu", t.Text("Block-wise V=32 80%", 0),
             {13.83});

  bench::Section("Paper's reading of Fig. 2");
  std::printf(
      "* Unstructured: best BLEU but speedup < 1 (no tensor-cores).\n"
      "* Shfl-BW achieves practical speedup (>1x) at BLEU close to "
      "unstructured.\n"
      "* Shfl-BW V=64 dominates block-wise V=32 on both axes at 80-85%% "
      "sparsity.\n");
  bool dominates = true;
  for (const std::string sp : {"80%", "85%"}) {
    for (std::size_t col : {0, 1}) {
      dominates = dominates && t.At("Shfl-BW V=64 " + sp, col) >
                                   t.At("Block-wise V=32 " + sp, col);
    }
  }
  s.Check("shflbw_v64_dominates_block_wise_v32",
          "Shfl-BW V=64 beats block-wise V=32 on proxy BLEU and speedup at "
          "80% and 85% sparsity",
          dominates);
}

// ---- Figure 6 -----------------------------------------------------------

// Speedup over the dense baseline on three GPUs (V100, T4, A100) x three
// models (Transformer, GNMT, ResNet50) x sparsity levels {50, 75, 85,
// 95}% for every kernel in the paper's comparison. Notes from §6.2:
//  * baselines lack convolution, so the ResNet50 column only has the
//    dense baseline and our VW / Shfl-BW kernels;
//  * Tilewise and VectorSparse were compiled on V100 only;
//  * balanced 2:4 exists only on A100 at 50%.
// A row with a runtime format is timed exactly as the planner times it.
// The three baselines the runtime cannot select model GEMM layers with
// their own stats model and V rule.
using BaselineStats = std::optional<KernelStats> (*)(const GemmLayerSpec& l,
                                                     double density,
                                                     const GpuSpec& spec);

std::optional<KernelStats> CsrScalarBaseline(const GemmLayerSpec& l,
                                             double density,
                                             const GpuSpec& spec) {
  return SpmmCsrScalarStats(l.m, l.n, l.k, density * l.m * l.k, spec);
}

std::optional<KernelStats> VectorSparseBaseline(const GemmLayerSpec& l,
                                                double density,
                                                const GpuSpec& spec) {
  if (l.m % kVectorSparseV != 0) return std::nullopt;
  return SpmmVectorSparseStats(l.m, l.n, l.k, density, spec);
}

std::optional<KernelStats> TilewiseBaseline(const GemmLayerSpec& l,
                                            double density,
                                            const GpuSpec& spec) {
  if (l.m % kTilewiseV != 0) return std::nullopt;
  return SpmmTilewiseStats(l.m, l.n, l.k, density, spec);
}

struct Fig6Row {
  const char* name;
  std::optional<runtime::Format> format;  // nullopt: `baseline` times it
  BaselineStats baseline;
  int v;
  bool v100_only;  // Tilewise / VectorSparse baselines
};

const std::vector<Fig6Row> kFig6Rows{
    {"cuSPARSE (unstr.)", std::nullopt, CsrScalarBaseline, 32, false},
    {"Sputnik (unstr.)", runtime::Format::kCsr, nullptr, 32, false},
    {"VectorSparse VW,V=8", std::nullopt, VectorSparseBaseline, 8, true},
    {"Tilewise VW,V=128", std::nullopt, TilewiseBaseline, 128, true},
    {"cuSPARSE BW,V=32", runtime::Format::kBsr, nullptr, 32, false},
    {"cuSPARSE BW,V=64", runtime::Format::kBsr, nullptr, 64, false},
    {"Ours VW,V=32", runtime::Format::kVectorWise, nullptr, 32, false},
    {"Ours VW,V=64", runtime::Format::kVectorWise, nullptr, 64, false},
    {"Shfl-BW,V=32", runtime::Format::kShflBw, nullptr, 32, false},
    {"Shfl-BW,V=64", runtime::Format::kShflBw, nullptr, 64, false},
    {"Balanced 2:4", runtime::Format::kBalanced24, nullptr, 4, false},
};

const std::vector<double> kFig6Sparsities{0.50, 0.75, 0.85, 0.95};

/// Modelled whole-model speedup of `row` at kept density `density`, or
/// nullopt where its kernel cannot run some layer.
std::optional<double> Fig6Cell(const Fig6Row& row,
                               const runtime::ModelDesc& model,
                               double density, const GpuSpec& spec) {
  if (row.format) {
    return ModelSpeedup(model, *row.format, density, row.v, spec.arch);
  }
  return ModelSpeedup(
      model,
      [&](const runtime::LayerDesc& l) -> std::optional<double> {
        if (l.kind != runtime::LayerKind::kGemm) return std::nullopt;
        const auto stats = row.baseline(l.gemm, density, spec);
        if (!stats) return std::nullopt;
        return CostModel(spec).Seconds(*stats);
      },
      spec.arch);
}

void Fig6Panel(Section& s, const GpuSpec& spec,
               const runtime::ModelDesc& model, const std::string& title) {
  bench::Section(spec.name + " / " + title);
  std::printf("%-22s", "kernel \\ sparsity");
  std::vector<std::string> names;
  for (double sp : kFig6Sparsities) {
    std::printf(" %7.0f%%", sp * 100);
    names.push_back(Fixed(sp * 100, 0) + "%");
  }
  std::printf("\n");
  Table& t = s.AddTable(spec.name + "_" + model.name,
                        Columns(names, 7, 2, "x"));
  for (const Fig6Row& row : kFig6Rows) {
    if (row.v100_only && spec.arch != GpuArch::kV100) continue;
    std::vector<std::optional<double>> cells;
    for (double sp : kFig6Sparsities) {
      cells.push_back(Fig6Cell(row, model, 1.0 - sp, spec));
    }
    t.Add(Fmt("%-22s", row.name), cells);
  }
}

void Fig6(Section& s) {
  bench::Title(
      "Figure 6 — speedup over dense baseline, 3 GPUs x 3 models\n"
      "(paper headline: Shfl-BW V=64 @75% on Transformer = 1.81x V100, "
      "4.18x T4, 1.90x A100)");
  const runtime::ModelDesc transformer = runtime::ModelDesc::Transformer();
  const runtime::ModelDesc gnmt = runtime::ModelDesc::Gnmt();
  const runtime::ModelDesc resnet = runtime::ModelDesc::ResNet50();
  for (const GpuSpec& spec : AllGpus()) {
    Fig6Panel(s, spec, transformer, "Transformer");
    Fig6Panel(s, spec, gnmt, "GNMT");
    Fig6Panel(s, spec, resnet,
              "ResNet50 (conv — baselines lack conv kernels)");
  }

  bench::Section("Headline check (Shfl-BW V=64, 75% sparsity, Transformer)");
  for (const GpuSpec& spec : AllGpus()) {
    const double paper = spec.arch == GpuArch::kV100 ? 1.81
                         : spec.arch == GpuArch::kT4 ? 4.18
                                                     : 1.90;
    const std::string got = Fixed(
        *ModelSpeedup(transformer, runtime::Format::kShflBw, 0.25, 64,
                      spec.arch),
        2);
    std::printf("%-6s modelled %5sx (paper: %sx)\n", spec.name.c_str(),
                got.c_str(), Fixed(paper, 2).c_str());
    s.AddValue("headline_" + spec.name, got, {paper});
    s.Check("headline_" + spec.name + "_within_2pct",
            "Shfl-BW V=64 at 75% on Transformer (" + spec.name +
                ") within 2% of the paper's speedup",
            std::fabs(Printed(got) - paper) <= 0.02 * paper);
  }
}

// ---- Table 1 ------------------------------------------------------------

// Quality of pruned models under different sparse patterns at 80% and
// 90% sparsity, with two substitutions for the paper's trained models
// (docs/REPRODUCTION.md): (a) retained-importance proxy scores on
// synthetic weights, calibrated per model to the paper's metric scale;
// (b) a real train -> prune -> fine-tune experiment on a small MLP.
struct ModelProxy {
  const char* name;
  double dense_score;
  double sensitivity;
  int m, k;
};

// Sensitivity = how strongly each model's metric reacts to the pattern
// penalty (relative retention vs unstructured at equal density), fit to
// one Table 1 anchor per model (BW V=32 @80%): Transformer and ResNet50
// barely react, GNMT craters (paper: 13.83 BLEU). Orderings between
// patterns are calibration-free.
const std::vector<ModelProxy> kModels{
    {"Transformer (BLEU)", 27.6, 0.06, 256, 256},
    {"GNMT (BLEU)", 24.6, 0.52, 256, 128},
    {"ResNet50 (Top-1 %)", 76.5, 0.02, 128, 256},
};

/// Shfl-BW > VW > BW at block size `v` in column `col` of `t`, whose
/// rows are labelled `prefix` + "<pattern>, V=<v>".
bool PatternOrderHolds(const Table& t, const std::string& prefix, int v,
                       std::size_t col) {
  const std::string suffix = ", V=" + std::to_string(v);
  const double shflbw = t.At(prefix + "Shfl-BW" + suffix, col);
  const double vw = t.At(prefix + "VW" + suffix, col);
  return shflbw > vw && vw > t.At(prefix + "BW" + suffix, col);
}

/// The synthetic clustered dataset and the training schedule shared by
/// Table 1(b) and the importance ablation.
nn::Dataset MlpData() {
  nn::DatasetOptions opt;
  opt.num_classes = 8;
  opt.dim = 32;
  opt.train_per_class = 120;
  opt.test_per_class = 40;
  return nn::MakeClusterDataset(opt);
}

nn::TrainOptions MlpTraining() {
  nn::TrainOptions opt;
  opt.epochs = 25;
  opt.batch_size = 48;
  return opt;
}

void Table1Proxy(Section& s) {
  struct PatternRow {
    const char* name;
    runtime::Format format;
    int v;
  };
  const std::vector<PatternRow> patterns{
      {"BW,  V=32", runtime::Format::kBsr, 32},
      {"VW,  V=32", runtime::Format::kVectorWise, 32},
      {"Shfl-BW, V=32", runtime::Format::kShflBw, 32},
      {"Shfl-BW, V=64", runtime::Format::kShflBw, 64},
  };

  bench::Section(
      "Table 1(a): retained-importance proxy (paper's metric scale)");
  std::printf("%-10s %-15s", "sparsity", "pattern");
  std::vector<std::string> names;
  for (const ModelProxy& m : kModels) {
    std::printf(" %20s", m.name);
    names.push_back(m.name);
  }
  std::printf("\n");
  Table& t = s.AddTable("proxy", Columns(names, 20, 2));
  quality::QualityEvaluator evaluator;
  for (double sparsity : {0.80, 0.90}) {
    for (const PatternRow& p : patterns) {
      std::vector<std::optional<double>> cells;
      for (const ModelProxy& m : kModels) {
        std::vector<ProxyWeight> weights;
        for (int i = 0; i < 3; ++i) {
          weights.push_back(
              {m.m, m.k, static_cast<std::uint64_t>(9000 + i * 131 + m.m)});
        }
        cells.push_back(ProxyScore(evaluator, weights, p.format,
                                   1.0 - sparsity, p.v, m.dense_score,
                                   m.sensitivity));
      }
      t.Add(Fmt("%9.0f%% %-15s", sparsity * 100, p.name), cells);
    }
  }
  s.AddValue("gnmt_bw_v32_80pct_bleu", t.Text("80% BW, V=32", 1), {13.83});
  bool ordered = true;
  for (const std::string sp : {"80% ", "90% "}) {
    for (std::size_t col = 0; col < kModels.size(); ++col) {
      ordered = ordered && PatternOrderHolds(t, sp, 32, col);
    }
  }
  s.Check("proxy_ordering_v32",
          "Shfl-BW > VW > BW at V=32 for every model at 80% and 90% sparsity",
          ordered);
}

void Table1Mlp(Section& s) {
  bench::Section(
      "Table 1(b): REAL accuracy — MLP trained, pruned per pattern\n"
      "'pruned' = one-shot prune, no recovery (isolates the pattern\n"
      "penalty); 'fine-tuned' = +grow-and-prune fine-tuning. Mean of 3 "
      "seeds.");
  const nn::Dataset data = MlpData();
  const nn::TrainOptions topt = MlpTraining();
  nn::TrainOptions ft = topt;
  ft.epochs = 6;

  constexpr int kSeeds = 3;
  const std::vector<int> dims{32, 96, 96, 8};
  const double sparsity = 0.85;

  // Dense baseline (averaged over the same seeds).
  double dense_acc = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    nn::Mlp model(dims, /*seed=*/55 + seed);
    nn::Trainer trainer(model, data);
    trainer.Train(topt);
    dense_acc += trainer.TestAccuracy();
  }
  dense_acc /= kSeeds;
  std::printf("%-18s %12s %12s   (85%% sparsity)\n", "pattern", "pruned",
              "fine-tuned");
  const std::string dense = Fixed(dense_acc * 100, 1);
  std::printf("%-18s %11s%% (dense baseline)\n", "dense", dense.c_str());
  s.AddValue("dense_accuracy_pct", dense);

  struct MlpPattern {
    const char* name;
    nn::LayerMasker masker;
  };
  const int v = 16;  // scaled to the MLP's 96-wide hidden layers
  const std::vector<MlpPattern> patterns{
      {"BW,  V=16",
       [&](const Matrix<float>& w, double d) {
         return BlockWiseMask(w, d, v);
       }},
      {"VW,  V=16",
       [&](const Matrix<float>& w, double d) {
         return VectorWiseMask(w, d, v);
       }},
      {"Shfl-BW, V=16",
       [&](const Matrix<float>& w, double d) {
         return ShflBwSearch(w, d, v).mask;
       }},
      {"Shfl-BW, V=32",
       [&](const Matrix<float>& w, double d) {
         return ShflBwSearch(w, d, 32).mask;
       }},
  };
  Table& t = s.AddTable("mlp_accuracy",
                        Columns({"pruned", "fine-tuned"}, 11, 1, "%"));
  for (const MlpPattern& p : patterns) {
    double pruned_acc = 0, tuned_acc = 0;
    for (int seed = 0; seed < kSeeds; ++seed) {
      nn::Mlp model(dims, /*seed=*/55 + seed);
      nn::Trainer trainer(model, data);
      trainer.Train(topt);
      trainer.PruneModel(p.masker, 1.0 - sparsity);
      pruned_acc += trainer.TestAccuracy();
      trainer.GrowAndPruneFineTune(p.masker, 1.0 - sparsity, /*rounds=*/2,
                                   /*grow_ratio=*/0.3, ft);
      tuned_acc += trainer.TestAccuracy();
    }
    t.Add(Fmt("%-18s", p.name),
          {pruned_acc / kSeeds * 100, tuned_acc / kSeeds * 100});
  }
  const bool ordered =
      PatternOrderHolds(t, "", v, 0) && PatternOrderHolds(t, "", v, 1);
  s.Check("mlp_ordering_v16",
          "Shfl-BW > VW > BW at V=16, pruned and fine-tuned", ordered);
}

void Table1(Section& s) {
  bench::Title(
      "Table 1 — pruned-model quality by sparse pattern (80% / 90%)\n"
      "Expected ordering (paper): Shfl-BW > VW > BW at equal V;\n"
      "Shfl-BW V=64 competitive with (often above) VW at V=32.");
  Table1Proxy(s);
  Table1Mlp(s);
}

// ---- Ablations ----------------------------------------------------------

// Importance criterion fed to the §5 search. The search is
// score-agnostic; this compares magnitude (the paper's choice), pure
// first-order Taylor (|w * dL/dw| from a real backward pass), and a
// 50/50 blend — measured as actual test accuracy of the pruned MLP
// before any fine-tuning (the criterion's own merit).
void AblationImportance(Section& s) {
  bench::Title(
      "Ablation — importance criterion for the Shfl-BW search (§5 is "
      "score-agnostic)");

  const nn::Dataset data = MlpData();
  const nn::TrainOptions topt = MlpTraining();

  std::printf("%-22s %10s %10s\n", "criterion", "75% spar.", "85% spar.");
  Table& t = s.AddTable("pruned_accuracy",
                        Columns({"75% spar.", "85% spar."}, 9, 1, "%"));
  for (int criterion = 0; criterion < 3; ++criterion) {
    const char* name = criterion == 0   ? "magnitude |w|"
                       : criterion == 1 ? "taylor |w*g|"
                                        : "blend 50/50";
    std::vector<std::optional<double>> cells;
    for (double sparsity : {0.75, 0.85}) {
      nn::Mlp model({32, 96, 96, 8}, /*seed=*/123);
      nn::Trainer trainer(model, data);
      trainer.Train(topt);

      // One scoring backward pass over the full training set.
      const nn::LossResult lr = nn::SoftmaxCrossEntropy(
          model.Forward(data.train_x), data.train_y);
      model.Backward(lr.grad_logits);

      for (nn::Linear* layer : model.PrunableLayers()) {
        Matrix<float> scores;
        switch (criterion) {
          case 0: scores = MagnitudeScores(layer->weights()); break;
          case 1:
            scores = TaylorScores(layer->weights(), layer->grad_weights());
            break;
          default:
            scores = BlendedScores(layer->weights(),
                                   layer->grad_weights(), 0.5);
        }
        layer->SetMask(ShflBwSearch(scores, 1.0 - sparsity, 16).mask);
        layer->grad_weights() = Matrix<float>(layer->weights().rows(),
                                              layer->weights().cols());
      }
      cells.push_back(trainer.TestAccuracy() * 100);
    }
    t.Add(Fmt("%-22s", name), cells);
  }

  bench::Section("Reading");
  std::printf(
      "* The search composes with any importance signal unchanged — the "
      "point of §5\n  taking 'the importance scores of all weights' as "
      "input.\n"
      "* At a converged model, gradients are small and noisy, so plain "
      "magnitude\n  (the paper's choice) is the strongest one-shot "
      "criterion at 75%% sparsity;\n  gradient-aware scores matter more "
      "when pruning mid-training.\n");
  s.Check("magnitude_strongest_at_75pct",
          "magnitude beats Taylor and the blend at 75% sparsity",
          t.At("magnitude |w|", 0) > t.At("taylor |w*g|", 0) &&
              t.At("magnitude |w|", 0) > t.At("blend 50/50", 0));
}

// The §4.3 layout discussion: the Shfl-BW kernels want batch-innermost
// activations; models with LayerNorm keep features contiguous, so a
// transposition is needed — "transposition can be easily fused into
// previous LayerNorm and involves negligible overhead".
void AblationLayerNormFuse(Section& s) {
  bench::Title("Ablation — LayerNorm-fused transposition (§4.3)");

  bench::Section(
      "Modelled time (V100): fused LN+transpose vs LN + standalone "
      "transpose, next to the Shfl-BW GEMM it feeds");
  const GpuSpec& spec = GetGpuSpec(GpuArch::kV100);
  const CostModel model(spec);
  std::printf("%-22s %12s %12s %14s %12s\n", "tokens x features",
              "fused (us)", "unfused (us)", "spmm@75% (us)",
              "fusion save");
  Table& t = s.AddTable("modelled_us_v100", {{"fused (us)", 12, 2},
                                             {"unfused (us)", 12, 2},
                                             {"spmm@75% (us)", 14, 2},
                                             {"fusion save", 11, 1, "%"}});
  struct Shape {
    int tokens, features;
  };
  for (const Shape& sh :
       {Shape{128, 512}, Shape{512, 512}, Shape{512, 1024},
        Shape{2048, 1024}}) {
    const double fused =
        model.Seconds(LayerNormFusedStats(sh.tokens, sh.features, spec));
    const double unfused = model.Seconds(
        LayerNormThenTransposeStats(sh.tokens, sh.features, spec));
    const double spmm = model.Seconds(SpmmShflBwStats(
        4 * sh.features, sh.tokens, sh.features, 0.25, 64, spec));
    t.Add(Fmt("%8d x %-11d", sh.tokens, sh.features),
          {fused * 1e6, unfused * 1e6, spmm * 1e6,
           (unfused - fused) / (spmm + unfused) * 100});
  }
  bench::Section("Reading");
  std::printf(
      "* The fused variant removes one full activation read+write; "
      "relative to the\n  GEMM it feeds, the standalone transpose would "
      "cost 10-25%% extra — fusing\n  makes the layout requirement "
      "effectively free, as the paper asserts.\n");
}

// Occupancy / wave quantization. The base model assumes full SM
// utilization; this shows the launch-shape tail effects the refinement
// captures — notably why the Fig. 1 shape (M/N = 2048/128, only 16
// dense threadblocks on an 80-SM V100) flatters sparse kernels, whose
// V-tall tiles launch more blocks.
void AblationOccupancy(Section& s) {
  bench::Title("Ablation — occupancy & wave quantization");
  const GpuSpec& spec = GetGpuSpec(GpuArch::kV100);
  const CostModel model(spec);

  bench::Section("Dense GEMM launch shapes on V100 (80 SMs)");
  std::printf("%-22s %8s %7s %12s %14s %14s\n", "M/N/K", "blocks", "waves",
              "utilization", "base (us)", "occupancy (us)");
  Table& t = s.AddTable("dense_launches_v100", {{"blocks", 8, 0},
                                                {"waves", 7, 0},
                                                {"utilization", 11, 0, "%"},
                                                {"base (us)", 14, 2},
                                                {"occupancy (us)", 14, 2}});
  struct Shape {
    int m, n, k;
  };
  for (const Shape& sh :
       {Shape{2048, 128, 2048}, Shape{2048, 512, 2048},
        Shape{4096, 4096, 1024}, Shape{512, 512, 512}}) {
    const KernelStats stats = GemmTensorCoreStats(sh.m, sh.n, sh.k, spec);
    const OccupancyReport occ = AnalyzeOccupancy(stats, spec);
    t.Add(Fmt("%6d/%-5d/%-8d", sh.m, sh.n, sh.k),
          {static_cast<double>(stats.threadblocks),
           static_cast<double>(occ.waves), occ.utilization * 100,
           model.Seconds(stats) * 1e6,
           EstimateWithOccupancy(model, stats).total_s * 1e6});
  }

  bench::Section(
      "Shfl-BW vs dense with occupancy correction (Fig. 1 shape, 75%)");
  const KernelStats dense = GemmTensorCoreStats(2048, 128, 2048, spec);
  const KernelStats sparse =
      SpmmShflBwStats(2048, 128, 2048, 0.25, 64, spec);
  const std::string base_speedup =
      Fixed(model.Seconds(dense) / model.Seconds(sparse), 2);
  const std::string occ_speedup =
      Fixed(EstimateWithOccupancy(model, dense).total_s /
                EstimateWithOccupancy(model, sparse).total_s,
            2);
  const std::string block_ratio =
      Fixed(sparse.threadblocks / std::max(1, dense.threadblocks), 0);
  std::printf("dense blocks %d, sparse blocks %d\n", dense.threadblocks,
              sparse.threadblocks);
  std::printf("speedup: base model %sx, occupancy-adjusted %sx\n",
              base_speedup.c_str(), occ_speedup.c_str());
  s.AddValue("dense_blocks", Fixed(dense.threadblocks, 0));
  s.AddValue("sparse_blocks", Fixed(sparse.threadblocks, 0));
  s.AddValue("base_speedup", base_speedup);
  s.AddValue("occupancy_adjusted_speedup", occ_speedup);
  s.AddValue("sparse_to_dense_blocks", block_ratio);

  bench::Section("Reading");
  std::printf(
      "* Small-N dense launches leave most of the machine idle; the\n"
      "  V=64 sparse kernel launches %sx more blocks at the same shape.\n"
      "* Occupancy-adjusting widens the sparse advantage at small N —\n"
      "  consistent with the paper reporting its best kernel wins on\n"
      "  exactly such shapes.\n",
      block_ratio.c_str());
}

// Metadata prefetch + software pipelining (§4.4, Algorithm 1): the
// modelled pipeline-fill cost vs depth, and the metadata-load
// transaction count vs the MetaPrefetchStage bulk factor, showing why
// bulk prefetch "leads to more efficient usage of bandwidth".
void AblationPipeline(Section& s) {
  const GpuSpec& spec = GetGpuSpec(GpuArch::kV100);
  const CostModel model(spec);
  bench::Title("Ablation — pipelining & metadata prefetch (Algorithm 1)");

  bench::Section(
      "Modelled time vs pipeline stages (Shfl-BW, 4096x1024 @75%, V=64)");
  std::printf("%-10s %14s %16s\n", "stages", "total (us)", "fill cost (us)");
  Table& stages_table = s.AddTable(
      "modelled_us_by_stages",
      {{"total (us)", 14, 2}, {"fill cost (us)", 16, 2}});
  for (int stages : {0, 1, 2, 3, 4, 8}) {
    TileConfig cfg;
    cfg.pipeline_stages = stages;
    const KernelStats st =
        SpmmShflBwStats(4096, 128, 1024, 0.25, 64, spec, cfg);
    const TimeBreakdown tb = model.Estimate(st);
    stages_table.Add(Fmt("%-10d", stages),
                     {tb.total_s * 1e6, tb.pipeline_fill_s * 1e6});
  }

  bench::Section("Metadata transactions vs MetaPrefetchStage");
  // One bulk load per MetaPrefetchStage steps: transactions = ceil(steps
  // / MPS). Fewer, larger transactions use bandwidth better.
  const int kept_per_group = 256;  // 25% of K=1024
  const int tk = 16;
  const int steps = (kept_per_group + tk - 1) / tk;
  std::printf("%-20s %14s %18s\n", "MetaPrefetchStage", "transactions",
              "bytes/transaction");
  Table& meta =
      s.AddTable("metadata_transactions",
                 {{"transactions", 14, 0}, {"bytes/transaction", 18, 0}});
  for (int mps : {1, 2, 4, 8, 16}) {
    meta.Add(Fmt("%-20d", mps),
             {static_cast<double>((steps + mps - 1) / mps),
              static_cast<double>(mps * tk * 4)});
  }

  bench::Section(
      "Pipeline hazard check: stitching never outruns metadata "
      "(Algorithm 1 schedule)");
  // The schedule of the first tile (row group 0) of a pruned layer.
  Rng rng(433);
  const Matrix<float> w = rng.NormalMatrix(64, 256);
  const ShflBwMatrix m = PruneToShflBw(w, 0.25, 16);
  int total_hazards = 0;
  for (int mps : {1, 2, 4, 8}) {
    TileConfig cfg;
    cfg.meta_prefetch_stage = mps;
    const std::vector<PipelineEvent> trace =
        PipelineSchedule(m.vw.KeptColumnsInGroup(0), cfg);
    int hazards = 0;
    for (const PipelineEvent& e : trace) {
      if (!e.meta_ready) ++hazards;
    }
    std::printf("MetaPrefetchStage=%-3d pipeline events=%-4zu hazards=%d\n",
                mps, trace.size(), hazards);
    s.AddValue(Fmt("events_mps%d", mps), Fixed(trace.size(), 0));
    s.AddValue(Fmt("hazards_mps%d", mps), Fixed(hazards, 0));
    total_hazards += hazards;
  }
  s.Check("no_pipeline_hazards",
          "no stitching step outruns its metadata at any MetaPrefetchStage",
          total_hazards == 0);
}

/// Retention of vector-wise pruning under an explicit row permutation.
double RetentionUnderPermutation(const Matrix<float>& scores,
                                 const std::vector<int>& perm, int v,
                                 double density) {
  Matrix<float> shuffled(scores.rows(), scores.cols());
  for (int r = 0; r < scores.rows(); ++r) {
    for (int c = 0; c < scores.cols(); ++c) {
      shuffled(r, c) = scores(perm[r], c);
    }
  }
  double total = 0;
  for (float x : scores.storage()) total += x;
  return RetainedScore(shuffled, VectorWiseMask(shuffled, density, v)) /
         total;
}

// The §5 pattern-search components: how much of Shfl-BW's quality comes
// from each ingredient of Fig. 5. Compares row-grouping strategies at
// fixed density and V:
//   contiguous  — no shuffle at all (plain vector-wise)
//   random      — shuffle without looking at the weights
//   kmeans-1    — balanced K-means, single iteration
//   kmeans-10   — the full search (10 iterations, k-means++ restarts)
// and sweeps the beta (mask-generation density) knob.
void AblationSearch(Section& s) {
  bench::Title("Ablation — Shfl-BW pattern-search components (§5, Fig. 5)");

  SynthWeightOptions wopt;
  wopt.row_types = 8;
  wopt.seed = 811;
  const Matrix<float> w = SynthesizeWeights(256, 256, wopt);
  const Matrix<float> scores = MagnitudeScores(w);
  const int v = 32;

  bench::Section("Row-grouping strategy vs retained importance");
  std::printf("%-14s %10s %10s %10s\n", "strategy", "25% dens.",
              "15% dens.", "10% dens.");
  const std::vector<double> densities{0.25, 0.15, 0.10};
  Table& t = s.AddTable(
      "retained_pct_by_strategy",
      Columns({"25% dens.", "15% dens.", "10% dens."}, 9, 1, "%"));
  const auto permuted = [&](const std::vector<int>& perm) {
    std::vector<std::optional<double>> cells;
    for (double d : densities) {
      cells.push_back(RetentionUnderPermutation(scores, perm, v, d) * 100);
    }
    return cells;
  };

  // Contiguous (= vector-wise, identity permutation).
  std::vector<int> identity(256);
  std::iota(identity.begin(), identity.end(), 0);
  t.Add(Fmt("%-14s", "contiguous"), permuted(identity));

  // Random shuffle.
  Rng rng(821);
  t.Add(Fmt("%-14s", "random"), permuted(rng.Permutation(256)));

  // K-means with 1 and 10 iterations.
  for (int iters : {1, 10}) {
    std::vector<std::optional<double>> cells;
    for (double d : densities) {
      ShflBwSearchOptions opt;
      opt.kmeans_iterations = iters;
      const ShflBwSearchResult r = ShflBwSearch(scores, d, v, opt);
      cells.push_back(RetainedScoreRatio(scores, r.mask) * 100);
    }
    t.Add(Fmt("kmeans-%-7d", iters), cells);
  }

  bench::Section("Beta (mask density multiplier) sweep at 15% density");
  std::printf("%-10s %20s\n", "beta/alpha", "retained importance");
  Table& beta = s.AddTable("retained_pct_by_beta",
                           {{"retained importance", 19, 1, "%"}});
  for (double ratio : {1.0, 1.5, 2.0, 3.0, 4.0}) {
    ShflBwSearchOptions opt;
    opt.beta_ratio = ratio;
    const ShflBwSearchResult r = ShflBwSearch(scores, 0.15, v, opt);
    beta.Add(Fmt("%-10.1f", ratio), {RetainedScoreRatio(scores, r.mask) * 100});
  }

  bench::Section("Reading");
  std::printf(
      "* Random shuffling is no better than contiguous grouping — the\n"
      "  flexibility only pays when the permutation is SEARCHED (the "
      "paper's point\n  that greedy selection fails and a clustering "
      "heuristic is needed).\n"
      "* K-means grouping recovers most of the gap to unstructured; "
      "iterations\n  beyond a few add little.\n"
      "* The beta knob is mild on the static proxy; the paper's beta=2 "
      "preference\n  comes from training dynamics.\n");
}

// Tile-size / V sweep: how the block size trades modelled performance
// (data reuse, §3.2.2) against pruning quality (flexibility, §3.2.1).
// This is the design-space view behind the paper's V=32/64 choices.
void AblationTiles(Section& s) {
  bench::Title("Ablation — vector size V: speed vs quality");

  bench::Section(
      "Modelled Shfl-BW speedup over dense (4096x1024 @75%, N=128)");
  std::printf("%-8s %10s %10s %10s\n", "V", "V100", "T4", "A100");
  Table& speed = s.AddTable("modelled_speedup",
                            Columns({"V100", "T4", "A100"}, 9, 2, "x"));
  for (int v : {8, 16, 32, 64, 128, 256}) {
    std::vector<std::optional<double>> cells;
    for (const GpuSpec& spec : AllGpus()) {
      const CostModel model(spec);
      const double dense =
          model.Seconds(GemmTensorCoreStats(4096, 128, 1024, spec));
      const double sparse =
          model.Seconds(SpmmShflBwStats(4096, 128, 1024, 0.25, v, spec));
      cells.push_back(dense / sparse);
    }
    speed.Add(Fmt("%-8d", v), cells);
  }

  bench::Section("Retained importance after Shfl-BW search @75% sparsity");
  SynthWeightOptions opt;
  opt.seed = 443;
  const Matrix<float> w = SynthesizeWeights(256, 256, opt);
  const Matrix<float> scores = MagnitudeScores(w);
  std::printf("%-8s %20s\n", "V", "retained ratio");
  Table& retained =
      s.AddTable("retained_pct", {{"retained ratio", 19, 1, "%"}});
  for (int v : {8, 16, 32, 64, 128}) {
    const Matrix<float> mask = ShflBwSearch(scores, 0.25, v).mask;
    retained.Add(Fmt("%-8d", v), {RetainedScoreRatio(scores, mask) * 100});
  }

  bench::Section("TN (output tile width) sweep, modelled (V=64, V100)");
  const GpuSpec& v100 = GetGpuSpec(GpuArch::kV100);
  const CostModel model(v100);
  std::printf("%-8s %14s\n", "TN", "time (us)");
  Table& tn_table = s.AddTable("modelled_us_by_tn", {{"time (us)", 14, 2}});
  for (int tn : {16, 32, 64, 128, 256}) {
    TileConfig cfg;
    cfg.tn = tn;
    const KernelStats st =
        SpmmShflBwStats(4096, 256, 1024, 0.25, 64, v100, cfg);
    tn_table.Add(Fmt("%-8d", tn), {model.Seconds(st) * 1e6});
  }

  bench::Section("Reading");
  std::printf(
      "* Speed rises with V (reuse) but saturates near T_opt; quality "
      "falls with V.\n"
      "* V=32/64 sit at the knee on both axes — the paper's choice.\n");
}

// Cost of the reordered write-back (§4.2 / §6.2): the paper reports
// Shfl-BW at 0.97-1.02x of the identical vector-wise kernel, i.e. the
// row shuffle is free. Modelled GPU time ratio across shapes and
// sparsities.
void AblationWriteback(Section& s) {
  constexpr double kPaperLo = 0.97, kPaperHi = 1.02;
  bench::Title(
      "Ablation — reordered write-back overhead\n"
      "(paper: Shfl-BW = 0.97-1.02x of vector-wise)");
  bench::Section("Modelled time ratio VW/Shfl-BW (V100)");
  const GpuSpec& spec = GetGpuSpec(GpuArch::kV100);
  const CostModel model(spec);
  std::printf("%-24s %8s %8s %8s\n", "shape (MxK, N=128)", "50%", "75%",
              "90%");
  Table& t = s.AddTable("vw_over_shflbw_v100",
                        Columns({"50%", "75%", "90%"}, 7, 3, "x"));
  struct Shape {
    int m, k;
  };
  bool in_range = true;
  for (const Shape& sh : {Shape{1024, 1024}, Shape{4096, 1024},
                          Shape{2048, 2048}, Shape{4096, 4096}}) {
    std::vector<std::optional<double>> cells;
    for (double sparsity : {0.5, 0.75, 0.9}) {
      const double vw = model.Seconds(
          SpmmVectorWiseStats(sh.m, 128, sh.k, 1 - sparsity, 64, spec));
      const double sb = model.Seconds(
          SpmmShflBwStats(sh.m, 128, sh.k, 1 - sparsity, 64, spec));
      cells.push_back(vw / sb);
    }
    const std::string label = Fmt("%6dx%-6d V=64      ", sh.m, sh.k);
    t.Add(label, cells);
    for (std::size_t col = 0; col < cells.size(); ++col) {
      const double r = t.At(label, col);
      in_range = in_range && r >= kPaperLo && r <= kPaperHi;
    }
  }
  s.Check("ratio_in_paper_range",
          "every VW/Shfl-BW time ratio lies in the paper's 0.97-1.02x",
          in_range);
}

// ---- Analyses -----------------------------------------------------------

// §3.2.1: flexibility (candidate-structure counts) of each sparse
// pattern, including the paper's M=512 / V=128 example exceeding e^700.
void AnalysisFlexibility(Section& s) {
  bench::Title("§3.2.1 — flexibility analysis (log-space counts)");

  bench::Section("Paper example: row-grouping count for M=512, V=128");
  const std::string log_count =
      Fixed(LogRowGroupingCount(512, 128, true), 1);
  std::printf("ln(M!/(V!)^(M/V)) = %s  (paper: exceeds 700)\n",
              log_count.c_str());
  s.AddValue("ln_row_groupings_m512_v128", log_count, {700});
  s.Check("row_groupings_exceed_e700",
          "ln of the M=512, V=128 row-grouping count exceeds the paper's 700",
          Printed(log_count) > 700);

  bench::Section("Candidate-structure counts, 512x512 matrix, 25% density");
  std::printf("%-8s %18s %18s %18s %18s\n", "V", "ln(unstructured)",
              "ln(Shfl-BW)", "ln(vector-wise)", "ln(block-wise)");
  Table& t = s.AddTable("ln_counts",
                        Columns({"ln(unstructured)", "ln(Shfl-BW)",
                                 "ln(vector-wise)", "ln(block-wise)"},
                                18, 0));
  for (int v : {8, 16, 32, 64, 128}) {
    const FlexibilityReport rep = AnalyzeFlexibility(512, 512, 0.25, v);
    t.Add(Fmt("%-8d", v), {rep.log_unstructured, rep.log_shfl_bw,
                           rep.log_vector_wise, rep.log_block_wise});
  }

  bench::Section("Shfl-BW multiplier over vector-wise (ln of ratio)");
  for (int v : {32, 64, 128}) {
    const std::string ln = Fixed(LogRowGroupingCount(512, v, true), 0);
    std::printf("V=%-4d shuffle multiplies candidates by e^%s\n", v,
                ln.c_str());
    s.AddValue(Fmt("ln_shuffle_multiplier_v%d", v), ln);
  }
}

// §3.2.2 / §2.1: operation intensity (data reuse) of each sparse
// pattern, and the tensor-core MACs-per-loaded-value requirement (the
// paper's "63 MACs" figure for A100).
void AnalysisIntensity(Section& s) {
  bench::Title("§3.2.2 — operation-intensity analysis");

  bench::Section("MACs per LLC-loaded value to reach peak tensor-core");
  for (const GpuSpec& spec : AllGpus()) {
    const bool a100 = spec.arch == GpuArch::kA100;
    const std::string macs = Fixed(spec.MacsPerLlcValue(), 0);
    std::printf("%-6s %s MACs/value %s\n", spec.name.c_str(), macs.c_str(),
                a100 ? "(paper: 63)" : "");
    s.AddValue("macs_per_llc_value_" + spec.name, macs,
               a100 ? std::vector<double>{63} : std::vector<double>{});
  }

  for (const GpuSpec& spec : AllGpus()) {
    const double budget = RegfileAccumulators(spec);
    const double dense = DenseMaxReuse(budget).flop_per_byte;
    bench::Section(spec.name + " — max reuse (flop/byte), regfile budget " +
                   std::to_string(static_cast<int>(budget)));
    const std::string t_opt = Fixed(OptimalDenseTileEdge(budget), 0);
    const std::string dense_text = Fixed(dense, 1);
    std::printf("T_opt (dense tile edge) = %s\n", t_opt.c_str());
    std::printf("dense GEMM:              %8s\n", dense_text.c_str());
    s.AddValue("regfile_budget_" + spec.name,
               std::to_string(static_cast<int>(budget)));
    s.AddValue("t_opt_" + spec.name, t_opt);
    s.AddValue("dense_reuse_" + spec.name, dense_text);
    std::printf("%-10s %14s %24s\n", "alpha", "unstructured",
                "sqrt(a)*dense (theory)");
    Table& u = s.AddTable(spec.name + "_unstructured_reuse",
                          {{"unstructured", 14, 1},
                           {"sqrt(a)*dense (theory)", 24, 1}});
    for (double alpha : {0.5, 0.25, 0.15, 0.05, 0.02}) {
      u.Add(Fmt("%-10.2f", alpha),
            {UnstructuredMaxReuse(budget, alpha).flop_per_byte,
             std::sqrt(alpha) * dense});
    }
    std::printf("%-10s %14s\n", "V", "BW/VW/Shfl-BW");
    Table& bw = s.AddTable(spec.name + "_block_reuse",
                           {{"BW/VW/Shfl-BW", 14, 1}});
    for (int v : {8, 16, 32, 64, 128, 256}) {
      bw.Add(Fmt("%-10d", v), {BlockWiseReuse(budget, v).flop_per_byte});
    }
  }

  bench::Section("Reading");
  std::printf(
      "* Unstructured reuse collapses as sqrt(alpha): at 95%% sparsity it "
      "is ~4.5x below dense.\n"
      "* Block-wise/vector-wise/Shfl-BW reach full dense reuse once V >= "
      "T_opt; V=64 is within ~2x.\n"
      "* This is why tensor-core SpMM needs a dense-tileable pattern "
      "(the paper's core claim).\n");
}

// Extension beyond the paper's evaluation (§7): "given the recent trend
// of adding tensor-core-like units in processors to boost DNN workloads
// (AMD GPU [18], Intel CPU [19]), we expect our methodology and
// practice to have wider applications beyond NVIDIA GPUs." Projects the
// Shfl-BW methodology onto an AMD CDNA1-class GPU and an Intel AMX-class
// CPU socket with the same traffic models; kernel efficiencies assume
// V100-maturity software, so these are projections, not measurements.
void Extension(Section& s) {
  bench::Title(
      "Extension — Shfl-BW projected onto tensor-core-like units beyond "
      "NVIDIA (§7)\nProjections assume V100-maturity kernel software; "
      "see docs/REPRODUCTION.md.");
  struct ModelRow {
    const char* name;
    runtime::ModelDesc model;
  };
  const ModelRow models[2] = {
      {"Transformer", runtime::ModelDesc::Transformer()},
      {"GNMT", runtime::ModelDesc::Gnmt()},
  };
  std::vector<const Table*> panels;
  for (const GpuSpec& spec : ExtensionAccelerators()) {
    bench::Section(spec.name + " — projected speedup over its own dense "
                               "matrix-unit baseline");
    const std::string peak = Fixed(spec.tensor_core_flops / 1e12, 0);
    const std::string dram = Fixed(spec.dram_bandwidth / 1e9, 0);
    const std::string ratio = Fixed(spec.ComputeToBandwidthRatio(), 0);
    std::printf("matrix-unit peak %s TFLOPS, DRAM %s GB/s, "
                "compute:BW ratio %s flop/byte\n",
                peak.c_str(), dram.c_str(), ratio.c_str());
    s.AddValue("peak_tflops_" + spec.name, peak);
    s.AddValue("dram_gbps_" + spec.name, dram);
    s.AddValue("compute_to_bw_" + spec.name, ratio);
    std::printf("%-14s %8s %8s %8s %8s\n", "model \\ spars.", "50%", "75%",
                "85%", "95%");
    Table& t = s.AddTable(spec.name + "_projected_speedup",
                          Columns({"50%", "75%", "85%", "95%"}, 7, 2, "x"));
    for (const ModelRow& r : models) {
      std::vector<std::optional<double>> cells;
      for (double sparsity : {0.50, 0.75, 0.85, 0.95}) {
        cells.push_back(ModelSpeedup(r.model, runtime::Format::kShflBw,
                                     1.0 - sparsity, 64, spec.arch));
      }
      t.Add(Fmt("%-14s", r.name), cells);
    }
    panels.push_back(&t);
  }
  bench::Section("Reading");
  std::printf(
      "* The methodology transfers: both targets show the same "
      "sparsity-speedup shape.\n"
      "* AMX's projected headroom for weight sparsity is not larger than "
      "CDNA1's\n  at every point, despite its higher compute:BW ratio.\n");
  // ExtensionAccelerators() lists CDNA1, then AMX.
  bool amx_larger = true;
  for (const ModelRow& r : models) {
    for (std::size_t col = 0; col < 4; ++col) {
      amx_larger = amx_larger && panels[1]->At(r.name, col) >
                                     panels[0]->At(r.name, col);
    }
  }
  s.Deviation("amx_larger_headroom_than_cdna1",
              "AMX projects a larger speedup than CDNA1 at every model and "
              "sparsity",
              amx_larger);
}

// ---- main ---------------------------------------------------------------

struct SectionSpec {
  const char* name;
  bool slow;  // takes seconds; --smoke skips it
  void (*run)(Section&);
};

constexpr SectionSpec kSections[] = {
    {"fig1_spmm_throughput", false, Fig1},
    {"fig2_tradeoff_gnmt", true, Fig2},
    {"fig6_kernel_speedup", false, Fig6},
    {"table1_accuracy", true, Table1},
    {"ablation_importance", true, AblationImportance},
    {"ablation_layernorm_fuse", false, AblationLayerNormFuse},
    {"ablation_occupancy", false, AblationOccupancy},
    {"ablation_pipeline", false, AblationPipeline},
    {"ablation_search", false, AblationSearch},
    {"ablation_tiles", false, AblationTiles},
    {"ablation_writeback", false, AblationWriteback},
    {"analysis_flexibility", false, AnalysisFlexibility},
    {"analysis_intensity", false, AnalysisIntensity},
    {"extension_accelerators", false, Extension},
};

std::string Quote(const std::string& s) {
  return "\"" + obs::JsonEscape(s) + "\"";
}

std::string Join(const std::vector<std::string>& items) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", " : "") + items[i];
  }
  return out;
}

std::string PaperJson(const std::vector<double>& paper) {
  if (paper.size() == 1) return Fmt("%g", paper[0]);
  return Fmt("[%g, %g]", paper.at(0), paper.at(1));
}

bool WriteJson(const std::string& path, bool smoke,
               const std::vector<Section>& sections,
               const std::vector<std::string>& skipped) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"paper\",\n");
  bench::WriteProvenance(f);
  std::vector<std::string> quoted;
  for (const std::string& name : skipped) quoted.push_back(Quote(name));
  std::fprintf(f, "  \"smoke\": %s,\n  \"skipped\": [%s],\n",
               smoke ? "true" : "false", Join(quoted).c_str());
  std::fprintf(f, "  \"sections\": [\n");
  for (std::size_t si = 0; si < sections.size(); ++si) {
    const Section& s = sections[si];
    std::fprintf(f, "    {\"name\": %s,\n     \"tables\": [\n",
                 Quote(s.name).c_str());
    for (std::size_t ti = 0; ti < s.tables.size(); ++ti) {
      const Table& t = s.tables[ti];
      std::vector<std::string> columns;
      for (const Column& c : t.columns) columns.push_back(Quote(c.name));
      std::fprintf(f, "       {\"name\": %s, \"columns\": [%s], \"rows\": [\n",
                   Quote(t.name).c_str(), Join(columns).c_str());
      for (std::size_t ri = 0; ri < t.rows.size(); ++ri) {
        const Table::Row& r = t.rows[ri];
        std::fprintf(f, "         {\"label\": %s, \"values\": [%s]}%s\n",
                     Quote(r.label).c_str(), Join(r.cells).c_str(),
                     ri + 1 < t.rows.size() ? "," : "");
      }
      std::fprintf(f, "       ]}%s\n", ti + 1 < s.tables.size() ? "," : "");
    }
    std::fprintf(f, "     ],\n     \"values\": [\n");
    for (std::size_t vi = 0; vi < s.values.size(); ++vi) {
      const Value& v = s.values[vi];
      std::fprintf(f, "       {\"name\": %s, \"value\": %s%s}%s\n",
                   Quote(v.name).c_str(), v.text.c_str(),
                   v.paper.empty()
                       ? ""
                       : (", \"paper\": " + PaperJson(v.paper)).c_str(),
                   vi + 1 < s.values.size() ? "," : "");
    }
    std::fprintf(f, "     ],\n     \"claims\": [\n");
    for (std::size_t ci = 0; ci < s.claims.size(); ++ci) {
      const Claim& c = s.claims[ci];
      std::fprintf(f,
                   "       {\"name\": %s, \"statement\": %s, \"checked\": %s, "
                   "\"holds\": %s}%s\n",
                   Quote(c.name).c_str(), Quote(c.statement).c_str(),
                   c.checked ? "true" : "false", c.holds ? "true" : "false",
                   ci + 1 < s.claims.size() ? "," : "");
    }
    std::fprintf(f, "     ]}%s\n", si + 1 < sections.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  return std::fclose(f) == 0;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_paper.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
    else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  std::vector<Section> sections;
  std::vector<std::string> skipped;
  for (const SectionSpec& spec : kSections) {
    if (smoke && spec.slow) {
      skipped.push_back(spec.name);
      continue;
    }
    spec.run(sections.emplace_back(Section{spec.name, {}, {}, {}}));
  }

  int checked = 0, failed = 0;
  bench::Title("Claims (ok / FAIL are checked; deviations are recorded)");
  for (const Section& s : sections) {
    for (const Claim& c : s.claims) {
      const char* tag = c.checked ? (c.holds ? "ok" : "FAIL")
                                  : (c.holds ? "holds" : "deviation");
      std::printf("%-9s %s.%s: %s\n", tag, s.name.c_str(), c.name.c_str(),
                  c.statement.c_str());
      checked += c.checked;
      failed += c.checked && !c.holds;
    }
  }
  std::printf("%d checked claim(s), %d failed%s\n", checked, failed,
              smoke ? " (smoke: slow sections skipped)" : "");

  const bool wrote = WriteJson(out, smoke, sections, skipped);
  if (wrote) std::printf("\nwrote %s\n", out.c_str());
  if (failed > 0) std::fprintf(stderr, "FAIL: %d checked claim(s)\n", failed);
  return wrote && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace shflbw

int main(int argc, char** argv) { return shflbw::Main(argc, argv); }
