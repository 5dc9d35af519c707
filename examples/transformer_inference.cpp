// Transformer scenario on the inference runtime: build the model's
// layer list, let the planner auto-select each layer's format with the
// cost model, pack the winning formats once, and run batched multi-layer
// inference — the paper's headline experiment (Fig. 6, Transformer
// column) executed end-to-end instead of layer-by-layer by hand.
//
// Also shows the two planner policies that matter in practice:
//   - unrestricted speed ranking (may pick block-wise, which Table 1
//     shows costs accuracy at high sparsity);
//   - a plan that hard-excludes the accuracy-hostile patterns, which
//     selects the paper's Shfl-BW family. (For the graded version of
//     this control — a retained-importance floor searched over
//     per-layer densities instead of an all-or-nothing blocklist —
//     see examples/quality_planning.cpp.)
//
// Exits 1 if a steady-state run packs a weight.
#include <cstdio>

#include "runtime/engine.h"

using namespace shflbw;
using namespace shflbw::runtime;

namespace {

void PrintPlan(const ExecutionPlan& plan) {
  std::printf("  %-16s %-8s %12s %12s %9s\n", "layer", "format",
              "plan (us)", "dense (us)", "plan_x");
  for (const LayerPlan& l : plan.layers) {
    std::printf("  %-16s %-8s %12.2f %12.2f %8.2fx\n", l.name.c_str(),
                FormatName(l.format).c_str(), l.modeled_s * 1e6,
                l.modeled_dense_s * 1e6, l.modeled_dense_s / l.modeled_s);
  }
  std::printf("  %-16s %-8s %12.2f %12.2f %8.2fx\n", "TOTAL (weighted)", "",
              plan.ModeledTotalSeconds() * 1e6,
              plan.ModeledDenseSeconds() * 1e6,
              plan.ModeledDenseSeconds() / plan.ModeledTotalSeconds());
}

}  // namespace

int main() {
  EngineOptions opts;
  opts.planner.density = 0.25;  // 75% sparsity, the paper's headline point
  opts.planner.v = 32;
  opts.planner.arch = GpuArch::kV100;

  // --- Plan phase at the full base config (planning is analytic, so
  // full-size shapes cost nothing). Two policies:
  //   - unrestricted speed ranking;
  //   - quality-constrained: exclude the patterns Table 1 shows losing
  //     accuracy at 75% sparsity, which lands on the vector-wise family.
  //     (The ranking is quality-blind between VW and Shfl-BW — they are
  //     the same kernel up to row-index metadata — so exclude kVectorWise
  //     as well when the checkpoint was pruned with the row shuffle.)
  const TransformerConfig base;  // d_model=512, d_ff=2048, tokens=512
  std::printf("Transformer base (%d enc + %d dec, d_model=%d d_ff=%d "
              "tokens=%d), density %.2f, V=%d, planned for %s\n",
              base.encoder_layers, base.decoder_layers, base.d_model,
              base.d_ff, base.batch_tokens, opts.planner.density,
              opts.planner.v, GetGpuSpec(opts.planner.arch).name.c_str());

  Engine base_engine(ModelDesc::Transformer(base), opts);
  std::printf("\nAuto-selected plan (speed ranking):\n");
  PrintPlan(base_engine.Plan());

  EngineOptions constrained = opts;
  constrained.planner.exclude = {Format::kCsr, Format::kBsr,
                                 Format::kBalanced24};
  Engine quality_engine(ModelDesc::Transformer(base), constrained);
  std::printf("\nExclude-list plan (no csr/bsr/2:4):\n");
  PrintPlan(quality_engine.Plan());

  // --- Pack + execute a scaled-down replica (the functional simulator
  // pays real FLOPs, so execution uses smaller shapes with the same
  // proportions; bench_e2e tracks these numbers over time).
  TransformerConfig cfg;
  cfg.d_model = 256;
  cfg.d_ff = 1024;
  cfg.batch_tokens = 128;
  cfg.encoder_layers = 2;
  cfg.decoder_layers = 2;
  std::printf("\nExecuting scaled replica (d_model=%d d_ff=%d tokens=%d, "
              "%d enc + %d dec):\n", cfg.d_model, cfg.d_ff,
              cfg.batch_tokens, cfg.encoder_layers, cfg.decoder_layers);
  Engine engine(ModelDesc::Transformer(cfg), opts);

  const RunResult first = engine.Run();  // pays the pack phase
  const RunResult steady = engine.Run();
  std::printf("\nExecution (auto plan, %d distinct layers):\n",
              static_cast<int>(first.layers.size()));
  std::printf("  first run:  %8.3f ms kernels, %zu weight packs\n",
              first.weighted_seconds * 1e3, first.packs_performed);
  std::printf("  steady run: %8.3f ms kernels, %zu weight packs\n",
              steady.weighted_seconds * 1e3, steady.packs_performed);

  EngineOptions dense_opts = opts;
  dense_opts.planner.force_format = Format::kDense;
  Engine dense_engine(ModelDesc::Transformer(cfg), dense_opts);
  dense_engine.Run();
  const RunResult dense = dense_engine.Run();
  std::printf("  all-dense:  %8.3f ms kernels\n",
              dense.weighted_seconds * 1e3);
  std::printf("  measured speedup: %.2fx (modeled %.2fx)\n",
              dense.weighted_seconds / steady.weighted_seconds,
              engine.Plan().ModeledDenseSeconds() /
                  engine.Plan().ModeledTotalSeconds());

  std::printf("\nPer-layer steady-state measurements:\n");
  std::printf("  %-16s %-8s %10s %10s\n", "layer", "format", "ms", "GFLOP/s");
  for (const LayerRunRecord& r : steady.layers) {
    std::printf("  %-16s %-8s %10.3f %10.2f\n", r.name.c_str(),
                FormatName(r.format).c_str(), r.seconds * 1e3, r.Gflops());
  }
  if (steady.packs_performed != 0) {
    std::printf("FAIL: the steady-state run packed %zu weights\n",
                steady.packs_performed);
    return 1;
  }
  return 0;
}
