// The inference engine: plan / pack / execute.
//
//   plan     PlanModel ranks every format per layer with the cost
//            model; an optional autotune pass packs the top candidates
//            and re-ranks them by measured wall-clock.
//   pack     the selected format of each layer is pruned + converted
//            once into the PackedWeightCache (weights are synthesized
//            deterministically per layer, standing in for trained
//            checkpoints as everywhere else in this repo).
//   execute  Run writes each layer's fused input straight into
//            per-engine scratch (layer 0 from a counter-based generator
//            keyed by the request seed, later layers from the previous
//            layer's output at unit RMS) and launches the functional
//            kernels on the persistent ParallelFor pool; outputs are
//            bit-identical at any thread count because every kernel and
//            every fill is.
//
// The schedule-once / run-many split follows the compile-then-execute
// structure of inductor-style runtimes: Plan() is paid once, Run() is
// the steady-state serving path and performs zero conversions.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/gpu_spec.h"
#include "kernels/conv2d.h"
#include "obs/telemetry.h"
#include "runtime/fault_injection.h"
#include "runtime/model_desc.h"
#include "runtime/planner.h"
#include "runtime/weight_cache.h"

namespace shflbw {
namespace runtime {

struct EngineOptions {
  PlannerOptions planner;
  /// Base seed for the per-layer synthetic master weights (layer i uses
  /// weight_seed + i).
  std::uint64_t weight_seed = 0x5eedULL;
  /// Seed for the first layer's input activations.
  std::uint64_t activation_seed = 0xac71ULL;
  /// Optional fault-injection hook (tests, chaos benches): consulted
  /// once per kernel launch in RunBatched and, via the weight cache, on
  /// every pack. The engine installs it on its cache at construction;
  /// engines sharing a cache must share the injector (or leave it
  /// null). Injection is seeded and deterministic — see
  /// runtime/fault_injection.h.
  std::shared_ptr<FaultInjector> fault_injector;
  /// Optional telemetry sink. When set, every fused layer launch
  /// accumulates per-(layer, format, density, V) wall-time / FLOP
  /// counters plus a planned-vs-measured drift gauge per layer
  /// (metrics_on), and emits one kernel span per layer (tracing_on).
  /// The BatchServer shares its own Telemetry with every replica so
  /// engine-side spans land in the same trace as the serving spans.
  std::shared_ptr<obs::Telemetry> telemetry;
};

/// Serving context a BatchServer threads through a fused launch so the
/// engine's kernel spans / profiling rows carry the batch identity:
/// the K request `run` spans and the per-layer kernel spans of one
/// fused launch correlate through the shared batch_id.
struct BatchContext {
  std::uint64_t batch_id = obs::kNoId;
  std::int32_t replica = -1;
  std::int32_t level = -1;  // ladder level this engine serves
};

/// The label set `{layer="..",format="..",density="..",v=".."}` of a
/// plan layer's profiling counters and drift gauges. The density is the
/// shortest text that reads back as the same double, so two distinct
/// densities never share a row. Statusz looks the gauges up with it.
std::string PlanLayerLabels(const LayerPlan& lp);

/// Measured execution of one layer (one invocation).
struct LayerRunRecord {
  std::string name;
  Format format = Format::kDense;
  int repeat = 1;
  double seconds = 0;       // measured kernel wall-clock
  double useful_flops = 0;  // 2 x stored weight values x fused N
  double modeled_s = 0;     // planner's cost-model prediction
  double modeled_dense_s = 0;

  [[nodiscard]] double Gflops() const {
    return seconds > 0 ? useful_flops / seconds / 1e9 : 0.0;
  }
};

/// Result of one whole-model Run.
struct RunResult {
  Matrix<float> output;        // final layer output (original row order)
  double kernel_seconds = 0;   // sum of per-layer kernel time, 1 invocation each
  double weighted_seconds = 0; // repeat-weighted whole-model latency
  /// Wall time of the call minus kernel_seconds: input fills,
  /// normalization, the output hand-off, hooks, and any packing the
  /// call triggered.
  double overhead_seconds = 0;
  std::size_t packs_performed = 0;  // conversions triggered by this Run
  std::vector<LayerRunRecord> layers;
};

/// Result of one fused whole-model RunBatched over K requests.
struct BatchRunResult {
  /// outputs[j] is bit-identical to Run(seeds[j]).output — the
  /// de-interleaved column block of the fused final-layer launch.
  std::vector<Matrix<float>> outputs;
  int width = 0;               // K, the number of fused requests
  double kernel_seconds = 0;   // sum of per-layer fused kernel time
  double weighted_seconds = 0; // repeat-weighted fused whole-model latency
  /// Wall time of the call minus kernel_seconds: input fills,
  /// normalization, de-interleave, hooks, and any packing the call
  /// triggered.
  double overhead_seconds = 0;
  std::size_t packs_performed = 0;  // conversions triggered by this call
  /// One record per layer — ONE fused launch per layer, not K; seconds
  /// and useful_flops cover the K-wide launch, modeled_* stay
  /// per-request (the planner models the serving shape).
  std::vector<LayerRunRecord> layers;
};

class Engine {
 public:
  explicit Engine(ModelDesc model, EngineOptions opts = {});

  /// Constructs an engine packing into an external shared cache. The
  /// BatchServer uses this to let N replicas of the same model share
  /// one pack phase: the cache key includes (layer, format, density,
  /// v), and replicas share (model, options, weight_seed), so every
  /// replica resolves to the same entries. The cache must outlive the
  /// engine.
  Engine(ModelDesc model, EngineOptions opts,
         std::shared_ptr<PackedWeightCache> cache);

  /// Compiles the schedule on first call (cost-model ranking, plus the
  /// empirical autotune pass when options.planner.autotune is set) and
  /// returns the same plan thereafter.
  const ExecutionPlan& Plan();

  /// Installs a precompiled plan instead of compiling one. Planning is
  /// deterministic, so an engine identical in (model, options) to the
  /// plan's producer would compile this exact plan anyway — adopting it
  /// just skips the redundant work, which matters when the BatchServer
  /// stands up replicas x ladder-levels engines whose quality-aware
  /// plans each score every (layer, format, density, V) mask. Only
  /// valid before the first Plan()/Run(); the layer count must match
  /// the model and every conv layer's format must have a conv kernel.
  void AdoptPlan(ExecutionPlan plan);

  /// Executes the model end-to-end. The first Run packs any weight the
  /// plan selected that autotune has not already packed; later Runs hit
  /// the cache and perform zero conversions.
  RunResult Run();

  /// Run with an explicit activation seed: the per-request entry point
  /// the BatchServer uses, so distinct requests stream distinct inputs
  /// through the same packed weights. Run() == Run(activation_seed from
  /// the engine options). Deterministic: the same seed on any replica
  /// (or thread count) yields a bit-identical output matrix.
  /// Implemented as RunBatched of width 1, so the single-request and
  /// fused paths can never diverge.
  RunResult Run(std::uint64_t activation_seed);

  /// Cross-request fused execution: packs the K requests' activations
  /// into one n*K-column matrix per GEMM layer (batch*K per conv layer)
  /// and streams it through the packed weights with ONE kernel launch
  /// per layer instead of K. Every input value is a function of (seed,
  /// position in the request's block) alone, and inter-layer RMS
  /// normalization sums each request's own column block in fixed lanes
  /// by position, so outputs[j] is bit-identical to Run(seeds[j]) at
  /// any thread count and any batch width — the wide-batch contract of
  /// kernels/kernel_api.h carried through the whole model. Scratch is
  /// re-shaped (exact extent, never capacity-only) between calls, so
  /// mixed widths K cannot leak stale tail columns. seeds must be
  /// non-empty.
  BatchRunResult RunBatched(const std::vector<std::uint64_t>& seeds);

  /// RunBatched with a serving context: identical execution, but the
  /// kernel spans and profiling rows it records carry the caller's
  /// batch/replica/level identity. RunBatched(seeds) ==
  /// RunBatched(seeds, BatchContext{}).
  BatchRunResult RunBatched(const std::vector<std::uint64_t>& seeds,
                            const BatchContext& ctx);

  [[nodiscard]] const ModelDesc& model() const { return model_; }
  [[nodiscard]] const EngineOptions& options() const { return opts_; }
  [[nodiscard]] const PackedWeightCache& cache() const { return *cache_; }
  /// The planner's modelled GPU. Nothing on the launch path reads it;
  /// callers that model a launch (perfbench's kernel probe) do.
  [[nodiscard]] const GpuSpec& gpu() const {
    return GetGpuSpec(opts_.planner.arch);
  }

 private:
  /// Synthesized master weight of layer i (created once, then cached).
  const Matrix<float>& MasterWeight(int layer);

  /// Packs (or fetches) layer i's weight in `format` at (density, v) —
  /// per-layer values from the plan, not the global planner knobs, so a
  /// quality-aware plan can mix densities across layers while the
  /// cache key (layer, format, density, v) keeps entries distinct.
  const PackedWeight& Packed(int layer, Format format, double density, int v);

  /// Writes layer `layer`'s fused input into the per-engine scratch
  /// (gemm_input_scratch_ or conv_input_scratch_, re-shaped to the
  /// exact extent). Request j occupies column block [j*n, (j+1)*n)
  /// (GEMM) / batch block [j*batch, (j+1)*batch) (conv), and element p
  /// of its block (row-major / NCHW) is position p of its stream:
  /// layer 0 reads PhiloxNormalFill keyed by seeds[j]; a later layer
  /// reads request j's block of `prev`, the previous layer's fused
  /// output with `prev_cols` columns per request, in row-major order,
  /// scaled to unit RMS and wrapped cyclically to the required shape.
  /// Every value is a function of (seed, position in the request's
  /// block) alone, so a request's input is the same at any batch width
  /// and thread count.
  void FillLayerInput(std::size_t layer,
                      const std::vector<std::uint64_t>& seeds,
                      const Matrix<float>& prev, int prev_cols);

  /// Re-ranks each layer's top candidates by measured time (packs them
  /// through the cache, so the work is reused by Run). With per-layer
  /// quality floors enabled, only candidates meeting the floor are
  /// eligible — empirical re-ranking must not undo the quality
  /// constraint the plan was built around.
  void Autotune();

  /// Times one invocation of layer i under the candidate's
  /// (format, density, v); used by Autotune.
  double TimeLayerOnce(int layer, const FormatCandidate& cand);

  /// Cached registry handles of one plan layer's profiling row, so the
  /// per-launch hot path is a handful of relaxed atomic adds — no name
  /// formatting, no registry lookup.
  struct KernelMetrics {
    obs::Counter* launches = nullptr;
    obs::Counter* seconds = nullptr;   // fused launch wall-clock
    obs::Counter* requests = nullptr;  // sum of fused widths
    obs::Counter* flops = nullptr;     // useful FLOPs retired
    obs::Gauge* measured = nullptr;    // cumulative per-request seconds
    obs::Gauge* drift = nullptr;       // measured / planner-modeled
  };

  /// Registers (first call) and returns the profiling handles for every
  /// plan layer. Requires a plan and opts_.telemetry.
  const std::vector<KernelMetrics>& KernelMetricsHandles();

  ModelDesc model_;
  EngineOptions opts_;
  std::optional<ExecutionPlan> plan_;
  std::shared_ptr<PackedWeightCache> cache_;  // owned unless injected
  std::vector<std::optional<Matrix<float>>> masters_;

  // Per-engine fused input scratch, reused across layers and Runs and
  // re-shaped to the current batch width on every layer (see
  // Matrix::Reshape — exact extent, so a narrow batch after a wide one
  // never reads the wide batch's tail columns).
  Matrix<float> gemm_input_scratch_;
  Tensor4 conv_input_scratch_;
  std::vector<KernelMetrics> kernel_metrics_;  // empty until first use
};

}  // namespace runtime
}  // namespace shflbw
