#include "runtime/engine.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/clock.h"
#include "common/rng.h"
#include "model/weight_synth.h"
#include "quality/quality_planner.h"

namespace shflbw {
namespace runtime {

Engine::Engine(ModelDesc model, EngineOptions opts)
    : Engine(std::move(model), opts, std::make_shared<PackedWeightCache>()) {}

Engine::Engine(ModelDesc model, EngineOptions opts,
               std::shared_ptr<PackedWeightCache> cache)
    : model_(std::move(model)),
      opts_(opts),
      spec_(GetGpuSpec(opts.planner.arch)),
      cache_(std::move(cache)),
      masters_(model_.layers.size()) {
  SHFLBW_CHECK_MSG(!model_.layers.empty(), "model has no layers");
  SHFLBW_CHECK_MSG(cache_ != nullptr, "engine needs a weight cache");
  // Pack-site fault injection rides the cache; engines sharing a cache
  // pass the same injector, so repeated installs are idempotent.
  if (opts_.fault_injector) cache_->SetFaultInjector(opts_.fault_injector);
}

const ExecutionPlan& Engine::Plan() {
  if (plan_) return *plan_;
  // Quality evaluation must score exactly the masters this engine
  // packs, so the engine's weight seed overrides whatever the caller
  // left in the quality options.
  PlannerOptions popts = opts_.planner;
  if (popts.quality.enabled) popts.quality.weight_seed = opts_.weight_seed;
  plan_ = PlanModel(model_, popts);
  // An aggregate quality floor is a whole-model constraint: re-ranking
  // any single layer empirically could silently break it, so autotune
  // is skipped there. Per-layer floors filter candidates instead (see
  // Autotune).
  const bool aggregate_floor =
      popts.quality.enabled &&
      popts.quality.floor == QualityOptions::Floor::kAggregate;
  if (opts_.planner.autotune && !opts_.planner.force_format &&
      !aggregate_floor) {
    Autotune();
  }
  return *plan_;
}

void Engine::AdoptPlan(ExecutionPlan plan) {
  SHFLBW_CHECK_MSG(!plan_, "AdoptPlan called after the engine already has a "
                           "plan");
  SHFLBW_CHECK_MSG(plan.layers.size() == model_.layers.size(),
                   "adopted plan has " << plan.layers.size()
                                       << " layers, model has "
                                       << model_.layers.size());
  // PlanModel never puts a conv layer on a format without a conv
  // kernel; an adopted plan is checked here so no launch can.
  for (std::size_t i = 0; i < plan.layers.size(); ++i) {
    const LayerPlan& lp = plan.layers[i];
    SHFLBW_CHECK_MSG(
        model_.layers[i].kind != LayerKind::kConv || Ops(lp.format).conv,
        "adopted plan runs conv layer " << lp.name << " as "
                                        << FormatName(lp.format)
                                        << ", which has no conv kernel");
  }
  plan_ = std::move(plan);
}

const Matrix<float>& Engine::MasterWeight(int layer) {
  auto& slot = masters_[static_cast<std::size_t>(layer)];
  if (!slot) {
    const LayerDesc& l = model_.layers[static_cast<std::size_t>(layer)];
    SynthWeightOptions synth;
    synth.seed = opts_.weight_seed + static_cast<std::uint64_t>(layer);
    slot = SynthesizeWeights(l.GemmM(), l.GemmK(), synth);
  }
  return *slot;
}

const PackedWeight& Engine::Packed(int layer, Format format, double density,
                                   int v) {
  // Lazy master: a cache hit (the steady state, and every layer of a
  // replica running behind a shared warmed cache) never synthesizes or
  // retains the dense master weight.
  return cache_->GetOrPack(
      layer, format,
      [&]() -> const Matrix<float>& { return MasterWeight(layer); }, density,
      v);
}

const Matrix<float>& Engine::FusedGemmInput(int k, int n, int width) {
  // Reshape, not reallocate-if-different: the exact logical extent
  // guarantees a narrower batch following a wider one cannot read the
  // wide batch's stale tail columns (Matrix::Reshape drops the tail).
  gemm_input_scratch_.Reshape(k, n * width);
  for (int j = 0; j < width; ++j) {
    const std::vector<float>& stream = streams_[static_cast<std::size_t>(j)];
    const std::size_t len = stream.size();
    // Element order within the block matches a width-1 run exactly:
    // row-major index i = r*n + c wrapped cyclically over the stream.
    std::size_t i = 0;
    for (int r = 0; r < k; ++r) {
      float* dst = gemm_input_scratch_.row(r) + static_cast<std::size_t>(j) * n;
      for (int c = 0; c < n; ++c, ++i) dst[c] = stream[i % len];
    }
  }
  return gemm_input_scratch_;
}

const Tensor4& Engine::FusedConvInput(const ConvShape& shape, int width) {
  conv_input_scratch_.Reshape(shape.batch * width, shape.in_c, shape.in_h,
                              shape.in_w);
  // NCHW with batch outermost: request j's images are the contiguous
  // range [j*per, (j+1)*per), filled in the same order a width-1 run
  // fills its whole tensor.
  const std::size_t per = static_cast<std::size_t>(shape.batch) *
                          shape.in_c * shape.in_h * shape.in_w;
  for (int j = 0; j < width; ++j) {
    const std::vector<float>& stream = streams_[static_cast<std::size_t>(j)];
    const std::size_t len = stream.size();
    float* dst = conv_input_scratch_.data.data() +
                 static_cast<std::size_t>(j) * per;
    for (std::size_t i = 0; i < per; ++i) dst[i] = stream[i % len];
  }
  return conv_input_scratch_;
}

const std::vector<Engine::KernelMetrics>& Engine::KernelMetricsHandles() {
  if (!kernel_metrics_.empty()) return kernel_metrics_;
  obs::Registry& reg = opts_.telemetry->registry();
  kernel_metrics_.reserve(plan_->layers.size());
  for (const LayerPlan& lp : plan_->layers) {
    // Full profiling key: the (layer, format, density, V) tuple the
    // roofline calibration wants, formatted once here and never on the
    // launch path.
    std::ostringstream key;
    key.precision(4);
    key << "{layer=\"" << lp.name << "\",format=\"" << FormatName(lp.format)
        << "\",density=\"" << lp.density << "\",v=\"" << lp.v << "\"}";
    // The drift row shares the full key: distinct ladder levels plan
    // the same layer name at different (format, density, V) — and
    // different modeled_s — so a layer-only label would make levels
    // fight over one gauge. Replicas at the same level share a plan,
    // so sharing the row is correct there.
    const std::string labels = key.str();
    KernelMetrics m;
    m.launches = &reg.GetCounter(
        "shflbw_kernel_launches_total" + labels,
        "Fused kernel launches per (layer, format, density, V)");
    m.seconds = &reg.GetCounter("shflbw_kernel_seconds_total" + labels,
                                "Fused kernel wall-clock seconds");
    m.requests = &reg.GetCounter("shflbw_kernel_requests_total" + labels,
                                 "Requests served by fused launches "
                                 "(sum of widths)");
    m.flops = &reg.GetCounter("shflbw_kernel_flops_total" + labels,
                              "Useful FLOPs retired by fused launches");
    m.measured = &reg.GetGauge("shflbw_plan_measured_seconds" + labels,
                               "Measured per-request layer seconds "
                               "(cumulative mean over launches)");
    m.drift = &reg.GetGauge("shflbw_plan_drift_ratio" + labels,
                            "Measured / planner-modeled per-request layer "
                            "seconds");
    reg.GetGauge("shflbw_plan_modeled_seconds" + labels,
                 "Planner cost-model per-request layer seconds")
        .Set(lp.modeled_s);
    kernel_metrics_.push_back(m);
  }
  return kernel_metrics_;
}

RunResult Engine::Run() { return Run(opts_.activation_seed); }

RunResult Engine::Run(std::uint64_t activation_seed) {
  // Width-1 fused run: one code path for serial and batched execution
  // means the bit-identity contract between them holds by construction.
  BatchRunResult batch = RunBatched({activation_seed});
  RunResult result;
  result.output = std::move(batch.outputs.front());
  result.kernel_seconds = batch.kernel_seconds;
  result.weighted_seconds = batch.weighted_seconds;
  result.overhead_seconds = batch.overhead_seconds;
  result.packs_performed = batch.packs_performed;
  result.layers = std::move(batch.layers);
  return result;
}

BatchRunResult Engine::RunBatched(const std::vector<std::uint64_t>& seeds) {
  return RunBatched(seeds, BatchContext{});
}

BatchRunResult Engine::RunBatched(const std::vector<std::uint64_t>& seeds,
                                  const BatchContext& ctx) {
  SHFLBW_CHECK_MSG(!seeds.empty(), "RunBatched needs at least one request");
  const int width = static_cast<int>(seeds.size());
  const ExecutionPlan& plan = Plan();
  const std::size_t packs_before = cache_->TotalPacks();
  obs::Telemetry* const tel = opts_.telemetry.get();
  const bool profile = tel != nullptr && tel->metrics_on();
  const bool tracing = tel != nullptr && tel->tracing_on();
  const std::vector<KernelMetrics>* km =
      profile ? &KernelMetricsHandles() : nullptr;

  BatchRunResult result;
  result.width = width;
  // Fresh deterministic input stream per request, exactly as a width-1
  // run of the same seed would build it: identical values regardless of
  // thread count, batch width, prior calls or co-batched neighbours.
  streams_.resize(static_cast<std::size_t>(width));
  {
    const LayerDesc& first = model_.layers.front();
    const std::size_t need =
        first.kind == LayerKind::kConv
            ? static_cast<std::size_t>(first.conv.batch) * first.conv.in_c *
                  first.conv.in_h * first.conv.in_w
            : static_cast<std::size_t>(first.gemm.k) * first.gemm.n;
    for (int j = 0; j < width; ++j) {
      Rng rng(seeds[static_cast<std::size_t>(j)]);
      std::vector<float>& stream = streams_[static_cast<std::size_t>(j)];
      stream.resize(need);
      for (float& x : stream) x = static_cast<float>(rng.Normal());
    }
  }

  for (std::size_t i = 0; i < model_.layers.size(); ++i) {
    const LayerDesc& l = model_.layers[i];
    const LayerPlan& lp = plan.layers[i];
    // Fault hook: one consultation per layer launch (may delay or throw
    // TransientFault — the scheduler's retry path re-enters RunBatched,
    // which rebuilds all streaming state, so a mid-model abort leaves
    // nothing to corrupt).
    if (opts_.fault_injector) opts_.fault_injector->OnKernelLaunch();
    const PackedWeight& w =
        Packed(static_cast<int>(i), lp.format, lp.density, lp.v);

    // ONE kernel launch per layer for all `width` requests: GEMM layers
    // widen N to n*width (request j = column block j), conv layers
    // widen the batch to batch*width (request j = batch block j, which
    // Im2Col turns into column block j of the implicit GEMM).
    double adapt0 = NowSeconds();
    const FormatOps& ops = Ops(w.format);
    Matrix<float> layer_out;
    double t0 = 0, t1 = 0;
    int block_n = 0;  // per-request output columns of this layer
    if (l.kind == LayerKind::kGemm) {
      block_n = l.gemm.n;
      const Matrix<float>& act = FusedGemmInput(l.gemm.k, l.gemm.n, width);
      t0 = NowSeconds();
      layer_out = ops.gemm(w, act);
      t1 = NowSeconds();
    } else {
      const ConvShape shape = ToConvShape(l.conv);
      block_n = shape.GemmN();
      ConvShape fused = shape;
      fused.batch = shape.batch * width;
      const Tensor4& input = FusedConvInput(shape, width);
      t0 = NowSeconds();
      layer_out = ops.conv(w, fused, input);
      t1 = NowSeconds();
    }

    LayerRunRecord rec;
    rec.name = l.Name();
    rec.format = lp.format;
    rec.repeat = l.repeat;
    rec.seconds = t1 - t0;
    // A conv layer's useful FLOPs are those of its implicit GEMM, whose
    // N is the fused batch's output pixels.
    rec.useful_flops = ops.gemm_stats(w, block_n * width, spec_).useful_flops;
    rec.modeled_s = lp.modeled_s;
    rec.modeled_dense_s = lp.modeled_dense_s;
    result.kernel_seconds += rec.seconds;
    result.weighted_seconds += rec.seconds * l.repeat;

    if (profile) {
      // One launch retired: bump the (layer, format, density, V) row
      // and refresh the per-request measured mean + drift against the
      // planner's model. All relaxed adds / stores — replicas sharing
      // the registry converge on the merged totals.
      const KernelMetrics& m = (*km)[i];
      m.launches->Add();
      m.seconds->Add(rec.seconds);
      m.requests->Add(width);
      m.flops->Add(rec.useful_flops);
      const double total_s = m.seconds->Value();
      const double total_req = m.requests->Value();
      if (total_req > 0) {
        const double per_request = total_s / total_req;
        m.measured->Set(per_request);
        if (lp.modeled_s > 0) m.drift->Set(per_request / lp.modeled_s);
      }
    }
    if (tracing) {
      obs::TraceEvent ev;
      ev.kind = obs::SpanKind::kKernel;
      ev.begin_seconds = t0;
      ev.end_seconds = t1;
      ev.batch_id = ctx.batch_id;
      ev.replica = ctx.replica;
      ev.level = ctx.level;
      ev.layer = static_cast<std::int32_t>(i);
      ev.width = width;
      ev.SetLabel(rec.name);
      ev.SetLabel2(FormatName(lp.format));
      tel->trace().Record(ev);
    }
    result.layers.push_back(std::move(rec));

    // Stream this layer's output into the next layer's input at unit
    // RMS — the stand-in for the inter-layer normalization real models
    // carry; without it activations compound out of fp16 range within a
    // few layers. The reduction runs PER REQUEST over its own column
    // block, visiting elements in the block's row-major order — the
    // exact value sequence (and thus the exact double accumulation and
    // inv_rms bit pattern) of a width-1 run of the same request. The
    // final layer streams into nothing, so it skips the pass entirely.
    const int rows = layer_out.rows();
    const bool last = i + 1 == model_.layers.size();
    for (int j = 0; !last && j < width; ++j) {
      double sum_sq = 0.0;
      for (int r = 0; r < rows; ++r) {
        const float* src =
            layer_out.row(r) + static_cast<std::size_t>(j) * block_n;
        for (int c = 0; c < block_n; ++c) {
          const float x = src[c];
          sum_sq += static_cast<double>(x) * x;
        }
      }
      const std::size_t block_size =
          static_cast<std::size_t>(rows) * block_n;
      const float inv_rms =
          sum_sq > 0.0
              ? static_cast<float>(1.0 / std::sqrt(sum_sq / block_size))
              : 1.0f;
      std::vector<float>& stream = streams_[static_cast<std::size_t>(j)];
      stream.resize(block_size);
      for (int r = 0; r < rows; ++r) {
        const float* src =
            layer_out.row(r) + static_cast<std::size_t>(j) * block_n;
        float* dst = stream.data() + static_cast<std::size_t>(r) * block_n;
        for (int c = 0; c < block_n; ++c) dst[c] = src[c] * inv_rms;
      }
    }
    result.overhead_seconds += (t0 - adapt0) + (NowSeconds() - t1);

    if (last) {
      // De-interleave the fused output into per-request matrices. At
      // width 1 the whole matrix IS request 0's block: move it, keeping
      // the serial Run path zero-copy as before.
      result.outputs.reserve(static_cast<std::size_t>(width));
      if (width == 1) {
        result.outputs.push_back(std::move(layer_out));
      } else {
        for (int j = 0; j < width; ++j) {
          Matrix<float> out(rows, block_n);
          for (int r = 0; r < rows; ++r) {
            const float* src =
                layer_out.row(r) + static_cast<std::size_t>(j) * block_n;
            std::copy(src, src + block_n, out.row(r));
          }
          result.outputs.push_back(std::move(out));
        }
      }
    }
  }

  result.packs_performed = cache_->TotalPacks() - packs_before;
  return result;
}

double Engine::TimeLayerOnce(int layer, const FormatCandidate& cand) {
  const LayerDesc& l = model_.layers[static_cast<std::size_t>(layer)];
  const PackedWeight& w = Packed(layer, cand.format, cand.density, cand.v);
  // Deterministic throwaway activations at this layer's shape.
  Rng rng(opts_.activation_seed ^ 0x7a11u);
  if (l.kind == LayerKind::kGemm) {
    const Matrix<float> act = rng.NormalMatrix(l.gemm.k, l.gemm.n);
    const double t0 = NowSeconds();
    (void)Ops(w.format).gemm(w, act);
    return NowSeconds() - t0;
  }
  const ConvShape shape = ToConvShape(l.conv);
  Tensor4 input(shape.batch, shape.in_c, shape.in_h, shape.in_w);
  for (float& x : input.data) x = static_cast<float>(rng.Normal());
  const double t0 = NowSeconds();
  (void)Ops(w.format).conv(w, shape, input);
  return NowSeconds() - t0;
}

void Engine::Autotune() {
  const QualityOptions& q = opts_.planner.quality;
  const bool floor_per_layer =
      q.enabled && q.floor == QualityOptions::Floor::kPerLayer;
  for (LayerPlan& lp : plan_->layers) {
    // Only feasible candidates can be timed, and under a per-layer
    // quality floor only candidates MEETING the floor are eligible —
    // autotune re-ranks within the quality-qualified set, it never
    // trades retained importance away for measured speed. Clamp top_k
    // to the eligible count, so a generous autotune_top_k never implies
    // more measurements than were actually taken.
    std::vector<std::size_t> eligible;
    for (std::size_t c = 0; c < lp.candidates.size(); ++c) {
      const FormatCandidate& cand = lp.candidates[c];
      if (!cand.feasible) break;  // sorted: feasible prefix
      if (floor_per_layer &&
          cand.retained_ratio + quality::kFloorEps < q.min_retained_ratio) {
        continue;
      }
      eligible.push_back(c);
    }
    const std::size_t top_k = std::min(
        static_cast<std::size_t>(std::max(1, opts_.planner.autotune_top_k)),
        eligible.size());
    if (top_k < 2) continue;  // nothing to re-rank; autotuned stays false
    std::size_t best = eligible.size();
    for (std::size_t c = 0; c < top_k; ++c) {
      FormatCandidate& cand = lp.candidates[eligible[c]];
      cand.measured_s = TimeLayerOnce(lp.layer, cand);
      if (best == eligible.size() ||
          cand.measured_s < lp.candidates[eligible[best]].measured_s) {
        best = c;
      }
    }
    const FormatCandidate& winner = lp.candidates[eligible[best]];
    // Report a layer as autotuned only when the winner was genuinely
    // measured: a 0-second sample means the clock could not resolve the
    // launch, and re-ranking on it would present unmeasured candidates
    // (measured_s == 0, exactly like the skipped infeasible ones) as
    // empirical winners in the plan summary.
    if (winner.measured_s <= 0.0) continue;
    lp.Select(winner);
    lp.autotuned = true;
  }
}

}  // namespace runtime
}  // namespace shflbw
