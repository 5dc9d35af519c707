#include "runtime/engine.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "common/check.h"
#include "common/clock.h"
#include "common/hot_path.h"
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

namespace {

/// 1 / RMS of one request's block of `out` (columns [col0, col0 + cols)
/// of every row), or 1 for an all-zero block. Element p of the block
/// (row-major, p = r * cols + c) adds its exact double square to lane
/// p % 8, and the eight lanes are combined pairwise in a fixed order:
/// the sum depends on the block alone, never on the batch width or
/// the thread count, and FMA contraction cannot move it.
float InvRms(const Matrix<float>& out, int col0, int cols) {
  constexpr int kLanes = 8;
  double lane[kLanes] = {};
  std::size_t p = 0;  // block position of the next element
  SHFLBW_HOT_BEGIN;
  for (int r = 0; r < out.rows(); ++r) {
    const float* src = out.row(r) + col0;
    int c = 0;
    for (; c < cols && p % kLanes != 0; ++c, ++p) {
      lane[p % kLanes] += static_cast<double>(src[c]) * src[c];
    }
    for (; c + kLanes <= cols; c += kLanes, p += kLanes) {
      for (int t = 0; t < kLanes; ++t) {
        lane[t] += static_cast<double>(src[c + t]) * src[c + t];
      }
    }
    for (; c < cols; ++c, ++p) {
      lane[p % kLanes] += static_cast<double>(src[c]) * src[c];
    }
  }
  SHFLBW_HOT_END;
  const double sum_sq = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
                        ((lane[4] + lane[5]) + (lane[6] + lane[7]));
  return sum_sq > 0.0 ? static_cast<float>(
                            1.0 / std::sqrt(sum_sq / static_cast<double>(p)))
                      : 1.0f;
}

/// Writes stream positions [pos, pos + count) of one request's block of
/// `out` (columns [col0, col0 + cols) of every row, read row-major and
/// wrapped cyclically), each times `scale`, to dst: whole runs up to
/// the end of a block row, never a `%` per element.
void CopyWrapped(const Matrix<float>& out, int col0, int cols, float scale,
                 std::size_t pos, std::size_t count, float* dst) {
  const std::size_t row_len = static_cast<std::size_t>(cols);
  const std::size_t len = static_cast<std::size_t>(out.rows()) * row_len;
  pos %= len;
  SHFLBW_HOT_BEGIN;
  while (count > 0) {
    const std::size_t c = pos % row_len;
    const std::size_t run = std::min(count, row_len - c);
    const float* src = out.row(static_cast<int>(pos / row_len)) + col0 + c;
    for (std::size_t t = 0; t < run; ++t) dst[t] = src[t] * scale;
    dst += run;
    count -= run;
    pos += run;
    if (pos == len) pos = 0;
  }
  SHFLBW_HOT_END;
}

}  // namespace

void Engine::FillLayerInput(std::size_t layer,
                            const std::vector<std::uint64_t>& seeds,
                            const Matrix<float>& prev, int prev_cols) {
  const LayerDesc& l = model_.layers[layer];
  const int width = static_cast<int>(seeds.size());
  // Reshape, not reallocate-if-different: the exact logical extent
  // guarantees a narrower batch following a wider one cannot read the
  // wide batch's stale tail columns (Matrix::Reshape drops the tail).
  std::size_t per = 0;  // conv: one request's NCHW elements
  if (l.kind == LayerKind::kGemm) {
    gemm_input_scratch_.Reshape(l.gemm.k, l.gemm.n * width);
  } else {
    const ConvShape shape = ToConvShape(l.conv);
    conv_input_scratch_.Reshape(shape.batch * width, shape.in_c, shape.in_h,
                                shape.in_w);
    per = static_cast<std::size_t>(shape.batch) * shape.in_c * shape.in_h *
          shape.in_w;
  }
  SHFLBW_HOT_BEGIN;
  for (int j = 0; j < width; ++j) {
    const std::uint64_t seed = seeds[static_cast<std::size_t>(j)];
    const int col0 = j * prev_cols;
    const float scale = layer == 0 ? 1.0f : InvRms(prev, col0, prev_cols);
    // Request j's stream positions [pos, pos + count) into dst.
    const auto stream = [&](std::size_t pos, std::size_t count, float* dst) {
      if (layer == 0) {
        PhiloxNormalFill(seed, pos, count, dst);
      } else {
        CopyWrapped(prev, col0, prev_cols, scale, pos, count, dst);
      }
    };
    if (l.kind == LayerKind::kGemm) {
      // Request j is column block [j*n, (j+1)*n); block row r holds
      // stream positions [r*n, (r+1)*n).
      const int n = l.gemm.n;
      for (int r = 0; r < l.gemm.k; ++r) {
        stream(static_cast<std::size_t>(r) * n, static_cast<std::size_t>(n),
               gemm_input_scratch_.row(r) + static_cast<std::size_t>(j) * n);
      }
    } else {
      // NCHW with batch outermost: request j's images are the
      // contiguous range [j*per, (j+1)*per).
      stream(0, per,
             conv_input_scratch_.data.data() +
                 static_cast<std::size_t>(j) * per);
    }
  }
  SHFLBW_HOT_END;
}

std::string PlanLayerLabels(const LayerPlan& lp) {
  char density[32] = {};  // the longest shortest-round-trip double is 24
  char* const end =
      std::to_chars(density, density + sizeof density, lp.density).ptr;
  return "{layer=\"" + lp.name + "\",format=\"" + FormatName(lp.format) +
         "\",density=\"" + std::string(density, end) + "\",v=\"" +
         std::to_string(lp.v) + "\"}";
}

const std::vector<Engine::KernelMetrics>& Engine::KernelMetricsHandles() {
  if (!kernel_metrics_.empty()) return kernel_metrics_;
  obs::Registry& reg = opts_.telemetry->registry();
  kernel_metrics_.reserve(plan_->layers.size());
  for (const LayerPlan& lp : plan_->layers) {
    // Full profiling key: the (layer, format, density, V) tuple the
    // roofline calibration wants, formatted once here and never on the
    // launch path. The drift row shares the full key: distinct ladder
    // levels plan the same layer name at different (format, density,
    // V) — and different modeled_s — so a layer-only label would make
    // levels fight over one gauge. Replicas at the same level share a
    // plan, so sharing the row is correct there.
    const std::string labels = PlanLayerLabels(lp);
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
  const double begin = NowSeconds();
  const std::size_t packs_before = cache_->TotalPacks();
  obs::Telemetry* const tel = opts_.telemetry.get();
  const bool profile = tel != nullptr && tel->metrics_on();
  const bool tracing = tel != nullptr && tel->tracing_on();
  const std::vector<KernelMetrics>* km =
      profile ? &KernelMetricsHandles() : nullptr;

  BatchRunResult result;
  result.width = width;
  // The previous layer's fused output, `prev_cols` columns per request:
  // the source of the next layer's fill.
  Matrix<float> prev;
  int prev_cols = 0;

  for (std::size_t i = 0; i < model_.layers.size(); ++i) {
    const LayerDesc& l = model_.layers[i];
    const LayerPlan& lp = plan.layers[i];
    // Fault hook: one consultation per layer launch (may delay or throw
    // TransientFault — the scheduler's retry path re-enters RunBatched,
    // which refills every input from the seeds, so a mid-model abort
    // leaves nothing to corrupt).
    if (opts_.fault_injector) opts_.fault_injector->OnKernelLaunch();
    const PackedWeight& w =
        Packed(static_cast<int>(i), lp.format, lp.density, lp.v);

    // ONE kernel launch per layer for all `width` requests: GEMM layers
    // widen N to n*width (request j = column block j), conv layers
    // widen the batch to batch*width (request j = batch block j, which
    // Im2Col turns into column block j of the implicit GEMM).
    FillLayerInput(i, seeds, prev, prev_cols);
    prev = Matrix<float>();  // consumed: free it before the launch
    const FormatOps& ops = Ops(w.format);
    Matrix<float> layer_out;
    double t0 = 0, t1 = 0;
    int block_n = 0;  // per-request output columns of this layer
    if (l.kind == LayerKind::kGemm) {
      block_n = l.gemm.n;
      t0 = NowSeconds();
      layer_out = ops.gemm(w, gemm_input_scratch_);
      t1 = NowSeconds();
    } else {
      const ConvShape shape = ToConvShape(l.conv);
      block_n = shape.GemmN();
      ConvShape fused = shape;
      fused.batch = shape.batch * width;
      t0 = NowSeconds();
      layer_out = ops.conv(w, fused, conv_input_scratch_);
      t1 = NowSeconds();
    }

    LayerRunRecord rec;
    rec.name = l.Name();
    rec.format = lp.format;
    rec.repeat = l.repeat;
    rec.seconds = t1 - t0;
    // A conv layer's useful FLOPs are those of its implicit GEMM, whose
    // N is the fused batch's output pixels.
    rec.useful_flops = 2.0 * w.StoredValues() * (block_n * width);
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
    prev = std::move(layer_out);
    prev_cols = block_n;
  }

  // De-interleave the final layer's fused output into per-request
  // matrices. At width 1 the whole matrix IS request 0's block: move
  // it, keeping the serial Run path zero-copy.
  result.outputs.reserve(static_cast<std::size_t>(width));
  if (width == 1) {
    result.outputs.push_back(std::move(prev));
  } else {
    for (int j = 0; j < width; ++j) {
      Matrix<float> out(prev.rows(), prev_cols);
      for (int r = 0; r < prev.rows(); ++r) {
        const float* src =
            prev.row(r) + static_cast<std::size_t>(j) * prev_cols;
        std::copy(src, src + prev_cols, out.row(r));
      }
      result.outputs.push_back(std::move(out));
    }
  }

  result.packs_performed = cache_->TotalPacks() - packs_before;
  result.overhead_seconds = NowSeconds() - begin - result.kernel_seconds;
  return result;
}

double Engine::TimeLayerOnce(int layer, const FormatCandidate& cand) {
  const LayerDesc& l = model_.layers[static_cast<std::size_t>(layer)];
  const PackedWeight& w = Packed(layer, cand.format, cand.density, cand.v);
  // Deterministic throwaway activations at this layer's shape.
  const std::uint64_t seed = opts_.activation_seed ^ 0x7a11u;
  if (l.kind == LayerKind::kGemm) {
    Matrix<float> act(l.gemm.k, l.gemm.n);
    PhiloxNormalFill(seed, 0, act.size(), act.data());
    const double t0 = NowSeconds();
    (void)Ops(w.format).gemm(w, act);
    return NowSeconds() - t0;
  }
  const ConvShape shape = ToConvShape(l.conv);
  Tensor4 input(shape.batch, shape.in_c, shape.in_h, shape.in_w);
  PhiloxNormalFill(seed, 0, input.data.size(), input.data.data());
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
