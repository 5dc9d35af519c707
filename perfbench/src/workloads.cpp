#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "common/build_info.h"
#include "common/check.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "kernels/conv2d.h"
#include "kernels/spmm_shfl_bw.h"
#include "kernels/spmm_vector_wise.h"
#include "measure.h"
#include "model/weight_synth.h"
#include "prune/shfl_bw_search.h"
#include "quality/quality_evaluator.h"
#include "runtime/server.h"

namespace perfbench {
namespace {

using shflbw::Error;
using shflbw::GpuArch;
using shflbw::Matrix;
using shflbw::NowSeconds;
using shflbw::quality::QualityEvaluator;
using namespace shflbw::runtime;

// DeriveSeed streams: served requests, set-up launches, probe inputs.
constexpr std::uint64_t kRequestStream = 1;
constexpr std::uint64_t kSetupStream = 2;
constexpr std::uint64_t kProbeStream = 3;

// Entry-point calls per layer in the traced run's kernel probe.
constexpr int kProbeReps = 5;
// Untimed closed-loop seconds before the first serving segment, so
// timing starts at the steady in-flight depth.
constexpr double kServeWarmSeconds = 0.5;
// The serving loop runs in segments of this many seconds. The traced
// run alternates traced and untraced segments (the offline traced run
// alternates launch by launch), and the output check runs between them.
constexpr double kServeSegmentSeconds = 1.0;
// Launches of the standalone engine at the server's width (traced
// serving run): the engine baseline of runtime.server.self_ms.
constexpr double kStandaloneSeconds = 1.0;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr const char* kKernelSpanSource =
    "Engine::RunBatched per-layer seconds (LayerRunRecord), laid end to "
    "end from the launch start";

std::vector<ExpectedLayer> Uniform(const ModelDesc& model, Format format,
                                   double density, int v) {
  std::vector<ExpectedLayer> out;
  for (const LayerDesc& l : model.layers) {
    out.push_back({l.Name(), format, density, v});
  }
  return out;
}

PlannerOptions QualityPlanner(int v) {
  PlannerOptions p;
  p.arch = GpuArch::kT4;
  p.density = 0.25;
  p.v = v;
  p.quality.enabled = true;
  p.quality.min_retained_ratio = 0.5;
  return p;
}

WorkloadSpec OfflineTransformer() {
  WorkloadSpec w;
  w.name = "offline-transformer";
  w.model_config = "transformer d_model=256 d_ff=1024 tokens=128 enc=2 dec=2";
  w.model = ModelDesc::Transformer(shflbw::TransformerConfig{256, 1024, 128, 2, 2});
  w.planner = QualityPlanner(32);
  w.width = 8;
  w.in_flight = 8;
  w.setup_reps = 1;
  w.tail_pct = 90;
  w.expected = Uniform(w.model, Format::kShflBw, 0.25, 32);
  w.expected_min_ratio = 0.5289;
  return w;
}

WorkloadSpec OfflineResnet() {
  WorkloadSpec w;
  w.name = "offline-resnet";
  w.model_config = "resnet50 bottleneck convs batch=1 image=64";
  w.model = ModelDesc::ResNet50(shflbw::ResNet50Config{1, 64});
  w.planner = PlannerOptions{};  // speed-only: V100 model, density 0.25, V=32
  w.width = 2;
  w.in_flight = 2;
  w.setup_reps = 5;
  w.tail_pct = 90;
  const ExpectedLayer dense{"", Format::kDense, 1.0, 32};
  const ExpectedLayer vw{"", Format::kVectorWise, 0.25, 32};
  const std::vector<std::pair<std::string, ExpectedLayer>> layers = {
      {"conv2.reduce1x1", dense}, {"conv2.conv3x3", vw},
      {"conv2.expand1x1", dense}, {"conv3.reduce1x1", dense},
      {"conv3.conv3x3", vw},      {"conv3.expand1x1", dense},
      {"conv4.reduce1x1", vw},    {"conv4.conv3x3", vw},
      {"conv4.expand1x1", vw},    {"conv5.reduce1x1", vw},
      {"conv5.conv3x3", vw},      {"conv5.expand1x1", vw}};
  for (const auto& [name, layer] : layers) {
    w.expected.push_back(layer);
    w.expected.back().name = name;
  }
  return w;
}

WorkloadSpec ServeClosed() {
  WorkloadSpec w;
  w.name = "serve-closed";
  w.model_config = "transformer d_model=64 d_ff=256 tokens=32 enc=1 dec=1";
  w.model = ModelDesc::Transformer(shflbw::TransformerConfig{64, 256, 32, 1, 1});
  w.planner = QualityPlanner(8);
  w.width = 8;
  w.in_flight = 48;
  w.replicas = 1;
  w.setup_reps = 5;
  w.tail_pct = 99;
  w.expected = Uniform(w.model, Format::kShflBw, 0.25, 8);
  w.expected_min_ratio = 0.5436;
  return w;
}

/// Latency samples the timed loop needs: ten beyond the tail
/// percentile.
std::size_t MinSamples(const WorkloadSpec& spec) {
  return MinSamplesFor(spec.tail_pct);
}

// ---------------------------------------------------------------------
// Set-up

/// A plan, the cache it is packed into, and an engine that adopted it.
struct Rig {
  ExecutionPlan plan;
  std::shared_ptr<PackedWeightCache> cache;
  std::unique_ptr<Engine> engine;
};

EngineOptions EngineOptionsOf(const WorkloadSpec& spec) {
  EngineOptions eo;
  eo.planner = spec.planner;
  return eo;
}

std::vector<std::uint64_t> Seeds(std::uint64_t seed, std::uint64_t stream,
                                 std::uint64_t first, int count) {
  std::vector<std::uint64_t> out;
  for (int j = 0; j < count; ++j) {
    out.push_back(DeriveSeed(seed, stream, first + static_cast<std::uint64_t>(j)));
  }
  return out;
}

/// Cold engine set-up: plan (unless `adopt` is given), synthesize and
/// pack every layer's weight, then one launch. `evaluations` receives
/// the mask evaluations the plan ran.
Rig ColdSetUp(const WorkloadSpec& spec, std::uint64_t seed, Trace* trace,
              std::size_t* evaluations, const ExecutionPlan* adopt = nullptr) {
  ScopedSpan root(trace, "setup");
  const EngineOptions eo = EngineOptionsOf(spec);
  Rig rig;
  if (adopt != nullptr) {
    rig.plan = *adopt;
  } else {
    QualityEvaluator& shared = QualityEvaluator::Shared();
    shared.Clear();  // a second plan in one process would hit the memo
    PlannerOptions popts = spec.planner;
    popts.quality.weight_seed = eo.weight_seed;  // as Engine::Plan does
    const std::size_t before = shared.Evaluations();
    {
      ScopedSpan s(trace, "PlanModel", root.index());
      rig.plan = PlanModel(spec.model, popts);
    }
    if (evaluations != nullptr) *evaluations = shared.Evaluations() - before;
  }
  rig.cache = std::make_shared<PackedWeightCache>();
  for (std::size_t i = 0; i < spec.model.layers.size(); ++i) {
    const LayerDesc& l = spec.model.layers[i];
    const LayerPlan& lp = rig.plan.layers[i];
    Matrix<float> master;
    {
      ScopedSpan s(trace, "SynthesizeWeights", root.index(), 0, lp.name);
      shflbw::SynthWeightOptions synth;
      synth.seed = eo.weight_seed + i;  // Engine::MasterWeight's seed
      master = shflbw::SynthesizeWeights(l.GemmM(), l.GemmK(), synth);
    }
    if (trace != nullptr && lp.format == Format::kShflBw) {
      // The mask search alone; GetOrPack below runs it again inside.
      ScopedSpan s(trace, "PruneToShflBw", root.index(), 0, lp.name);
      (void)shflbw::PruneToShflBw(master, lp.density, lp.v);
    }
    ScopedSpan s(trace, "PackedWeightCache::GetOrPack", root.index(), 0,
                 lp.name);
    (void)rig.cache->GetOrPack(static_cast<int>(i), lp.format, master,
                               lp.density, lp.v);
  }
  rig.engine = std::make_unique<Engine>(spec.model, eo, rig.cache);
  rig.engine->AdoptPlan(rig.plan);
  {
    ScopedSpan s(trace, "Engine::RunBatched", root.index());
    (void)rig.engine->RunBatched(Seeds(seed, kSetupStream, 0, spec.width));
  }
  SHFLBW_CHECK_MSG(rig.cache->TotalPacks() == spec.model.layers.size(),
                   "the first launch packed again: the benchmark's pack "
                   "keys differ from the engine's");
  return rig;
}

ServerOptions ServerOptionsOf(const WorkloadSpec& spec) {
  ServerOptions so;
  so.replicas = spec.replicas;
  so.max_batch = spec.width;
  so.queue_capacity = 64;
  so.engine = EngineOptionsOf(spec);
  return so;
}

/// Cold server set-up: construction (which plans) and Warmup (which
/// packs and launches once).
std::unique_ptr<BatchServer> ColdServer(const WorkloadSpec& spec,
                                        Trace* trace) {
  QualityEvaluator::Shared().Clear();
  std::unique_ptr<BatchServer> server;
  {
    ScopedSpan s(trace, "BatchServer::BatchServer");
    server = std::make_unique<BatchServer>(spec.model, ServerOptionsOf(spec));
  }
  ScopedSpan s(trace, "BatchServer::Warmup");
  server->Warmup();
  return server;
}

/// Throws unless `plan` is the workload's defined plan, so a plan
/// change never reads as a speed change.
void CheckPlan(const WorkloadSpec& spec, const ExecutionPlan& plan) {
  SHFLBW_CHECK_MSG(plan.layers.size() == spec.expected.size(),
                   spec.name << ": plan has " << plan.layers.size()
                             << " layers, the workload defines "
                             << spec.expected.size());
  for (std::size_t i = 0; i < plan.layers.size(); ++i) {
    const LayerPlan& lp = plan.layers[i];
    const ExpectedLayer& e = spec.expected[i];
    SHFLBW_CHECK_MSG(lp.name == e.name && lp.format == e.format &&
                         std::abs(lp.density - e.density) < 1e-12 &&
                         lp.v == e.v,
                     spec.name << ": layer " << i << " planned " << lp.name
                               << " " << FormatName(lp.format) << " d="
                               << lp.density << " V=" << lp.v
                               << ", the workload defines " << e.name << " "
                               << FormatName(e.format) << " d=" << e.density
                               << " V=" << e.v);
  }
  if (spec.expected_min_ratio >= 0) {
    const double r = plan.MinRetainedRatio();
    SHFLBW_CHECK_MSG(std::lround(r * 1e4) == std::lround(spec.expected_min_ratio * 1e4),
                     spec.name << ": plan min retained ratio " << r
                               << ", the workload defines "
                               << spec.expected_min_ratio);
  }
}

// ---------------------------------------------------------------------
// Timed closed loops

struct LoopResult {
  std::vector<Served> served;    // every output, as the check saw it
  std::vector<double> latency_s; // per launch offline, per request serving
  /// Wall time of each timed launch; serving: the server's run_seconds
  /// of each response served by a full-width launch.
  std::vector<double> launch_s;
  std::uint64_t completed = 0;   // requests completed in the window
  // Timed seconds: offline the launches', serving the segments'.
  double wall_s = 0;
  std::uint64_t rejected = 0, shed = 0, errors = 0;
  std::uint64_t mismatches = 0;  // outputs that differ from the reference
  std::size_t steady_packs = 0;
  std::uint64_t pool_regions = 0;
  std::vector<int> batch_widths;  // serving: per in-window response
  // Traced runs: throughput of the traced and untraced halves.
  double traced_s = 0, untraced_s = 0;
  std::uint64_t traced_n = 0, untraced_n = 0;
  // Per layer: useful FLOPs and kernel seconds over traced launches.
  std::vector<double> layer_flops, layer_seconds;
};

/// Offline closed loop: one client thread launches `spec.width` fresh
/// requests per RunBatched until the launches took `seconds` and at
/// least `min_launches` ran. In the traced run every other launch is
/// wrapped in spans, its kernels taken from the per-layer seconds
/// RunBatched returns. With a `reference`, each launch's outputs are
/// checked against it right after the launch, outside the timed part:
/// that spreads the timed launches over the whole run, so the host's
/// slow spells, which last tens of seconds, rarely cover all of them.
LoopResult OfflineLoop(const WorkloadSpec& spec, Rig& rig,
                       std::uint64_t seed, double seconds,
                       std::size_t min_launches, std::uint64_t first_request,
                       Trace* trace, Engine* reference = nullptr) {
  LoopResult r;
  const std::size_t layers = spec.model.layers.size();
  r.layer_flops.assign(layers, 0.0);
  r.layer_seconds.assign(layers, 0.0);
  const std::size_t packs_before = rig.cache->TotalPacks();
  const std::uint64_t regions_before = shflbw::GetPoolStats().regions_entered;
  std::uint64_t next = first_request;
  double timed = 0;
  for (std::uint64_t launch = 0;; ++launch) {
    if (launch >= min_launches && timed >= seconds) break;
    const std::vector<std::uint64_t> seeds =
        Seeds(seed, kRequestStream, next, spec.width);
    next += seeds.size();
    Trace* t = trace != nullptr && launch % 2 == 0 ? trace : nullptr;
    const double t0 = NowSeconds();
    const int span = t != nullptr ? t->Open("Engine::RunBatched", -1, launch) : -1;
    const BatchRunResult out = rig.engine->RunBatched(seeds);
    if (t != nullptr) {
      t->Close(span);
      // Kernel durations are measured inside RunBatched; their
      // positions are not, so they are laid end to end from the start.
      double at = t->spans()[static_cast<std::size_t>(span)].start;
      for (std::size_t i = 0; i < out.layers.size(); ++i) {
        const LayerRunRecord& rec = out.layers[i];
        t->Add("kernel", at, at + rec.seconds, span, launch, rec.name);
        at += rec.seconds;
        r.layer_flops[i] += rec.useful_flops;
        r.layer_seconds[i] += rec.seconds;
      }
    }
    const double t1 = NowSeconds();
    timed += t1 - t0;
    r.latency_s.push_back(t1 - t0);
    r.launch_s.push_back(t1 - t0);
    (t != nullptr ? r.traced_s : r.untraced_s) += t1 - t0;
    (t != nullptr ? r.traced_n : r.untraced_n) += seeds.size();
    for (std::size_t j = 0; j < seeds.size(); ++j) {
      r.served.push_back({seeds[j], Digest(out.outputs[j])});
      if (reference != nullptr &&
          Digest(reference->Run(seeds[j]).output) != r.served.back().digest) {
        ++r.mismatches;
      }
    }
    r.completed += seeds.size();
  }
  r.wall_s = timed;
  r.steady_packs = rig.cache->TotalPacks() - packs_before;
  r.pool_regions = shflbw::GetPoolStats().regions_entered - regions_before;
  return r;
}

/// Serving closed loop: one client thread keeps `spec.in_flight`
/// requests in the server with blocking Submit and waits on the oldest
/// future before submitting the next, for `seconds` of serving in
/// segments of kServeSegmentSeconds. Between segments it drains the
/// server and checks the outputs served so far against `reference`,
/// which spreads the timed launches over the run as OfflineLoop does.
LoopResult ServeLoop(const WorkloadSpec& spec, BatchServer& server,
                     std::uint64_t seed, double seconds, Trace* trace,
                     Engine& reference) {
  struct InFlight {
    std::future<Response> future;
    std::uint64_t seed = 0;
    std::uint64_t index = 0;
    double submit_begin = 0, submit_end = 0;
    bool traced = false;
  };
  LoopResult r;
  std::deque<InFlight> inflight;
  std::uint64_t next = 0;
  const auto submit = [&](bool traced) {
    InFlight f;
    f.index = next++;
    f.seed = DeriveSeed(seed, kRequestStream, f.index);
    f.traced = traced;
    Request req;
    req.activation_seed = f.seed;
    f.submit_begin = NowSeconds();
    const SubmitStatus status = server.Submit(req, &f.future);
    f.submit_end = NowSeconds();
    if (status != SubmitStatus::kAccepted) {
      ++r.rejected;
      return;
    }
    inflight.push_back(std::move(f));
  };
  // Waits for the oldest request; records it when it completes inside
  // the timed window.
  const auto complete = [&](bool in_window) {
    InFlight f = std::move(inflight.front());
    inflight.pop_front();
    Response resp;
    try {
      resp = f.future.get();
    } catch (const std::exception&) {
      ++r.errors;
      return;
    }
    if (resp.status != ResponseStatus::kOk) {
      ++r.shed;
      return;
    }
    r.served.push_back({f.seed, Digest(resp.output)});
    if (!in_window) return;
    const double latency =
        resp.queue_seconds + resp.retry_seconds + resp.run_seconds;
    r.latency_s.push_back(latency);
    r.batch_widths.push_back(resp.batch_width);
    if (resp.batch_width == spec.width) r.launch_s.push_back(resp.run_seconds);
    ++r.completed;
    if (f.traced && trace != nullptr) {
      // Queue and run are measured by the server from its own submit
      // time, which lies inside the Submit call.
      const double q0 = f.submit_end;
      const double q1 = q0 + resp.queue_seconds;
      const double r0 = q1 + resp.retry_seconds;
      const int req = trace->Add("request", f.submit_begin,
                                 r0 + resp.run_seconds, -1, f.index);
      trace->Add("BatchServer::Submit", f.submit_begin, f.submit_end, req,
                 f.index);
      trace->Add("queue", q0, q1, req, f.index);
      if (resp.retry_seconds > 0) trace->Add("retry", q1, r0, req, f.index);
      trace->Add("run", r0, r0 + resp.run_seconds, req, f.index);
    }
  };

  std::size_t checked = 0;  // r.served[0, checked) are checked
  const auto drain_and_check = [&] {
    while (!inflight.empty()) complete(false);
    r.mismatches += CountMismatches(
        std::vector<Served>(r.served.begin() + checked, r.served.end()),
        [&](std::uint64_t s) { return reference.Run(s).output; });
    checked = r.served.size();
  };
  // Fills the server and lets it reach the steady in-flight depth,
  // untimed.
  const auto fill = [&](double warm_seconds) {
    for (int i = 0; i < spec.in_flight; ++i) submit(false);
    const double warm_end = NowSeconds() + warm_seconds;
    for (int i = 0; !inflight.empty() &&
                    (i < spec.in_flight || NowSeconds() < warm_end);
         ++i) {
      complete(false);
      submit(false);
    }
  };

  fill(kServeWarmSeconds);
  const std::size_t min_requests = MinSamples(spec);
  const std::size_t packs_before = server.cache().TotalPacks();
  const std::uint64_t regions_before = shflbw::GetPoolStats().regions_entered;
  double timed = 0;
  double segment_begin = NowSeconds();
  std::uint64_t segment_done = 0;
  bool segment_traced = trace != nullptr;
  while (!inflight.empty()) {
    const double now = NowSeconds();
    const bool done = r.latency_s.size() >= min_requests &&
                      timed + (now - segment_begin) >= seconds;
    if (done || now - segment_begin >= kServeSegmentSeconds) {
      timed += now - segment_begin;
      (segment_traced ? r.traced_s : r.untraced_s) += now - segment_begin;
      (segment_traced ? r.traced_n : r.untraced_n) += segment_done;
      segment_traced = trace != nullptr && !segment_traced;
      segment_done = 0;
      if (done) break;
      drain_and_check();
      fill(0);
      segment_begin = NowSeconds();
    }
    const std::uint64_t before = r.completed;
    complete(true);
    segment_done += r.completed - before;
    submit(segment_traced);
  }
  r.wall_s = timed;
  r.steady_packs = server.cache().TotalPacks() - packs_before;
  r.pool_regions = shflbw::GetPoolStats().regions_entered - regions_before;
  drain_and_check();
  return r;
}

// ---------------------------------------------------------------------
// Traced-run kernel probe

const PackedWeight& CachedWeight(Rig& rig, std::size_t i) {
  const LayerPlan& lp = rig.plan.layers[i];
  return rig.cache->GetOrPack(
      static_cast<int>(i), lp.format,
      []() -> const Matrix<float>& {
        throw Error("kernel probe missed the weight cache");
      },
      lp.density, lp.v);
}

/// Calls each layer's kernel entry point directly on its cached packed
/// weight at the launch's fused shape: SpmmShflBw, Conv2dDense, or
/// Im2Col followed by SpmmVectorWise.
void ProbeKernels(const WorkloadSpec& spec, Rig& rig, std::uint64_t seed,
                  Trace* trace) {
  const shflbw::GpuSpec& gpu = rig.engine->gpu();
  for (std::size_t i = 0; i < spec.model.layers.size(); ++i) {
    const LayerDesc& l = spec.model.layers[i];
    const PackedWeight& w = CachedWeight(rig, i);
    const std::string& name = l.Name();
    shflbw::Rng rng(DeriveSeed(seed, kProbeStream, i));
    if (l.kind == LayerKind::kGemm) {
      SHFLBW_CHECK_MSG(w.format == Format::kShflBw,
                       "no GEMM probe for format " << FormatName(w.format));
      const Matrix<float> act =
          rng.NormalMatrix(l.gemm.k, l.gemm.n * spec.width);
      for (int rep = 0; rep < kProbeReps; ++rep) {
        ScopedSpan probe(trace, "probe", -1, rep, name);
        ScopedSpan s(trace, "SpmmShflBw", probe.index(), rep, name);
        (void)shflbw::SpmmShflBw(w.shflbw, act, gpu);
      }
      continue;
    }
    shflbw::ConvShape fused = ToConvShape(l.conv);
    fused.batch *= spec.width;
    shflbw::Tensor4 input(fused.batch, fused.in_c, fused.in_h, fused.in_w);
    for (float& x : input.data) x = static_cast<float>(rng.Normal());
    for (int rep = 0; rep < kProbeReps; ++rep) {
      ScopedSpan probe(trace, "probe", -1, rep, name);
      if (w.format == Format::kDense) {
        ScopedSpan s(trace, "Conv2dDense", probe.index(), rep, name);
        (void)shflbw::Conv2dDense(input, w.dense, fused, gpu);
        continue;
      }
      SHFLBW_CHECK_MSG(w.format == Format::kVectorWise,
                       "no conv probe for format " << FormatName(w.format));
      Matrix<float> cols;
      {
        ScopedSpan s(trace, "Im2Col", probe.index(), rep, name);
        cols = shflbw::Im2Col(input, fused);
      }
      ScopedSpan s(trace, "SpmmVectorWise", probe.index(), rep, name);
      (void)shflbw::SpmmVectorWise(w.vw, cols, gpu);
    }
  }
}

/// Bytes a layer's fused launch touches, from tensor sizes: the packed
/// weight (fp16 values, int32 indices), the fp16 activation and the
/// fp16 output.
double LayerMegabytes(const LayerDesc& l, const PackedWeight& w, int width) {
  constexpr double kHalf = 2, kIndex = 4;
  double weight = 0;
  const shflbw::VectorWiseMatrix* vw = nullptr;
  switch (w.format) {
    case Format::kDense:
      weight = kHalf * static_cast<double>(w.dense.size());
      break;
    case Format::kVectorWise:
      vw = &w.vw;
      break;
    case Format::kShflBw:
      vw = &w.shflbw.vw;
      weight = kIndex * static_cast<double>(w.shflbw.storage_to_original.size());
      break;
    default:
      throw Error("no byte count for format " + FormatName(w.format));
  }
  if (vw != nullptr) {
    weight += kHalf * static_cast<double>(vw->values.size()) +
              kIndex * static_cast<double>(vw->col_idx.size() +
                                           vw->group_col_ptr.size());
  }
  const double n = static_cast<double>(l.GemmN()) * width;
  const double activation =
      l.kind == LayerKind::kGemm
          ? kHalf * l.GemmK() * n
          : kHalf * static_cast<double>(l.conv.batch) * width * l.conv.in_c *
                l.conv.in_h * l.conv.in_w;
  const double output = kHalf * l.GemmM() * n;
  return (weight + activation + output) / kMiB;
}

// ---------------------------------------------------------------------
// Reporting

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string FormatFixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

void PrintConfig(const WorkloadSpec& spec, const RunOptions& opts,
                 const ExecutionPlan& plan, double min_ratio) {
  std::printf(
      "config {\"workload\": \"%s\", \"git_sha\": \"%s\", \"nproc\": %u, "
      "\"kernel_threads\": %d, \"replicas\": %d, \"launch_width\": %d, "
      "\"in_flight\": %d, \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"model\": \"%s\", \"planner\": {\"gpu\": \"%s\", \"density\": %g, "
      "\"v\": %d, \"quality_floor\": %g}, \"min_retained_ratio\": %.6f, "
      "\"plan\": [",
      spec.name.c_str(), shflbw::GetBuildInfo().git_sha.c_str(),
      std::thread::hardware_concurrency(), shflbw::ParallelThreadCount(),
      spec.replicas, spec.width, spec.in_flight,
      static_cast<unsigned long long>(opts.seed), opts.seconds,
      opts.trace ? 1 : 0, spec.model_config.c_str(), plan.gpu.c_str(),
      spec.planner.density, spec.planner.v,
      spec.planner.quality.enabled ? spec.planner.quality.min_retained_ratio
                                   : -1.0,
      min_ratio);
  for (std::size_t i = 0; i < plan.layers.size(); ++i) {
    const LayerPlan& lp = plan.layers[i];
    std::printf("%s{\"layer\": \"%s\", \"format\": \"%s\", \"density\": %g, "
                "\"v\": %d}",
                i == 0 ? "" : ", ", lp.name.c_str(),
                FormatName(lp.format).c_str(), lp.density, lp.v);
  }
  std::printf("]}\n");
}

/// Min per-layer retained ratio of the plan; a speed-only plan is
/// scored layer by layer here, after timing.
double MinRetainedRatio(const WorkloadSpec& spec, const ExecutionPlan& plan) {
  if (plan.MinRetainedRatio() >= 0) return plan.MinRetainedRatio();
  QualityEvaluator evaluator;
  const std::uint64_t weight_seed = EngineOptionsOf(spec).weight_seed;
  double min_ratio = 1.0;
  for (std::size_t i = 0; i < plan.layers.size(); ++i) {
    const LayerPlan& lp = plan.layers[i];
    min_ratio = std::min(
        min_ratio, evaluator.LayerRetainedRatio(spec.model.layers[i],
                                                static_cast<int>(i),
                                                weight_seed, lp.format,
                                                lp.density, lp.v));
  }
  return min_ratio;
}

/// Durations (or self times) of the spans called `name`, restricted to
/// `layer` when it is non-empty and to roots when `roots_only`.
std::vector<double> SpanSeconds(const Trace& trace,
                                const std::vector<double>& self,
                                const std::string& name,
                                const std::string& layer, bool roots_only,
                                bool self_time = false) {
  std::vector<double> out;
  const std::vector<Span>& spans = trace.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name != name || (!layer.empty() && s.layer != layer) ||
        (roots_only && s.parent >= 0)) {
      continue;
    }
    out.push_back(self_time ? self[i] : s.Seconds());
  }
  return out;
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Per-span-name table of the traced run: calls, median, total and
/// self time.
void PrintSpanTable(const Trace& trace, const std::vector<double>& self) {
  struct Row {
    std::vector<double> seconds;
    double self = 0;
  };
  std::map<std::string, Row> rows;
  const std::vector<Span>& spans = trace.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    Row& row = rows[s.layer.empty() ? s.name : s.name + " [" + s.layer + "]"];
    row.seconds.push_back(s.Seconds());
    row.self += self[i];
  }
  std::printf("\n%-52s %7s %11s %11s %11s\n", "span [layer]", "calls",
              "median_ms", "total_ms", "self_ms");
  for (const auto& [key, row] : rows) {
    std::printf("%-52s %7zu %11.4f %11.3f %11.3f\n", key.c_str(),
                row.seconds.size(), Median(row.seconds) * 1e3,
                Sum(row.seconds) * 1e3, row.self * 1e3);
  }
}

std::vector<std::string> LayerNames(const std::vector<WorkloadSpec>& specs,
                                    bool conv_vw_only) {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : specs) {
    for (const ExpectedLayer& e : spec.expected) {
      if (conv_vw_only && e.format != Format::kVectorWise) continue;
      if (std::find(names.begin(), names.end(), e.name) == names.end()) {
        names.push_back(e.name);
      }
    }
  }
  return names;
}

std::vector<WorkloadSpec> AllWorkloads() {
  return {OfflineTransformer(), OfflineResnet(), ServeClosed()};
}

/// Everything one run measured, for the two reports below.
struct Measured {
  std::vector<double> setup_s;  // one per cold set-up
  std::size_t evaluations = 0;  // mask evaluations of the cold plan
  LoopResult loop;              // the timed window
  LoopResult standalone;        // traced serving: standalone engine launches
  double peak_rss_mb = 0;
  ServerStats stats;            // serving only
  double min_ratio = 0;
  std::uint64_t attempted = 0, failed = 0;
};

std::vector<Metric> EndToEndMetrics(const WorkloadSpec& spec,
                                    const Measured& m) {
  const LoopResult& loop = m.loop;
  const bool serving = spec.replicas > 0;
  const char* kind = serving ? "requests" : "launches";
  const std::size_t samples = loop.latency_s.size();
  // Other tenants of the host slow most launches by a share that changes
  // minute to minute; interference only adds time, so the fastest launch
  // repeats where the median does not (NOTES.md, "Noise and bounds").
  SHFLBW_CHECK_MSG(loop.launch_s.size() >= 2,
                   "only " << loop.launch_s.size() << " full-width launches");
  const Quartiles launch = QuartilesOf(loop.launch_s);
  const double fastest =
      *std::min_element(loop.launch_s.begin(), loop.launch_s.end());
  const double rps = spec.width / fastest;
  const double setup = Median(m.setup_s);
  const double failed = static_cast<double>(m.failed) / m.attempted;

  std::string setups;
  for (double s : m.setup_s) setups += " " + FormatFixed(s, 3);
  std::printf("\n%-18s %12s %-6s %s\n", "metric", "value", "unit", "note");
  std::printf("%-18s %12.3f %-6s %d requests / fastest %s launch %.3f ms "
              "(launch quartiles %.3f %.3f %.3f ms over %zu %s)\n",
              "throughput_rps", rps, "req/s", spec.width,
              serving ? "full" : "timed", fastest * 1e3, launch.q1 * 1e3,
              launch.q2 * 1e3, launch.q3 * 1e3, loop.launch_s.size(),
              serving ? "full-launch responses" : "launches");
  // Printed, not reported: these move with the other tenants' load.
  std::printf("%-18s %12.3f %-6s all timed requests; printed only\n",
              "overall_rps", loop.completed / loop.wall_s, "req/s");
  std::printf("%-18s %12.3f %-6s median of %zu %s; printed only\n",
              "latency_p50_ms", Median(loop.latency_s) * 1e3, "ms", samples,
              kind);
  const std::string tail_name =
      "latency_p" + std::to_string(spec.tail_pct) + "_ms";
  std::printf("%-18s %12.3f %-6s p%d of %zu %s, %zu beyond it; printed "
              "only\n",
              tail_name.c_str(),
              Percentile(loop.latency_s, spec.tail_pct) * 1e3, "ms",
              spec.tail_pct, samples, kind,
              SamplesBeyond(samples, spec.tail_pct));
  std::printf("%-18s %12.3f %-6s median of %zu cold set-up(s):%s\n", "setup_s",
              setup, "s", m.setup_s.size(), setups.c_str());
  std::printf("%-18s %12.3f %-6s peak resident set of this process\n",
              "peak_rss_mb", m.peak_rss_mb, "MB");
  std::printf("%-18s %12.4f %-6s min per-layer retained-score ratio\n",
              "retained_ratio", m.min_ratio, "ratio");
  std::printf("%-18s %12.4f %-6s failed_fraction %.4f (%llu of %llu)\n",
              "success_fraction", 1.0 - failed, "ratio", failed,
              static_cast<unsigned long long>(m.failed),
              static_cast<unsigned long long>(m.attempted));
  return {
      {"throughput_rps", rps, "req/s"},
      {"setup_s", setup, "s"},
      {"peak_rss_mb", m.peak_rss_mb, "MB"},
      {"retained_ratio", m.min_ratio, "ratio"},
      {"success_fraction", 1.0 - failed, "ratio"},
  };
}

std::vector<Metric> PerLayerMetrics(const WorkloadSpec& spec,
                                    const Measured& m, const Trace& trace,
                                    Rig& rig) {
  const bool serving = spec.replicas > 0;
  const std::vector<double> self = SelfSeconds(trace.spans());
  PrintSpanTable(trace, self);
  const auto seconds = [&](const std::string& name,
                           const std::string& layer = {}) {
    return SpanSeconds(trace, self, name, layer, false);
  };
  std::map<std::string, double> values;
  for (const MetricSpec& spec_m : PerLayerMetricSpecs()) values[spec_m.name] = 0;
  values["quality.plan_s"] = Sum(seconds("PlanModel"));
  values["quality.evaluations"] = static_cast<double>(m.evaluations);
  values["model.synth_s"] = Sum(seconds("SynthesizeWeights"));
  values["runtime.weight_cache.pack_s"] =
      Sum(seconds("PackedWeightCache::GetOrPack"));
  values["runtime.weight_cache.mb"] =
      static_cast<double>(rig.cache->ApproxBytes()) / kMiB;
  values["runtime.weight_cache.steady_packs"] =
      static_cast<double>(m.loop.steady_packs + m.standalone.steady_packs);
  values["runtime.engine.launch_ms"] =
      Median(SpanSeconds(trace, self, "Engine::RunBatched", "", true)) * 1e3;
  values["runtime.engine.self_ms"] =
      Median(SpanSeconds(trace, self, "Engine::RunBatched", "", true, true)) *
      1e3;
  const LoopResult& launches = serving ? m.standalone : m.loop;
  for (std::size_t i = 0; i < spec.model.layers.size(); ++i) {
    const LayerDesc& l = spec.model.layers[i];
    const std::string& name = l.Name();
    const std::string k = "kernels." + name;
    values[k + ".ms"] = Median(seconds("kernel", name)) * 1e3;
    if (launches.layer_seconds[i] > 0) {
      values[k + ".gflops"] =
          launches.layer_flops[i] / launches.layer_seconds[i] / 1e9;
    }
    values[k + ".mb"] = LayerMegabytes(l, CachedWeight(rig, i), spec.width);
    if (values.count(k + ".im2col_ms") != 0) {
      values[k + ".im2col_ms"] = Median(seconds("Im2Col", name)) * 1e3;
    }
    const std::string prune = "prune.shflbw_search_ms." + name;
    if (values.count(prune) != 0) {
      values[prune] = Sum(seconds("PruneToShflBw", name)) * 1e3;
    }
  }
  if (serving) {
    const double run_ms = Median(seconds("run")) * 1e3;
    values["runtime.server.submit_us"] =
        Median(seconds("BatchServer::Submit")) * 1e6;
    values["runtime.server.queue_ms"] = Median(seconds("queue")) * 1e3;
    values["runtime.server.run_ms"] = run_ms;
    values["runtime.server.self_ms"] =
        run_ms - values["runtime.engine.launch_ms"];
    double widths = 0;
    for (int w : m.loop.batch_widths) widths += w;
    values["runtime.server.batch_fill"] =
        widths / static_cast<double>(m.loop.batch_widths.size()) / spec.width;
    values["runtime.server.rejected"] = static_cast<double>(
        m.stats.rejected_queue_full + m.stats.rejected_deadline +
        m.stats.rejected_shutdown);
    values["runtime.server.shed"] = static_cast<double>(m.stats.shed);
    values["runtime.server.failed"] = static_cast<double>(m.stats.failed);
    values["runtime.server.retries"] = static_cast<double>(m.stats.retries);
  }
  values["common.thread_pool.regions"] =
      static_cast<double>(m.loop.pool_regions);
  const LoopResult& loop = m.loop;
  const double traced_rps =
      loop.traced_s > 0 ? loop.traced_n / loop.traced_s : 0;
  const double untraced_rps =
      loop.untraced_s > 0 ? loop.untraced_n / loop.untraced_s : 0;
  if (untraced_rps > 0) {
    values["bench.tracing_overhead"] = 1.0 - traced_rps / untraced_rps;
  }

  std::printf("\nkernel spans under Engine::RunBatched: %s%s\n",
              kKernelSpanSource,
              serving ? "; launches of a standalone engine at the server's "
                        "width"
                      : "");
  std::printf("entry-point probe: %d direct calls per layer at the fused "
              "shape (spans 'probe')\n",
              kProbeReps);
  std::printf("tracing: traced %.2f req/s vs untraced %.2f req/s, "
              "interleaved in one window\n",
              traced_rps, untraced_rps);
  std::printf("\n%-46s %14s %s\n", "per-layer metric", "value", "unit");
  std::vector<Metric> out;
  for (const MetricSpec& spec_m : PerLayerMetricSpecs()) {
    const double v = values[spec_m.name];
    out.push_back({spec_m.name, v, spec_m.unit});
    std::printf("%-46s %14.4f %s\n", spec_m.name.c_str(), v,
                spec_m.unit.c_str());
  }
  return out;
}

}  // namespace

WorkloadSpec GetWorkload(const std::string& name) {
  for (WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return spec;
  }
  throw Error("unknown workload '" + name + "'");
}

std::vector<MetricSpec> PerLayerMetricSpecs() {
  const std::vector<WorkloadSpec> specs = AllWorkloads();
  std::vector<MetricSpec> out;
  for (const std::string& layer : LayerNames(specs, false)) {
    out.push_back({"kernels." + layer + ".ms", "ms", "lower"});
    out.push_back({"kernels." + layer + ".gflops", "GFLOP/s", "higher"});
  }
  for (const std::string& layer : LayerNames(specs, false)) {
    out.push_back({"kernels." + layer + ".mb", "MB", "lower"});
  }
  for (const std::string& layer : LayerNames(specs, true)) {
    out.push_back({"kernels." + layer + ".im2col_ms", "ms", "lower"});
  }
  for (const ExpectedLayer& e : OfflineTransformer().expected) {
    out.push_back({"prune.shflbw_search_ms." + e.name, "ms", "lower"});
  }
  const std::vector<MetricSpec> fixed = {
      {"quality.plan_s", "s", "lower"},
      {"quality.evaluations", "count", "lower"},
      {"model.synth_s", "s", "lower"},
      {"runtime.weight_cache.pack_s", "s", "lower"},
      {"runtime.weight_cache.mb", "MB", "lower"},
      {"runtime.weight_cache.steady_packs", "count", "lower"},
      {"runtime.engine.launch_ms", "ms", "lower"},
      {"runtime.engine.self_ms", "ms", "lower"},
      {"runtime.server.submit_us", "us", "lower"},
      {"runtime.server.queue_ms", "ms", "lower"},
      {"runtime.server.run_ms", "ms", "lower"},
      {"runtime.server.self_ms", "ms", "lower"},
      {"runtime.server.batch_fill", "ratio", "higher"},
      {"runtime.server.rejected", "count", "lower"},
      {"runtime.server.shed", "count", "lower"},
      {"runtime.server.failed", "count", "lower"},
      {"runtime.server.retries", "count", "lower"},
      {"common.thread_pool.regions", "count", "lower"},
      {"bench.tracing_overhead", "ratio", "lower"},
  };
  out.insert(out.end(), fixed.begin(), fixed.end());
  return out;
}

RunReport RunWorkload(const WorkloadSpec& spec, const RunOptions& opts) {
  Trace trace;
  Trace* const tr = opts.trace ? &trace : nullptr;
  const bool serving = spec.replicas > 0;
  Measured m;

  // Cold set-up, setup_reps times (once when traced); the last serves.
  std::optional<Rig> rig;
  std::unique_ptr<BatchServer> server;
  if (serving && tr != nullptr) {
    // The standalone engine of the same plan: its set-up spans split
    // the server's, its launches are the engine baseline.
    rig.emplace(ColdSetUp(spec, opts.seed, tr, &m.evaluations));
  }
  for (int r = 0; r < (tr != nullptr ? 1 : spec.setup_reps); ++r) {
    if (serving) {
      server.reset();
      const double t0 = NowSeconds();
      server = ColdServer(spec, tr);
      m.setup_s.push_back(NowSeconds() - t0);
    } else {
      rig.reset();
      const double t0 = NowSeconds();
      rig.emplace(ColdSetUp(spec, opts.seed, tr, &m.evaluations));
      m.setup_s.push_back(NowSeconds() - t0);
    }
  }
  const ExecutionPlan& plan = serving ? server->Plan() : rig->plan;
  CheckPlan(spec, plan);

  // The output check's serial width-1 engine, adopting the served
  // plan. Serving keeps no rig of its own; the reference gets one.
  if (!rig) rig.emplace(ColdSetUp(spec, opts.seed, nullptr, nullptr, &plan));
  Engine reference(spec.model, EngineOptionsOf(spec), rig->cache);
  reference.AdoptPlan(plan);

  // Timed closed loop, which checks the outputs as it goes.
  m.loop = serving ? ServeLoop(spec, *server, opts.seed, opts.seconds, tr,
                               reference)
                   : OfflineLoop(spec, *rig, opts.seed, opts.seconds,
                                 MinSamples(spec), 0, tr, &reference);
  m.peak_rss_mb = PeakRssMb();
  if (serving) {
    server->Drain();
    m.stats = server->Stats();
  }
  if (serving && tr != nullptr) {
    m.standalone = OfflineLoop(spec, *rig, opts.seed, kStandaloneSeconds, 0,
                               1ULL << 40, tr);
  }
  if (tr != nullptr) ProbeKernels(spec, *rig, opts.seed, tr);

  // The standalone launches of the traced serving run, checked here.
  const std::uint64_t mismatches =
      m.loop.mismatches +
      CountMismatches(m.standalone.served, [&](std::uint64_t seed) {
        return reference.Run(seed).output;
      });
  const std::size_t checked = m.loop.served.size() + m.standalone.served.size();
  const std::uint64_t refused = m.loop.rejected + m.loop.shed + m.loop.errors;
  m.attempted = checked + refused;
  m.failed = mismatches + refused;
  m.min_ratio = MinRetainedRatio(spec, plan);

  PrintConfig(spec, opts, plan, m.min_ratio);
  std::printf("output check: %zu outputs compared with the serial width-1 "
              "reference, %llu differ; rejected %llu, shed %llu, errors %llu\n",
              checked, static_cast<unsigned long long>(mismatches),
              static_cast<unsigned long long>(m.loop.rejected),
              static_cast<unsigned long long>(m.loop.shed),
              static_cast<unsigned long long>(m.loop.errors));
  const std::size_t samples = m.loop.latency_s.size();
  SHFLBW_CHECK_MSG(TailPercentile(samples) >= spec.tail_pct,
                   "only " << samples << " latency samples: p"
                           << spec.tail_pct << " needs ten beyond it");

  RunReport report;
  report.attempted = m.attempted;
  report.failed = m.failed;
  report.correct = m.failed == 0;
  if (tr == nullptr) {
    report.metrics = EndToEndMetrics(spec, m);
    return report;
  }
  report.metrics = PerLayerMetrics(spec, m, trace, *rig);
  const std::string path = opts.out_dir + "/spans-" + spec.name + "-seed" +
                           std::to_string(opts.seed) + ".json";
  if (trace.WriteJson(path, kKernelSpanSource)) {
    std::printf("spans written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    report.correct = false;
  }
  return report;
}

}  // namespace perfbench
