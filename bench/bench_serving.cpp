// Batch-serving benchmark: the scale-out analogue of bench_e2e.
//
// Serves M whole-model inference requests (distinct activation seeds)
// through a BatchServer and sweeps the three serving knobs: replica
// count (how many Engine instances share the partitioned worker pool),
// batch size (how many requests are kept in flight at once), and fused
// width (max_batch — how many queued requests a replica coalesces into
// one RunBatched launch). Reports throughput and p50/p99 request
// latency per configuration, the 1-replica vs N-replica scaling curve,
// the fused vs unfused comparison, and verifies that every served
// output is bit-identical to a serial single-engine run of the same
// seed — neither concurrency nor fusion may change a single bit of any
// answer.
//
// An overload section then drives the same server shape open-loop
// (Poisson arrivals with a burst phase at a multiple of measured
// capacity, every request deadline-bearing) twice: once with a
// single-level quality plan (no degradation possible) and once with a
// degradation ladder, on the identical seeded arrival schedule. It
// reports shed/late/miss fractions and the degradation engagement
// curve, and gates — in --smoke too — that the controller actually
// engaged the ladder, that the ladder run's miss fraction is strictly
// lower than the no-degradation baseline, that every served response's
// retained_ratio honours its level's floor, and that spot-checked
// outputs are bit-identical to a single-engine run at that level.
//
// An observability section then (a) measures serving throughput with
// telemetry fully off vs metrics + tracing on (interleaved paired
// rounds on one pre-warmed server, flipping the runtime telemetry
// toggles) and gates — in --smoke too — that enabled stays within 2%
// of disabled by at least one of two noise-robust estimators
// (best-round ratio, median paired ratio), and (b) drives one traced
// server through a retried, a shed, and a degraded request, writing
// BENCH_serving_trace.json (Chrome trace-event format, loadable in
// Perfetto / chrome://tracing) and BENCH_serving_metrics.prom
// (Prometheus exposition), gating that every span kind appears and
// that at least one run span is degraded and one retried.
//
// Flags: --smoke (tiny config, few requests — CI harness check)
//        --out=FILE (default BENCH_serving.json)
//        --requests=N (default 32 per configuration)
//        --gpu=V100|T4|A100 (planner cost model, default V100)
//        --density=A (kept density, default 0.25)
//        --v=N (vector/block granularity, default 8)
//
// Exit status: non-zero if any output mismatches the serial reference;
// if, outside --smoke on a >=2-core box, the best multi-replica
// throughput fails to strictly beat the best single-replica throughput;
// if, outside --smoke on a >=2-core box, fused serving (max_batch
// >= 8) at in-flight batch >= 8 fails to at least match the best
// unfused (max_batch = 1) throughput; or if any overload gate above
// fails (overload gates run in --smoke as well).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "quality/quality_planner.h"
#include "runtime/server.h"

namespace shflbw {
namespace runtime {
namespace {

struct ConfigResult {
  int replicas = 1;
  int batch = 1;
  int max_batch = 1;  // fused width cap (1 = unfused serving)
  int requests = 0;
  double wall_seconds = 0;
  double throughput_rps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  int max_fused_width = 0;  // widest launch actually observed
  bool bit_identical = true;
};

double Percentile(std::vector<double> sorted_ms, double q) {
  if (sorted_ms.empty()) return 0;
  const std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(idx, sorted_ms.size() - 1)];
}

std::uint64_t SeedOf(int i) {
  return 0xbeadULL + static_cast<std::uint64_t>(i);
}

/// Serves `requests` seeds through a fresh warmed server, keeping at
/// most `batch` in flight, and checks outputs against `ref`.
ConfigResult ServeConfig(const ModelDesc& model, const ServerOptions& opts,
                         int batch, int requests,
                         const std::map<std::uint64_t, Matrix<float>>& ref) {
  ConfigResult r;
  r.replicas = opts.replicas;
  r.batch = batch;
  r.max_batch = opts.max_batch;
  r.requests = requests;

  BatchServer server(model, opts);
  server.Warmup();  // pack phase excluded from serving measurements

  std::vector<double> latencies_ms;
  latencies_ms.reserve(static_cast<std::size_t>(requests));
  const double t0 = NowSeconds();
  for (int submitted = 0; submitted < requests;) {
    const int wave = std::min(batch, requests - submitted);
    std::vector<std::future<Response>> futures;
    futures.reserve(static_cast<std::size_t>(wave));
    for (int i = 0; i < wave; ++i) {
      Request req;
      req.activation_seed = SeedOf(submitted + i);
      futures.push_back(server.Submit(req));
    }
    for (int i = 0; i < wave; ++i) {
      Response resp = futures[static_cast<std::size_t>(i)].get();
      latencies_ms.push_back(
          (resp.queue_seconds + resp.retry_seconds + resp.run_seconds) * 1e3);
      r.max_fused_width = std::max(r.max_fused_width, resp.batch_width);
      if (resp.output != ref.at(SeedOf(submitted + i))) {
        r.bit_identical = false;
      }
    }
    submitted += wave;
  }
  r.wall_seconds = NowSeconds() - t0;
  r.throughput_rps =
      r.wall_seconds > 0 ? requests / r.wall_seconds : 0.0;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  r.p50_ms = Percentile(latencies_ms, 0.50);
  r.p99_ms = Percentile(latencies_ms, 0.99);
  return r;
}

struct FusionSummary {
  double unfused_rps = 0;  // best max_batch=1 config at batch >= kFusedBatch
  double fused_rps = 0;    // best max_batch>1 config at batch >= kFusedBatch
  int fused_width = 0;     // max_batch of the best fused config
};

/// Observability-overhead measurement: interleaved closed-loop rounds
/// on ONE pre-warmed server, flipping the runtime telemetry toggles
/// (Telemetry::set_metrics / set_tracing) between telemetry fully off
/// and metrics + tracing on. Using a single server matters: two
/// separately constructed servers differ by a few percent run-to-run
/// from allocation/layout luck alone, which is the same order as the
/// 2% overhead budget being gated. The same engines, weights, and
/// threads serve both configurations, so the only difference each
/// round is the telemetry hot path itself.
struct ObsOverhead {
  double disabled_rps = 0;   // best round, telemetry off
  double enabled_rps = 0;    // best round, telemetry on
  double best_ratio = 0;     // enabled_rps / disabled_rps
  double median_ratio = 0;   // median over rounds of paired (enabled/disabled)
  double ratio = 0;          // max(best_ratio, median_ratio) — the gated value
};

ObsOverhead MeasureObservabilityOverhead(const ModelDesc& model,
                                         const ServerOptions& base,
                                         int requests, int rounds) {
  ServerOptions opts = base;
  opts.replicas = 2;
  opts.max_batch = 4;
  opts.queue_capacity = 64;
  opts.telemetry.metrics = true;
  opts.telemetry.tracing = true;
  opts.telemetry.trace_capacity = 1 << 16;  // ample: no drops mid-measurement

  BatchServer server(model, opts);
  server.Warmup();

  const auto round = [&](bool telemetry_on) {
    server.telemetry().set_metrics(telemetry_on);
    server.telemetry().set_tracing(telemetry_on);
    std::vector<std::future<Response>> futures;
    futures.reserve(static_cast<std::size_t>(requests));
    const double t0 = NowSeconds();
    for (int i = 0; i < requests; ++i) {
      Request req;
      req.activation_seed = SeedOf(i);
      futures.push_back(server.Submit(req));
    }
    for (auto& f : futures) (void)f.get();
    return requests / std::max(1e-9, NowSeconds() - t0);
  };

  // Two estimators of the same overhead, with opposite failure modes
  // on a host with ambient competing load:
  //
  //  - best_ratio compares each configuration's best round. Since
  //    interference is one-sided (a competitor only ever slows a
  //    closed loop down), the best of many short rounds estimates the
  //    uncontended rate; rounds are short and numerous precisely so
  //    each configuration lands at least one clean round. Fooled only
  //    if one side never gets a clean round.
  //  - median_ratio is the median of back-to-back paired ratios
  //    (order alternating so a periodic competitor cannot phase-lock
  //    with the pair cadence). Robust to any single bad round, but
  //    biased if a competitor stays resident for most of the
  //    measurement.
  //
  // A real telemetry regression moves both. The gate trips only when
  // both agree (ratio = max of the two), which keeps it strict in
  // expectation and quiet under noise.
  (void)round(false);  // settle after warmup before the first timed round
  ObsOverhead r;
  std::vector<double> ratios;
  ratios.reserve(static_cast<std::size_t>(rounds));
  for (int i = 0; i < rounds; ++i) {
    const bool off_first = (i % 2) == 0;
    const double first = round(/*telemetry_on=*/!off_first);
    const double second = round(/*telemetry_on=*/off_first);
    const double d = off_first ? first : second;
    const double e = off_first ? second : first;
    r.disabled_rps = std::max(r.disabled_rps, d);
    r.enabled_rps = std::max(r.enabled_rps, e);
    ratios.push_back(d > 0 ? e / d : 0.0);
  }
  std::sort(ratios.begin(), ratios.end());
  r.best_ratio = r.disabled_rps > 0 ? r.enabled_rps / r.disabled_rps : 0.0;
  r.median_ratio = ratios[ratios.size() / 2];
  r.ratio = std::max(r.best_ratio, r.median_ratio);
  return r;
}

/// Span census of the annotated trace scenario, plus the artifact
/// write verdicts the exit-code gate checks.
struct TraceScenario {
  std::size_t spans = 0;
  std::size_t queue = 0;
  std::size_t coalesce = 0;
  std::size_t kernel = 0;
  std::size_t retry = 0;
  std::size_t shed = 0;
  std::size_t run = 0;
  bool degraded_run = false;  // >= 1 run span served at level > 0
  bool retried_run = false;   // >= 1 run span with retries > 0
  bool wrote_trace = false;
  bool wrote_metrics = false;
  bool wrote_status = false;  // BENCH_serving_statusz.{txt,json}
  bool wrote_flight = false;  // BENCH_serving_flight.json
};

/// Drives one server through all three interesting request fates with
/// tracing on — retried (fault budget on the first launches), shed
/// (expired deadline held past the coalesce window), degraded (burst
/// against delayed launches walks the ladder down) — then dumps the
/// Chrome trace and the Prometheus exposition as committed artifacts.
TraceScenario RunTraceScenario(const ModelDesc& model,
                               const ServerOptions& base,
                               const std::string& trace_path,
                               const std::string& metrics_path) {
  FaultInjectorOptions fi;
  fi.launch_failure_rate = 1.0;
  fi.max_failures = 2;  // the first batch retries exactly twice, then quiet
  fi.launch_delay_rate = 1.0;
  fi.launch_delay_seconds = 0.005;  // every launch drags: the burst queues up
  ServerOptions opts = base;
  opts.replicas = 1;
  opts.max_batch = 4;
  opts.queue_capacity = 8;
  opts.coalesce_window_seconds = 0.02;
  opts.engine.fault_injector = std::make_shared<FaultInjector>(fi);
  opts.retry.max_retries = 4;
  opts.retry.backoff_seconds = 1e-4;
  opts.degradation.ladder_floors = {0.95, 0.70};
  opts.degradation.degrade_queue_fraction = 0.5;
  opts.degradation.hysteresis_seals = 1;
  // The doomed request must reach the queue to be shed at seal — with
  // the service estimate warm, admission would bounce it up front.
  opts.admission.reject_infeasible_deadlines = false;
  opts.telemetry.tracing = true;
  opts.telemetry.trace_capacity = 1 << 16;
  // No Warmup: the launch-fault budget must land on serving launches so
  // the trace shows a retried request.
  BatchServer server(model, opts);

  // Fate 1 — retried: the first fused batch eats the whole fault budget.
  {
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 4; ++i) {
      Request req;
      req.activation_seed = SeedOf(i);
      futures.push_back(server.Submit(req));
    }
    for (auto& f : futures) (void)f.get();
  }
  // Fate 2 — shed: an already-expired deadline held past the window.
  {
    Request doomed;
    doomed.deadline_seconds = 1e-6;
    std::future<Response> doomed_fut = server.Submit(doomed);
    std::future<Response> live_fut = server.Submit(Request{});
    (void)doomed_fut.get();
    (void)live_fut.get();
  }
  // Fate 3 — degraded: bursts deeper than degrade_queue_fraction of the
  // queue while every launch drags 5 ms. Bounded repeats because the
  // submit thread races the (slow) replica for queue occupancy.
  for (int attempt = 0; attempt < 5 && server.Stats().downshifts == 0;
       ++attempt) {
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 12; ++i) {
      Request req;
      req.activation_seed = SeedOf(100 + i);
      futures.push_back(server.Submit(req));
    }
    for (auto& f : futures) (void)f.get();
  }
  server.Drain();

  TraceScenario r;
  const std::vector<obs::TraceEvent> events =
      server.telemetry().trace().Snapshot();
  r.spans = events.size();
  for (const obs::TraceEvent& ev : events) {
    switch (ev.kind) {
      case obs::SpanKind::kQueue: ++r.queue; break;
      case obs::SpanKind::kCoalesce: ++r.coalesce; break;
      case obs::SpanKind::kKernel: ++r.kernel; break;
      case obs::SpanKind::kRetry: ++r.retry; break;
      case obs::SpanKind::kShed: ++r.shed; break;
      case obs::SpanKind::kRun:
        ++r.run;
        r.degraded_run = r.degraded_run || ev.level > 0;
        r.retried_run = r.retried_run || ev.retries > 0;
        break;
      default: break;
    }
  }
  r.wrote_trace = server.DumpTrace(trace_path);
  std::FILE* mf = std::fopen(metrics_path.c_str(), "w");
  if (mf != nullptr) {
    const std::string text = server.MetricsText();
    r.wrote_metrics = std::fwrite(text.data(), 1, text.size(), mf) ==
                      text.size();
    std::fclose(mf);
  }
  // The operator-facing snapshot of the same eventful run: statusz
  // (both renderings) and the flight-recorder ring, committed as CI
  // artifacts next to the trace so reviewers can see what the dumps
  // look like after retries, sheds and a ladder walk.
  r.wrote_status = server.DumpStatus("BENCH_serving_statusz");
  r.wrote_flight = server.DumpFlightRecorder("BENCH_serving_flight.json");
  return r;
}

/// One open-loop overload run (fixed seeded arrival schedule).
struct OverloadResult {
  int arrivals = 0;
  int completed = 0;       // served with an output
  int shed = 0;            // admitted, deadline-expired at seal
  int rejected = 0;        // TrySubmit refused (queue full)
  int late = 0;            // served, but after the deadline
  double miss_fraction = 0;  // (shed + rejected + late) / arrivals
  int max_level = 0;       // deepest ladder level any response ran at
  std::uint64_t downshifts = 0;
  std::uint64_t upshifts = 0;
  std::vector<std::uint64_t> per_level;
  /// plan_level per arrival in submission order; -1 = rejected at
  /// admission, -2 = shed. The degradation engagement curve.
  std::vector<int> curve;
  bool quality_honored = true;  // every retained_ratio >= its level floor
  bool bit_identical = true;    // spot checks vs per-level serial engines
};

/// Mean per-request service seconds of a packed single engine — the
/// yardstick the overload arrival rates and deadlines are scaled by, so
/// the scenario stresses the server equally on fast and slow hosts.
double CalibrateServiceSeconds(const ModelDesc& model,
                               const EngineOptions& engine_opts) {
  Engine engine(model, engine_opts);
  (void)engine.Run();  // pack phase
  const int kRuns = 5;
  const double t0 = NowSeconds();
  for (int i = 0; i < kRuns; ++i) (void)engine.Run(SeedOf(i));
  return std::max(1e-6, (NowSeconds() - t0) / kRuns);
}

/// Measured closed-loop throughput (rps) of the overload server config
/// at its baseline ladder level — the capacity yardstick the burst
/// rates are scaled off. The naive replicas/svc estimate badly
/// overstates real capacity when service times are sub-millisecond
/// (per-request scheduling overhead dominates) or when the host has
/// fewer cores than replicas, and a burst scaled off a 2-5x
/// overestimate drowns baseline and ladder alike, erasing the margin
/// the degradation gate measures.
double CalibrateCapacityRps(const ModelDesc& model, const ServerOptions& base) {
  ServerOptions opts = base;
  opts.degradation.ladder_floors = {0.95};
  BatchServer server(model, opts);
  server.Warmup();
  constexpr int kRequests = 64;
  constexpr int kRounds = 2;
  // A closed-loop round can only under-measure capacity (interference
  // slows it, nothing speeds it up), so the max over rounds is the
  // robust estimate.
  double best = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::future<Response>> futures;
    futures.reserve(kRequests);
    const double t0 = NowSeconds();
    for (int i = 0; i < kRequests; ++i) {
      Request req;
      req.activation_seed = SeedOf(i);
      futures.push_back(server.Submit(req));  // blocking: closed loop
    }
    for (auto& f : futures) (void)f.get();
    const double wall = std::max(1e-9, NowSeconds() - t0);
    best = std::max(best, kRequests / wall);
  }
  return best;
}

/// Seeded Poisson arrival offsets: `pre` arrivals at pre_rate, `burst`
/// at burst_rate, `post` back at pre_rate (seconds from t0).
std::vector<double> ArrivalSchedule(int pre, int burst, int post,
                                    double pre_rate, double burst_rate) {
  Rng rng(0xa331ULL);
  std::vector<double> offsets;
  offsets.reserve(static_cast<std::size_t>(pre + burst + post));
  double t = 0;
  const auto emit = [&](int n, double rate) {
    for (int i = 0; i < n; ++i) {
      t += -std::log(1.0 - rng.Uniform()) / rate;
      offsets.push_back(t);
    }
  };
  emit(pre, pre_rate);
  emit(burst, burst_rate);
  emit(post, pre_rate);
  return offsets;
}

/// Drives one open-loop overload run: submits the arrival schedule with
/// TrySubmit (an open-loop client does not block — a full queue is a
/// rejection), every request carrying `deadline`, then audits the
/// responses against the ladder's floors and per-level reference
/// engines. `floors` with one entry = the no-degradation baseline.
OverloadResult ServeOverload(const ModelDesc& model, const ServerOptions& base,
                             const std::vector<double>& floors,
                             const std::vector<double>& arrivals,
                             double deadline_seconds) {
  ServerOptions opts = base;
  opts.degradation.ladder_floors = floors;
  opts.degradation.degrade_queue_fraction = 0.5;
  opts.degradation.upgrade_queue_fraction = 0.125;
  opts.degradation.hysteresis_seals = 2;
  // Shedding and degradation do the overload work here; up-front
  // infeasibility rejection would empty the burst before the ladder
  // ever sees pressure.
  opts.admission.reject_infeasible_deadlines = false;

  OverloadResult r;
  r.arrivals = static_cast<int>(arrivals.size());
  r.curve.assign(arrivals.size(), -1);

  std::vector<std::future<Response>> futures(arrivals.size());
  std::vector<char> accepted(arrivals.size(), 0);
  {
    BatchServer server(model, opts);
    server.Warmup();

    const double t0 = NowSeconds();
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const double target = t0 + arrivals[i];
      const double now = NowSeconds();
      if (target > now) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(target - now));
      }
      Request req;
      req.activation_seed = SeedOf(static_cast<int>(i));
      req.deadline_seconds = deadline_seconds;
      accepted[i] =
          server.TrySubmit(req, &futures[i]) == SubmitStatus::kAccepted ? 1
                                                                        : 0;
    }
    server.Drain();

    const ServerStats stats = server.Stats();
    r.downshifts = stats.downshifts;
    r.upshifts = stats.upshifts;
    r.per_level = stats.per_level;

    // Per-level serial reference engines for bit-identity spot checks
    // (a handful per level — full coverage is the sweep's job above).
    std::vector<std::unique_ptr<Engine>> refs;
    for (const PlannerOptions& po :
         quality::LadderPlannerOptions(base.engine.planner, floors)) {
      EngineOptions eo = base.engine;
      eo.planner = po;
      refs.push_back(std::make_unique<Engine>(model, eo));
    }
    std::vector<int> checked_per_level(floors.size(), 0);
    constexpr int kChecksPerLevel = 2;

    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      if (!accepted[i]) {
        ++r.rejected;
        continue;
      }
      Response resp = futures[i].get();
      if (resp.status == ResponseStatus::kDeadlineExceeded) {
        ++r.shed;
        r.curve[i] = -2;
        continue;
      }
      ++r.completed;
      r.curve[i] = resp.plan_level;
      r.max_level = std::max(r.max_level, resp.plan_level);
      if (resp.queue_seconds + resp.retry_seconds + resp.run_seconds >
          deadline_seconds) {
        ++r.late;
      }
      if (resp.retained_ratio + 1e-12 <
          floors[static_cast<std::size_t>(resp.plan_level)]) {
        r.quality_honored = false;
      }
      int& checks = checked_per_level[static_cast<std::size_t>(resp.plan_level)];
      if (checks < kChecksPerLevel) {
        ++checks;
        const auto& ref = refs[static_cast<std::size_t>(resp.plan_level)];
        if (resp.output != ref->Run(SeedOf(static_cast<int>(i))).output) {
          r.bit_identical = false;
        }
      }
    }
  }
  r.miss_fraction =
      r.arrivals > 0
          ? static_cast<double>(r.shed + r.rejected + r.late) / r.arrivals
          : 0.0;
  return r;
}

/// Folds trial `t` into the aggregate `agg`: counters add, flags AND,
/// the engagement curve keeps the latest trial (one representative
/// trace is enough for the JSON). Miss fraction is recomputed over the
/// summed counts, which is what the exit-code gate compares — single
/// short bursts at sub-millisecond service times are too noisy to gate
/// on individually.
void Accumulate(OverloadResult& agg, const OverloadResult& t) {
  agg.arrivals += t.arrivals;
  agg.completed += t.completed;
  agg.shed += t.shed;
  agg.rejected += t.rejected;
  agg.late += t.late;
  agg.downshifts += t.downshifts;
  agg.upshifts += t.upshifts;
  agg.max_level = std::max(agg.max_level, t.max_level);
  if (agg.per_level.size() < t.per_level.size()) {
    agg.per_level.resize(t.per_level.size(), 0);
  }
  for (std::size_t i = 0; i < t.per_level.size(); ++i) {
    agg.per_level[i] += t.per_level[i];
  }
  agg.curve = t.curve;
  agg.quality_honored = agg.quality_honored && t.quality_honored;
  agg.bit_identical = agg.bit_identical && t.bit_identical;
  agg.miss_fraction =
      agg.arrivals > 0
          ? static_cast<double>(agg.shed + agg.rejected + agg.late) /
                agg.arrivals
          : 0.0;
}

void PrintOverload(const char* name, const OverloadResult& r) {
  std::printf("  %-9s %4d arrivals: %4d ok, %3d shed, %3d rejected, %3d "
              "late -> miss %.3f; max level %d (%llu down / %llu up)%s%s\n",
              name, r.arrivals, r.completed, r.shed, r.rejected, r.late,
              r.miss_fraction, r.max_level,
              static_cast<unsigned long long>(r.downshifts),
              static_cast<unsigned long long>(r.upshifts),
              r.quality_honored ? "" : "  FLOOR VIOLATED",
              r.bit_identical ? "" : "  OUTPUT MISMATCH");
}

void WriteOverloadJson(std::FILE* f, const char* name,
                       const OverloadResult& r, bool trailing_comma) {
  std::fprintf(f,
               "    \"%s\": {\"arrivals\": %d, \"completed\": %d, "
               "\"shed\": %d, \"rejected\": %d, \"late\": %d, "
               "\"miss_fraction\": %.4f, \"max_level\": %d, "
               "\"downshifts\": %llu, \"upshifts\": %llu, "
               "\"quality_honored\": %s, \"bit_identical\": %s,\n",
               name, r.arrivals, r.completed, r.shed, r.rejected, r.late,
               r.miss_fraction, r.max_level,
               static_cast<unsigned long long>(r.downshifts),
               static_cast<unsigned long long>(r.upshifts),
               r.quality_honored ? "true" : "false",
               r.bit_identical ? "true" : "false");
  std::fprintf(f, "      \"per_level\": [");
  for (std::size_t i = 0; i < r.per_level.size(); ++i) {
    std::fprintf(f, "%s%llu", i ? ", " : "",
                 static_cast<unsigned long long>(r.per_level[i]));
  }
  // The engagement curve: plan level per arrival in submission order
  // (-1 rejected at admission, -2 shed at seal) — how far and how long
  // the controller walked down the ladder through the burst.
  // Run-length encoded as [value, count] pairs: the curve is long runs
  // of a single level by construction, so RLE keeps the committed
  // baselines compact without losing the level-walk structure.
  std::fprintf(f, "],\n      \"engagement_curve_rle\": [");
  bool first_run = true;
  for (std::size_t i = 0; i < r.curve.size();) {
    std::size_t j = i;
    while (j < r.curve.size() && r.curve[j] == r.curve[i]) ++j;
    std::fprintf(f, "%s[%d, %zu]", first_run ? "" : ", ", r.curve[i], j - i);
    first_run = false;
    i = j;
  }
  std::fprintf(f, "]}%s\n", trailing_comma ? "," : "");
}

bool WriteJson(const std::string& path, const ModelDesc& model,
               const std::string& config, const ServerOptions& base,
               int requests, const std::vector<ConfigResult>& results,
               double single_rps, double multi_rps, int multi_replicas,
               const FusionSummary& fusion, double svc_seconds,
               double deadline_seconds, const OverloadResult& baseline,
               const OverloadResult& degraded, const ObsOverhead& obs,
               const TraceScenario& trace, const std::string& trace_path,
               const std::string& metrics_path, bool all_identical) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"serving\",\n");
  shflbw::bench::WriteProvenance(f);
  std::fprintf(f, "  \"model\": \"%s\",\n  \"config\": \"%s\",\n",
               model.name.c_str(), config.c_str());
  std::fprintf(f, "  \"gpu\": \"%s\",\n",
               GetGpuSpec(base.engine.planner.arch).name.c_str());
  std::fprintf(f, "  \"density\": %.3f,\n  \"v\": %d,\n",
               base.engine.planner.density, base.engine.planner.v);
  std::fprintf(f, "  \"threads\": %d,\n", ParallelThreadCount());
  std::fprintf(f, "  \"requests_per_config\": %d,\n", requests);
  std::fprintf(f, "  \"note\": \"throughput is closed-loop with `batch` "
               "requests in flight; max_batch is the fused width cap "
               "(1 = one launch per request); latency is "
               "submit-to-completion; every output is compared against a "
               "serial single-engine run of the same seed\",\n");
  std::fprintf(f, "  \"configs\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    std::fprintf(f,
                 "    {\"replicas\": %d, \"batch\": %d, \"max_batch\": %d, "
                 "\"requests\": %d, "
                 "\"wall_s\": %.4f, \"throughput_rps\": %.3f, "
                 "\"p50_ms\": %.4f, \"p99_ms\": %.4f, "
                 "\"max_fused_width\": %d, "
                 "\"bit_identical\": %s}%s\n",
                 r.replicas, r.batch, r.max_batch, r.requests,
                 r.wall_seconds, r.throughput_rps, r.p50_ms, r.p99_ms,
                 r.max_fused_width,
                 r.bit_identical ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // Fused vs unfused at serving load (in-flight batch >= 8): the
  // cross-request batching claim. Enforced by exit code on >=2-core
  // hosts outside --smoke; reported everywhere.
  std::fprintf(f, "  \"fusion\": {\"unfused_rps\": %.3f, "
               "\"fused_rps\": %.3f, \"fused_max_batch\": %d, "
               "\"fused_vs_unfused_speedup\": %.3f},\n",
               fusion.unfused_rps, fusion.fused_rps, fusion.fused_width,
               fusion.unfused_rps > 0 ? fusion.fused_rps / fusion.unfused_rps
                                      : 0.0);
  // The >=2-partition scaling claim is only measurable with >=2 cores:
  // on a 1-core box every configuration time-slices and the curve is
  // flat-to-negative by construction. CI runs this binary on a
  // multi-core runner, where the exit code enforces multi > single.
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  std::fprintf(f, "  \"scaling\": {\"single_replica_rps\": %.3f, "
               "\"best_multi_replica_rps\": %.3f, "
               "\"best_multi_replicas\": %d, "
               "\"multi_vs_single_speedup\": %.3f, "
               "\"cores\": %d, \"partitions_available\": %s},\n",
               single_rps, multi_rps, multi_replicas,
               single_rps > 0 ? multi_rps / single_rps : 0.0, cores,
               cores >= 2 ? "true" : "false");
  // Open-loop overload: identical seeded arrival schedule served with
  // and without a degradation ladder; the miss-fraction delta is the
  // graceful-degradation claim, gated by exit code (--smoke included).
  std::fprintf(f, "  \"overload\": {\n");
  std::fprintf(f,
               "    \"service_ms\": %.4f, \"deadline_ms\": %.4f,\n",
               svc_seconds * 1e3, deadline_seconds * 1e3);
  WriteOverloadJson(f, "baseline", baseline, /*trailing_comma=*/true);
  WriteOverloadJson(f, "ladder", degraded, /*trailing_comma=*/false);
  std::fprintf(f, "  },\n");
  // Observability: the overhead gate's two throughputs (the gate trips
  // when BOTH the best-round and the median-paired enabled/disabled
  // ratios fall below 0.98 — exit-code enforced, --smoke included) and
  // the span census of the annotated trace scenario whose Chrome trace
  // + Prometheus dump are written next to this file.
  std::fprintf(f, "  \"observability\": {\n");
  std::fprintf(f,
               "    \"disabled_rps\": %.3f, \"enabled_rps\": %.3f, "
               "\"best_round_ratio\": %.4f, \"median_paired_ratio\": %.4f,\n",
               obs.disabled_rps, obs.enabled_rps, obs.best_ratio,
               obs.median_ratio);
  std::fprintf(f,
               "    \"trace_file\": \"%s\", \"metrics_file\": \"%s\",\n",
               trace_path.c_str(), metrics_path.c_str());
  std::fprintf(f,
               "    \"trace_spans\": {\"total\": %zu, \"queue\": %zu, "
               "\"coalesce\": %zu, \"kernel\": %zu, \"retry\": %zu, "
               "\"shed\": %zu, \"run\": %zu},\n",
               trace.spans, trace.queue, trace.coalesce, trace.kernel,
               trace.retry, trace.shed, trace.run);
  std::fprintf(f,
               "    \"degraded_run_span\": %s, \"retried_run_span\": %s\n",
               trace.degraded_run ? "true" : "false",
               trace.retried_run ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"bit_identical\": %s\n}\n",
               all_identical ? "true" : "false");
  std::fclose(f);
  return true;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  int requests = 32;
  std::string out = "BENCH_serving.json";
  ServerOptions base;
  base.engine.planner.density = 0.25;
  base.engine.planner.v = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
    else if (std::strncmp(argv[i], "--requests=", 11) == 0)
      requests = std::max(1, std::atoi(argv[i] + 11));
    else if (std::strncmp(argv[i], "--gpu=", 6) == 0)
      base.engine.planner.arch = ParseGpuArch(argv[i] + 6);
    else if (std::strncmp(argv[i], "--density=", 10) == 0)
      base.engine.planner.density = std::atof(argv[i] + 10);
    else if (std::strncmp(argv[i], "--v=", 4) == 0)
      base.engine.planner.v = std::max(1, std::atoi(argv[i] + 4));
    else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (smoke) requests = std::min(requests, 8);

  // Small GEMM layers on purpose: per-kernel parallelism is limited at
  // serving shapes, so request-level parallelism (replicas on disjoint
  // pool partitions) is where the remaining cores come from — the
  // regime the BatchServer exists for.
  TransformerConfig cfg{64, 256, 32, 1, 1};
  std::string config = "d_model=64,d_ff=256,tokens=32,enc=1,dec=1";
  if (smoke) {
    cfg = TransformerConfig{32, 64, 16, 1, 1};
    config = "d_model=32,d_ff=64,tokens=16,enc=1,dec=1";
  }
  const ModelDesc model = ModelDesc::Transformer(cfg);

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::printf("bench_serving: %s (%s), %d request(s)/config, %d core(s)\n",
              model.name.c_str(), config.c_str(), requests, hw);

  // Serial reference outputs, one per seed: the determinism yardstick
  // every served response is compared against bit-for-bit.
  std::map<std::uint64_t, Matrix<float>> ref;
  {
    SetParallelThreads(1);
    Engine engine(model, base.engine);
    for (int i = 0; i < requests; ++i) {
      ref.emplace(SeedOf(i), engine.Run(SeedOf(i)).output);
    }
    SetParallelThreads(0);  // back to env/auto for the serving sweeps
  }

  // The in-flight batch size at which the fused-vs-unfused comparison
  // (and its CI gate) is made.
  constexpr int kFusedBatch = 8;
  std::vector<int> replica_counts = {1, 2, 4};
  std::vector<int> batches = smoke ? std::vector<int>{4}
                                   : std::vector<int>{1, 8, 32};
  // Fused width sweep: 1 = classic per-request launches (the PR 3
  // baseline), 8 = coalesce up to 8 queued requests into one wide
  // launch per layer.
  std::vector<int> fuse_widths = smoke ? std::vector<int>{1, 4}
                                       : std::vector<int>{1, 8};
  std::vector<ConfigResult> results;
  std::printf("\n  %8s %6s %6s %10s %12s %10s %10s %10s\n", "replicas",
              "batch", "fuse", "requests", "wall_s", "rps", "p50_ms",
              "p99_ms");
  for (int replicas : replica_counts) {
    for (int batch : batches) {
      for (int fuse : fuse_widths) {
        ServerOptions opts = base;
        opts.replicas = replicas;
        opts.max_batch = fuse;
        opts.queue_capacity =
            std::max<std::size_t>(64, static_cast<std::size_t>(batch));
        results.push_back(ServeConfig(model, opts, batch, requests, ref));
        const ConfigResult& r = results.back();
        std::printf("  %8d %6d %6d %10d %12.4f %10.2f %10.3f %10.3f%s\n",
                    r.replicas, r.batch, r.max_batch, r.requests,
                    r.wall_seconds, r.throughput_rps, r.p50_ms, r.p99_ms,
                    r.bit_identical ? "" : "  OUTPUT MISMATCH");
      }
    }
  }

  bool all_identical = true;
  double single_rps = 0, multi_rps = 0;
  int multi_replicas = 0;
  FusionSummary fusion;
  for (const ConfigResult& r : results) {
    all_identical = all_identical && r.bit_identical;
    // Replica scaling is compared like-for-like on UNFUSED configs
    // (max_batch == 1, the PR 3 baseline): fusion changes per-launch
    // width, so mixing widths here would let a single-replica fused
    // config masquerade as a replica-scaling regression.
    if (r.max_batch == 1) {
      if (r.replicas == 1) {
        single_rps = std::max(single_rps, r.throughput_rps);
      } else if (r.throughput_rps > multi_rps) {
        multi_rps = r.throughput_rps;
        multi_replicas = r.replicas;
      }
    }
    // Fused-vs-unfused is compared at serving load: enough requests in
    // flight (batch >= kFusedBatch) that coalescing has material to
    // work with.
    if (r.batch >= kFusedBatch || smoke) {
      if (r.max_batch == 1) {
        fusion.unfused_rps = std::max(fusion.unfused_rps, r.throughput_rps);
      } else if (r.throughput_rps > fusion.fused_rps) {
        fusion.fused_rps = r.throughput_rps;
        fusion.fused_width = r.max_batch;
      }
    }
  }
  std::printf("\n  scaling: single-replica %.2f rps, best multi-replica "
              "%.2f rps (x%d replicas) -> %.2fx\n",
              single_rps, multi_rps, multi_replicas,
              single_rps > 0 ? multi_rps / single_rps : 0.0);
  std::printf("  fusion:  unfused %.2f rps, fused %.2f rps (max_batch %d) "
              "-> %.2fx\n",
              fusion.unfused_rps, fusion.fused_rps, fusion.fused_width,
              fusion.unfused_rps > 0 ? fusion.fused_rps / fusion.unfused_rps
                                     : 0.0);

  // ---- Overload: burst arrivals, deadlines, graceful degradation ----
  // Rates and deadlines scale off the measured per-request service
  // time, so the burst overcommits the server by the same factor on any
  // host. The baseline run uses a single-level ladder (the controller
  // cannot move); the ladder run may degrade down to floor 0.70. Both
  // serve the identical seeded arrival schedule.
  ServerOptions over = base;
  over.replicas = 2;
  over.max_batch = 4;
  over.queue_capacity = 16;
  // The overload section always runs the full-size model (the smoke
  // sweep model's ~0.1 ms kernels are smaller than the per-request
  // scheduling overhead, which dilutes the ladder's kernel-speed
  // advantage into the noise floor and makes the gates flaky).
  const ModelDesc over_model =
      ModelDesc::Transformer(TransformerConfig{64, 256, 32, 1, 1});
  const double svc = CalibrateServiceSeconds(over_model, base.engine);
  const double capacity_rps = CalibrateCapacityRps(over_model, over);
  // Effective per-request seconds at measured capacity; the deadline
  // tolerates a half-full queue's worth of waiting (the same point the
  // controller's degrade_queue_fraction 0.5 fires), so lateness and
  // degradation pressure track the same signal.
  const double eff = 1.0 / capacity_rps;
  const double deadline =
      0.5 * static_cast<double>(over.queue_capacity) * eff;
  const int pre = smoke ? 15 : 30;
  const int burst = smoke ? 100 : 150;
  const int post = smoke ? 15 : 30;
  // The burst rate targets the band between baseline capacity (1.0x)
  // and the fully degraded ladder's capacity (~1.3x: floor 0.70
  // compiles to all-CSR and runs ~25% faster than the dense level-0
  // plan). In that band the ladder, once downshifted, holds its queue
  // near steady state while the fixed-quality baseline's backlog grows
  // for the whole burst — the structural margin the miss-fraction gate
  // measures. Rates above the ladder's capacity drown both configs and
  // the gate ends up comparing scheduler noise.
  const double burst_rps = 1.4 * capacity_rps;
  const std::vector<double> schedule =
      ArrivalSchedule(pre, burst, post, 0.5 * capacity_rps, burst_rps);
  // Interleaved trials, aggregated for the gate: a single short burst
  // at sub-millisecond service times is dominated by scheduler noise;
  // the summed counts over alternating baseline/ladder runs are not.
  constexpr int kTrials = 3;
  std::printf("\n  overload: svc %.3f ms, capacity %.0f rps, deadline "
              "%.3f ms, burst %.0f rps (1.4x capacity) for %d of %d "
              "arrivals, %d trial(s)/config\n",
              svc * 1e3, capacity_rps, deadline * 1e3, burst_rps, burst,
              static_cast<int>(schedule.size()), kTrials);
  OverloadResult over_base;
  OverloadResult over_ladder;
  for (int t = 0; t < kTrials; ++t) {
    Accumulate(over_base,
               ServeOverload(over_model, over, {0.95}, schedule, deadline));
    Accumulate(over_ladder, ServeOverload(over_model, over, {0.95, 0.85, 0.70},
                                          schedule, deadline));
  }
  PrintOverload("baseline", over_base);
  PrintOverload("ladder", over_ladder);

  // ---- Observability: overhead gate + annotated trace artifacts ----
  // One pre-warmed server, runtime-toggled telemetry, interleaved
  // paired rounds: the telemetry hot path (sharded counter adds + span
  // ring writes) must cost less than 2% of serving throughput, or
  // enabling it in production is not an honest default. Measured on
  // the full-size model even in smoke — the smoke sweep model's
  // ~0.1 ms requests put a 2% margin inside scheduler noise, which
  // would make the gate flaky, not strict.
  // The 2% budget the gate enforces (shared with the re-measure
  // confirmation below and the FAIL branch at the end).
  constexpr double kObsOverheadFloor = 0.98;
  ObsOverhead obs =
      MeasureObservabilityOverhead(over_model, base, /*requests=*/80,
                                   /*rounds=*/16);
  if (obs.ratio < kObsOverheadFloor) {
    // Confirm before failing: a saturated runner can swamp both
    // estimators at once, but that state rarely survives two full
    // measurements. A real regression reproduces.
    std::printf("\n  observability: ratio %.4f below %.2f, re-measuring "
                "to confirm\n", obs.ratio, kObsOverheadFloor);
    obs = MeasureObservabilityOverhead(over_model, base, /*requests=*/80,
                                       /*rounds=*/16);
  }
  std::printf("\n  observability: disabled %.2f rps, enabled %.2f rps "
              "-> %.4fx (best %.4f, median-paired %.4f)\n",
              obs.disabled_rps, obs.enabled_rps, obs.ratio,
              obs.best_ratio, obs.median_ratio);
  const std::string trace_path = "BENCH_serving_trace.json";
  const std::string metrics_path = "BENCH_serving_metrics.prom";
  const TraceScenario trace =
      RunTraceScenario(over_model, base, trace_path, metrics_path);
  std::printf("  trace: %zu spans (%zu queue, %zu coalesce, %zu kernel, "
              "%zu retry, %zu shed, %zu run); degraded run %s, retried "
              "run %s\n",
              trace.spans, trace.queue, trace.coalesce, trace.kernel,
              trace.retry, trace.shed, trace.run,
              trace.degraded_run ? "yes" : "NO", trace.retried_run ? "yes"
                                                                   : "NO");

  const bool wrote = WriteJson(out, model, config, base, requests, results,
                               single_rps, multi_rps, multi_replicas, fusion,
                               svc, deadline, over_base, over_ladder, obs,
                               trace, trace_path, metrics_path,
                               all_identical);
  if (wrote) std::printf("\nwrote %s\n", out.c_str());

  bool ok = wrote;
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: served outputs diverged from the serial "
                 "reference\n");
    ok = false;
  }
  // Acceptance: with >=2 worker partitions available, multi-replica
  // throughput must strictly beat single-replica. Smoke shapes are too
  // small for a stable margin, so the check runs on the full config.
  if (!smoke && hw >= 2 && multi_rps <= single_rps) {
    std::fprintf(stderr, "FAIL: multi-replica throughput (%.2f rps) did "
                 "not beat single-replica (%.2f rps)\n",
                 multi_rps, single_rps);
    ok = false;
  }
  // Acceptance: fused serving at batch >= 8 must not regress below
  // unfused on a multi-core host (same smoke caveat as above).
  if (!smoke && hw >= 2 && fusion.fused_rps < fusion.unfused_rps) {
    std::fprintf(stderr, "FAIL: fused throughput (%.2f rps, max_batch %d) "
                 "regressed below unfused (%.2f rps) at batch >= %d\n",
                 fusion.fused_rps, fusion.fused_width, fusion.unfused_rps,
                 kFusedBatch);
    ok = false;
  }
  // Overload gates — deliberately active in --smoke too (CI runs the
  // smoke config on every PR): the scenario is scaled off measured
  // service time, so it stresses equally on any host.
  if (over_ladder.max_level < 1 || over_ladder.downshifts < 1) {
    std::fprintf(stderr, "FAIL: the burst never engaged the degradation "
                 "ladder (max level %d, %llu downshifts)\n",
                 over_ladder.max_level,
                 static_cast<unsigned long long>(over_ladder.downshifts));
    ok = false;
  }
  if (over_ladder.miss_fraction >= over_base.miss_fraction) {
    std::fprintf(stderr, "FAIL: degradation did not reduce the miss "
                 "fraction (ladder %.3f vs baseline %.3f)\n",
                 over_ladder.miss_fraction, over_base.miss_fraction);
    ok = false;
  }
  if (!over_base.quality_honored || !over_ladder.quality_honored) {
    std::fprintf(stderr, "FAIL: a served response's retained_ratio fell "
                 "below its plan level's floor\n");
    ok = false;
  }
  if (!over_base.bit_identical || !over_ladder.bit_identical) {
    std::fprintf(stderr, "FAIL: a degraded output diverged from the serial "
                 "single-engine run at its level\n");
    ok = false;
  }
  // Observability gates — active in --smoke too. The overhead budget is
  // the tentpole claim: full telemetry (metrics + tracing) within 2% of
  // telemetry off.
  if (obs.ratio < kObsOverheadFloor) {
    std::fprintf(stderr, "FAIL: telemetry-enabled throughput fell below "
                 "%.0f%% of disabled by both estimators (best-round "
                 "ratio %.4f, median paired ratio %.4f; best rounds: "
                 "enabled %.2f rps, disabled %.2f rps)\n",
                 kObsOverheadFloor * 100, obs.best_ratio,
                 obs.median_ratio, obs.enabled_rps, obs.disabled_rps);
    ok = false;
  }
  if (trace.queue == 0 || trace.coalesce == 0 || trace.kernel == 0 ||
      trace.retry == 0 || trace.shed == 0 || trace.run == 0) {
    std::fprintf(stderr, "FAIL: trace scenario missing a span kind "
                 "(queue %zu, coalesce %zu, kernel %zu, retry %zu, "
                 "shed %zu, run %zu)\n",
                 trace.queue, trace.coalesce, trace.kernel, trace.retry,
                 trace.shed, trace.run);
    ok = false;
  }
  if (!trace.degraded_run || !trace.retried_run) {
    std::fprintf(stderr, "FAIL: trace scenario lacks a %s run span\n",
                 !trace.degraded_run ? "degraded (level > 0)"
                                     : "retried (retries > 0)");
    ok = false;
  }
  if (!trace.wrote_trace || !trace.wrote_metrics) {
    std::fprintf(stderr, "FAIL: could not write %s\n",
                 !trace.wrote_trace ? "the Chrome trace dump"
                                    : "the Prometheus metrics dump");
    ok = false;
  }
  if (!trace.wrote_status || !trace.wrote_flight) {
    std::fprintf(stderr, "FAIL: could not write %s\n",
                 !trace.wrote_status ? "the statusz dump"
                                     : "the flight-recorder dump");
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace runtime
}  // namespace shflbw

int main(int argc, char** argv) { return shflbw::runtime::Main(argc, argv); }
