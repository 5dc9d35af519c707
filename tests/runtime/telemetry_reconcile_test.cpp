// The serving telemetry reconciles exactly. One seeded BatchServer run
// makes every scheduler decision — each admission verdict, seal, ladder
// shift, shed, launch, retry, served and failed completion — and then
// the ServerStats counters, the flight-recorder events, the trace spans
// and the latency-histogram counts must agree, count for count. A
// second case adds Warmup(), whose requests must get the same admission
// record as any other accepted request. Runs under TSan in CI.
#include <cstdint>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/thread_pool.h"
#include "runtime/server.h"

namespace shflbw {
namespace runtime {
namespace {

struct ThreadGuard {
  ~ThreadGuard() { SetParallelThreads(0); }
};

ModelDesc SmallTransformer() {
  TransformerConfig cfg;
  cfg.d_model = 64;
  cfg.d_ff = 128;
  cfg.batch_tokens = 32;
  cfg.encoder_layers = 1;
  cfg.decoder_layers = 1;
  return ModelDesc::Transformer(cfg);
}

/// Two replicas over a 4-slot queue, fused width 2, a 5 ms coalesce
/// window, and a two-level ladder that shifts on every pressured or
/// relieved seal. Every layer launch sleeps 4 ms, so a batch holds its
/// replica for at least 16 ms (4 layers) while a burst of TrySubmits
/// fills the queue in microseconds. A quarter of layer launches fail,
/// at most 10 in all, with one retry per batch. This seed leaves the
/// first eight launches clean, so Warmup's two requests always
/// succeed, and one request at a time after them the schedule gives a
/// retried-then-served batch followed by a failed one.
ServerOptions ReconcileOptions() {
  FaultInjectorOptions fi;
  fi.seed = 0x4da017ULL;
  fi.launch_delay_rate = 1.0;
  fi.launch_delay_seconds = 0.004;
  fi.launch_failure_rate = 0.25;
  fi.max_failures = 10;
  ServerOptions opts;
  opts.replicas = 2;
  opts.queue_capacity = 4;
  opts.max_batch = 2;
  opts.coalesce_window_seconds = 0.005;
  opts.engine.planner.density = 0.25;
  opts.engine.planner.v = 8;
  opts.engine.fault_injector = std::make_shared<FaultInjector>(fi);
  opts.degradation.ladder_floors = {0.95, 0.7};
  opts.degradation.hysteresis_seals = 1;
  opts.retry.max_retries = 1;
  opts.telemetry.tracing = true;
  opts.telemetry.flight_capacity = 1 << 16;  // never wraps in this run
  return opts;
}

Request Doomed() {
  Request r;
  r.deadline_seconds = 1e-6;
  return r;
}

Request BestEffort() {
  Request r;
  r.qos = QoS::kBestEffort;
  return r;
}

/// How the futures of the driven traffic resolved.
struct Outcomes {
  int retried_served = 0;
  int shed = 0;
  int failed = 0;

  void Collect(std::vector<std::future<Response>>& futs) {
    for (std::future<Response>& f : futs) {
      try {
        const Response r = f.get();
        if (r.status == ResponseStatus::kDeadlineExceeded) {
          ++shed;
        } else {
          retried_served += r.retries > 0;
        }
      } catch (const Error&) {
        ++failed;
      }
    }
    futs.clear();
  }
};

/// Drives `server` through every decision kind, then Drain, Shutdown
/// and one TrySubmit that shutdown rejects. Each kind is forced by
/// construction, not by timing luck; the comments say how.
void DriveEveryDecision(BatchServer& server) {
  const FaultInjector& faults = *server.options().engine.fault_injector;
  Outcomes out;
  std::vector<std::future<Response>> futs;

  // Shed: no launch has been measured yet, so admission has no service
  // estimate and admits a 1 us deadline; alone in the queue, the
  // request waits out the 5 ms window and expires before its seal.
  futs.push_back(server.Submit(Doomed()));
  out.Collect(futs);
  ASSERT_EQ(out.shed, 1);

  // Retry and failure: one request at a time, so the seeded fault
  // schedule lands on the same batches every run. The failure budget
  // bounds the loop.
  while ((out.retried_served == 0 || out.failed == 0) &&
         faults.total_failures() < faults.options().max_failures) {
    futs.push_back(server.Submit(Request{}));
    out.Collect(futs);
  }
  ASSERT_GT(out.retried_served, 0) << "no batch retried and then served";
  ASSERT_GT(out.failed, 0) << "no batch failed";

  // Rejections and ladder pressure. Both replicas are held by slow
  // launches while TrySubmit fills the queue, so the round ends on a
  // queue-full verdict and the next seal sees a full queue: a
  // downshift. Best effort owns half the queue and bounces. A 1 us
  // deadline is infeasible now that launches have been measured.
  for (int round = 0; round < 3; ++round) {
    SubmitStatus verdict = SubmitStatus::kAccepted;
    for (int i = 0; i < 64 && verdict == SubmitStatus::kAccepted; ++i) {
      std::future<Response> f;
      verdict = server.TrySubmit(Request{}, &f);
      if (verdict == SubmitStatus::kAccepted) futs.push_back(std::move(f));
    }
    std::future<Response> f;
    (void)server.TrySubmit(BestEffort(), &f);
    EXPECT_EQ(server.Submit(Doomed(), &f),
              SubmitStatus::kRejectedInfeasibleDeadline);
    if (server.Submit(BestEffort(), &f) == SubmitStatus::kAccepted) {
      futs.push_back(std::move(f));
    }
    if (server.TrySubmit(Doomed(), &f) == SubmitStatus::kAccepted) {
      futs.push_back(std::move(f));
    }
    out.Collect(futs);
  }
  // Relief: a lone request seals at occupancy 1/4, which upshifts a
  // degraded ladder.
  futs.push_back(server.Submit(Request{}));
  out.Collect(futs);

  server.Drain();
  server.Shutdown();
  std::future<Response> late;
  EXPECT_EQ(server.TrySubmit(Request{}, &late),
            SubmitStatus::kRejectedShutdown);
}

/// Every counter, flight-event sum, span count and histogram count that
/// describes the same decisions must agree exactly.
void ExpectTelemetryReconciles(const BatchServer& server) {
  const ServerStats s = server.Stats();
  const obs::Telemetry& tel = server.telemetry();
  const std::vector<obs::FlightEvent> flight = tel.flight().Snapshot();
  const std::vector<obs::TraceEvent> spans = tel.trace().Snapshot();
  // Nothing was lost: neither ring wrapped or dropped.
  ASSERT_EQ(flight.size(), tel.flight().total());
  ASSERT_EQ(tel.flight().dropped(), 0u);
  ASSERT_EQ(tel.trace().dropped(), 0u);

  // Every kind this run is built to produce happened.
  EXPECT_GT(s.rejected_queue_full, 0u);
  EXPECT_GT(s.rejected_deadline, 0u);
  EXPECT_EQ(s.rejected_shutdown, 1u);
  EXPECT_GT(s.shed, 0u);
  EXPECT_GT(s.retries, 0u);
  EXPECT_GT(s.failed, 0u);
  EXPECT_GT(s.downshifts, 0u);
  EXPECT_GT(s.upshifts, 0u);

  std::map<obs::FlightKind, std::uint64_t> events;
  std::map<std::int32_t, std::uint64_t> reject_events;  // by verdict
  std::uint64_t seal_width = 0, seal_dropped = 0;
  std::uint64_t complete_width = 0, error_width = 0;
  std::uint64_t ok_completes = 0, retried_ok_completes = 0;
  for (const obs::FlightEvent& e : flight) {
    ++events[e.kind];
    if (e.kind == obs::FlightKind::kReject) ++reject_events[e.detail];
    if (e.kind == obs::FlightKind::kSeal) {
      seal_width += static_cast<std::uint64_t>(e.width);
      seal_dropped += static_cast<std::uint64_t>(e.detail);
    }
    if (e.kind == obs::FlightKind::kComplete) {
      complete_width += static_cast<std::uint64_t>(e.width);
      if (std::strcmp(e.label, "error") == 0) {
        error_width += static_cast<std::uint64_t>(e.width);
      } else {
        ++ok_completes;
        retried_ok_completes += e.detail > 0;
      }
    }
  }
  std::map<obs::SpanKind, std::uint64_t> span_count;
  std::map<std::int32_t, std::uint64_t> admission_spans;  // by verdict
  for (const obs::TraceEvent& e : spans) {
    ++span_count[e.kind];
    if (e.kind == obs::SpanKind::kAdmission) ++admission_spans[e.detail];
  }
  const auto verdict = [](SubmitStatus v) {
    return static_cast<std::int32_t>(v);
  };

  EXPECT_EQ(s.submitted, events[obs::FlightKind::kSubmit]);
  EXPECT_EQ(s.submitted, admission_spans[verdict(SubmitStatus::kAccepted)]);
  for (const auto& [status, counter] :
       {std::pair{SubmitStatus::kRejectedQueueFull, s.rejected_queue_full},
        std::pair{SubmitStatus::kRejectedInfeasibleDeadline,
                  s.rejected_deadline},
        std::pair{SubmitStatus::kRejectedShutdown, s.rejected_shutdown}}) {
    EXPECT_EQ(counter, reject_events[verdict(status)])
        << SubmitStatusName(status);
    EXPECT_EQ(counter, admission_spans[verdict(status)])
        << SubmitStatusName(status);
  }

  EXPECT_EQ(s.shed, events[obs::FlightKind::kShed]);
  EXPECT_EQ(s.shed, span_count[obs::SpanKind::kShed]);
  EXPECT_EQ(s.shed, seal_dropped);
  EXPECT_EQ(s.retries, events[obs::FlightKind::kRetry]);
  EXPECT_EQ(s.retries, span_count[obs::SpanKind::kRetry]);
  EXPECT_EQ(s.completed, complete_width);
  EXPECT_EQ(s.completed, seal_width);
  EXPECT_EQ(s.failed, error_width);
  EXPECT_EQ(events[obs::FlightKind::kLaunch],
            events[obs::FlightKind::kComplete]);
  EXPECT_EQ(s.completed - s.failed, span_count[obs::SpanKind::kRun]);
  EXPECT_EQ(s.completed + s.shed, span_count[obs::SpanKind::kQueue]);
  EXPECT_EQ(s.downshifts + s.upshifts, events[obs::FlightKind::kShift]);
  EXPECT_EQ(std::accumulate(s.per_level.begin(), s.per_level.end(),
                            std::uint64_t{0}),
            s.completed);
  EXPECT_EQ(std::accumulate(s.per_replica.begin(), s.per_replica.end(),
                            std::uint64_t{0}),
            s.completed);

  const obs::Registry& reg = tel.registry();
  const auto samples = [&reg](const char* name) {
    const obs::Histogram* h = reg.FindHistogram(name);
    return h == nullptr ? ~std::uint64_t{0} : h->Count();
  };
  EXPECT_EQ(samples("shflbw_request_queue_seconds"),
            s.completed - s.failed + s.shed);
  EXPECT_EQ(samples("shflbw_request_total_seconds"), s.completed - s.failed);
  EXPECT_EQ(samples("shflbw_batch_width"), ok_completes);
  EXPECT_EQ(samples("shflbw_request_run_seconds"), ok_completes);
  EXPECT_EQ(samples("shflbw_request_retry_seconds"), retried_ok_completes);
}

TEST(TelemetryReconcile, EveryDecisionKindAgreesAcrossSinks) {
  ThreadGuard guard;
  SetParallelThreads(1);
  BatchServer server(SmallTransformer(), ReconcileOptions());
  ASSERT_NO_FATAL_FAILURE(DriveEveryDecision(server));
  ExpectTelemetryReconciles(server);
}

TEST(TelemetryReconcile, WarmupRequestsGetTheSameAdmissionRecord) {
  ThreadGuard guard;
  SetParallelThreads(1);
  BatchServer server(SmallTransformer(), ReconcileOptions());
  server.Warmup();
  ASSERT_NO_FATAL_FAILURE(DriveEveryDecision(server));
  ExpectTelemetryReconciles(server);
}

}  // namespace
}  // namespace runtime
}  // namespace shflbw
