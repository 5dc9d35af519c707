// Overload-resilience contract of the serving layer: typed admission
// verdicts (queue-full vs infeasible-deadline vs shutdown), QoS queue
// shares, seal-time shedding of expired requests, the hysteresis
// controller walking the quality-degradation ladder, and the
// conservation law submitted == completed + shed that Drain enforces.
// The Shutdown-while-Submit-blocked and Drain-vs-shed races are
// hammered under TSan in CI.
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "quality/quality_planner.h"
#include "runtime/server.h"

namespace shflbw {
namespace runtime {
namespace {

struct ThreadGuard {
  ~ThreadGuard() { SetParallelThreads(0); }
};

EngineOptions SmallOptions() {
  EngineOptions opts;
  opts.planner.density = 0.25;
  opts.planner.v = 8;
  return opts;
}

ModelDesc SmallTransformer() {
  TransformerConfig cfg;
  cfg.d_model = 64;
  cfg.d_ff = 128;
  cfg.batch_tokens = 32;
  cfg.encoder_layers = 1;
  cfg.decoder_layers = 1;
  return ModelDesc::Transformer(cfg);
}

/// A delay-every-launch injector: keeps a replica measurably busy per
/// batch so tests can deterministically build queue depth.
std::shared_ptr<FaultInjector> SlowLaunches(double delay_seconds) {
  FaultInjectorOptions fi;
  fi.launch_delay_rate = 1.0;
  fi.launch_delay_seconds = delay_seconds;
  return std::make_shared<FaultInjector>(fi);
}

TEST(ValidateServerOptions, RejectsEachBadKnobDescriptively) {
  const auto expect_rejects = [](auto mutate, const char* what) {
    ServerOptions opts;
    mutate(opts);
    EXPECT_THROW(ValidateServerOptions(opts), Error) << what;
  };
  expect_rejects([](ServerOptions& o) { o.replicas = 0; }, "replicas");
  // Validation only: no server with this many replicas is ever built.
  expect_rejects(
      [](ServerOptions& o) {
        o.replicas = obs::HeartbeatRegistry::kMaxSlots + 1;
      },
      "replicas beyond the heartbeat slots");
  expect_rejects([](ServerOptions& o) { o.queue_capacity = 0; },
                 "queue_capacity");
  expect_rejects([](ServerOptions& o) { o.max_batch = 0; }, "max_batch");
  expect_rejects([](ServerOptions& o) { o.coalesce_window_seconds = -0.1; },
                 "coalesce window");
  expect_rejects([](ServerOptions& o) { o.admission.best_effort_occupancy = 0; },
                 "best_effort_occupancy zero");
  expect_rejects(
      [](ServerOptions& o) { o.admission.best_effort_occupancy = 1.5; },
      "best_effort_occupancy > 1");
  expect_rejects(
      [](ServerOptions& o) { o.admission.service_estimate_seconds = -1; },
      "negative service estimate");
  expect_rejects([](ServerOptions& o) { o.admission.ewma_alpha = 0; },
                 "ewma_alpha");
  expect_rejects(
      [](ServerOptions& o) { o.degradation.ladder_floors = {0.9, 0.9}; },
      "non-descending ladder");
  expect_rejects(
      [](ServerOptions& o) { o.degradation.ladder_floors = {1.2, 0.5}; },
      "floor out of range");
  expect_rejects(
      [](ServerOptions& o) { o.degradation.degrade_queue_fraction = 0; },
      "degrade fraction");
  expect_rejects(
      [](ServerOptions& o) {
        o.degradation.upgrade_queue_fraction =
            o.degradation.degrade_queue_fraction;
      },
      "upgrade >= degrade fraction");
  expect_rejects(
      [](ServerOptions& o) { o.degradation.deadline_slack_fraction = 1.0; },
      "slack fraction");
  expect_rejects([](ServerOptions& o) { o.degradation.hysteresis_seals = 0; },
                 "hysteresis_seals");
  expect_rejects([](ServerOptions& o) { o.degradation.latency_window = 0; },
                 "latency_window");
  expect_rejects([](ServerOptions& o) { o.retry.max_retries = -1; },
                 "max_retries");
  expect_rejects([](ServerOptions& o) { o.retry.backoff_seconds = -1; },
                 "backoff_seconds");
  expect_rejects([](ServerOptions& o) { o.retry.backoff_multiplier = 0.5; },
                 "backoff_multiplier");
  expect_rejects(
      [](ServerOptions& o) {
        o.degradation.ladder_floors = {0.95, 0.7};
        o.engine.planner.force_format = Format::kDense;
      },
      "ladder x force_format conflict");

  ServerOptions ok;
  ok.degradation.ladder_floors = {0.95, 0.85, 0.7};
  EXPECT_NO_THROW(ValidateServerOptions(ok));
  ok.replicas = obs::HeartbeatRegistry::kMaxSlots;
  EXPECT_NO_THROW(ValidateServerOptions(ok));
}

TEST(AdmissionController, BestEffortGetsABoundedQueueShare) {
  AdmissionPolicy policy;
  policy.best_effort_occupancy = 0.5;
  AdmissionController ctl(policy, 2);
  EXPECT_EQ(ctl.CapacityFor(QoS::kStandard, 8), 8u);
  EXPECT_EQ(ctl.CapacityFor(QoS::kCritical, 8), 8u);
  EXPECT_EQ(ctl.CapacityFor(QoS::kBestEffort, 8), 4u);
  // At least one slot even when the share rounds to zero.
  EXPECT_EQ(ctl.CapacityFor(QoS::kBestEffort, 1), 1u);
}

TEST(AdmissionController, DeadlineFeasibilityUsesEtaAndFailsOpen) {
  AdmissionPolicy policy;
  AdmissionController learning(policy, 2);
  // Nothing observed yet: fail open — admission control must never
  // reject traffic it knows nothing about.
  EXPECT_TRUE(learning.DeadlineFeasible(QoS::kStandard, 1e-9, 100));

  policy.service_estimate_seconds = 0.1;
  AdmissionController ctl(policy, 2);
  // eta = 0.1 * (1 + depth/replicas); depth 4, replicas 2 -> 0.3 s.
  EXPECT_TRUE(ctl.DeadlineFeasible(QoS::kStandard, 0.31, 4));
  EXPECT_FALSE(ctl.DeadlineFeasible(QoS::kStandard, 0.29, 4));
  // No deadline, critical QoS, or the policy switched off: all feasible.
  EXPECT_TRUE(ctl.DeadlineFeasible(QoS::kStandard, 0, 4));
  EXPECT_TRUE(ctl.DeadlineFeasible(QoS::kCritical, 0.29, 4));
  policy.reject_infeasible_deadlines = false;
  AdmissionController open(policy, 2);
  EXPECT_TRUE(open.DeadlineFeasible(QoS::kStandard, 0.29, 4));
}

TEST(AdmissionController, EwmaLearnsFromObservedServiceTimes) {
  AdmissionPolicy policy;
  policy.ewma_alpha = 0.5;
  AdmissionController ctl(policy, 1);
  EXPECT_EQ(ctl.EstimatedServiceSeconds(), 0.0);
  ctl.RecordServiceTime(0.1);  // first sample taken directly
  EXPECT_DOUBLE_EQ(ctl.EstimatedServiceSeconds(), 0.1);
  ctl.RecordServiceTime(0.2);
  EXPECT_DOUBLE_EQ(ctl.EstimatedServiceSeconds(), 0.15);
}

TEST(DegradationController, HysteresisRequiresConsecutiveAgreement) {
  DegradationPolicy policy;
  policy.degrade_queue_fraction = 0.75;
  policy.upgrade_queue_fraction = 0.25;
  policy.hysteresis_seals = 3;
  DegradationController ctl(policy, 3);

  // Two pressure seals, then one in the hysteresis band: streak resets,
  // no shift.
  EXPECT_EQ(ctl.OnSeal(8, 10), 0);
  EXPECT_EQ(ctl.OnSeal(8, 10), 0);
  EXPECT_EQ(ctl.OnSeal(5, 10), 0);
  EXPECT_EQ(ctl.OnSeal(8, 10), 0);
  EXPECT_EQ(ctl.OnSeal(8, 10), 0);
  // Third consecutive pressure seal: down one level, never two at once.
  EXPECT_EQ(ctl.OnSeal(8, 10), 1);
  EXPECT_EQ(ctl.downshifts(), 1u);

  // Sustained pressure walks to the ladder bottom and saturates there.
  for (int i = 0; i < 12; ++i) ctl.OnSeal(10, 10);
  EXPECT_EQ(ctl.level(), 2);

  // Relief (low occupancy, no deadline samples = vacuous slack) climbs
  // back one hysteresis streak at a time.
  EXPECT_EQ(ctl.OnSeal(1, 10), 2);
  EXPECT_EQ(ctl.OnSeal(1, 10), 2);
  EXPECT_EQ(ctl.OnSeal(1, 10), 1);
  EXPECT_EQ(ctl.upshifts(), 1u);
}

TEST(DegradationController, MissedDeadlinesArePressureAndBlockUpgrades) {
  DegradationPolicy policy;
  policy.hysteresis_seals = 2;
  policy.deadline_slack_fraction = 0.25;
  policy.latency_window = 4;  // small ring so fresh samples dominate
  DegradationController ctl(policy, 2);

  // p99 latency/deadline > 1 counts as pressure even with an empty
  // queue: deadlines already missing is the strongest overload signal.
  for (int i = 0; i < 4; ++i) ctl.RecordCompletion(0.2, 0.1);
  EXPECT_EQ(ctl.OnSeal(0, 10), 0);
  EXPECT_EQ(ctl.OnSeal(0, 10), 1);

  // The window was cleared on the shift; completions without slack
  // (ratio above 1 - slack) block the upgrade despite low occupancy.
  EXPECT_LT(ctl.WindowP99Ratio(), 0);
  for (int i = 0; i < 4; ++i) ctl.RecordCompletion(0.09, 0.1);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(ctl.OnSeal(0, 10), 1);
  // Once completions with real slack wash the ring, the upgrade goes
  // through.
  for (int i = 0; i < 4; ++i) ctl.RecordCompletion(0.05, 0.1);
  EXPECT_EQ(ctl.OnSeal(0, 10), 1);
  EXPECT_EQ(ctl.OnSeal(0, 10), 0);
}

TEST(BatchServer, RejectsProvablyInfeasibleDeadlines) {
  ThreadGuard guard;
  SetParallelThreads(1);
  ServerOptions opts;
  opts.replicas = 1;
  opts.engine = SmallOptions();
  // Operator-pinned estimate: 100 ms per request, so a 1 ms deadline is
  // provably dead on arrival even with an empty queue.
  opts.admission.service_estimate_seconds = 0.1;
  BatchServer server(SmallTransformer(), opts);

  std::future<Response> fut;
  Request doomed;
  doomed.deadline_seconds = 0.001;
  EXPECT_EQ(server.TrySubmit(doomed, &fut),
            SubmitStatus::kRejectedInfeasibleDeadline);
  EXPECT_EQ(server.Submit(doomed, &fut),
            SubmitStatus::kRejectedInfeasibleDeadline);
  // Critical traffic is exempt: the caller wants the answer regardless.
  doomed.qos = QoS::kCritical;
  ASSERT_EQ(server.Submit(doomed, &fut), SubmitStatus::kAccepted);
  EXPECT_GT(fut.get().output.size(), 0u);

  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.rejected_deadline, 2u);
  EXPECT_DOUBLE_EQ(stats.estimated_service_seconds, 0.1);
}

TEST(BatchServer, ShedsExpiredRequestsAtSealTime) {
  ThreadGuard guard;
  SetParallelThreads(1);
  ServerOptions opts;
  opts.replicas = 1;
  opts.engine = SmallOptions();
  opts.max_batch = 4;
  // The window guarantees the seal happens well after the deadline.
  opts.coalesce_window_seconds = 0.05;
  BatchServer server(SmallTransformer(), opts);
  server.Warmup();

  Request doomed;
  doomed.deadline_seconds = 1e-6;  // expired long before the 50 ms seal
  Request live;  // no deadline
  Request critical;
  critical.deadline_seconds = 1e-6;
  critical.qos = QoS::kCritical;  // expired but never shed
  std::future<Response> doomed_fut = server.Submit(doomed);
  std::future<Response> live_fut = server.Submit(live);
  std::future<Response> critical_fut = server.Submit(critical);
  server.Drain();

  Response shed = doomed_fut.get();
  EXPECT_EQ(shed.status, ResponseStatus::kDeadlineExceeded);
  EXPECT_EQ(shed.output.size(), 0u);
  EXPECT_GE(shed.queue_seconds, doomed.deadline_seconds);

  Response served = live_fut.get();
  EXPECT_EQ(served.status, ResponseStatus::kOk);
  EXPECT_GT(served.output.size(), 0u);
  // The shed request freed its width slot: only the two live requests
  // fused into the launch.
  EXPECT_EQ(served.batch_width, 2);

  Response crit = critical_fut.get();
  EXPECT_EQ(crit.status, ResponseStatus::kOk);
  EXPECT_GT(crit.output.size(), 0u);

  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed);
}

TEST(BatchServer, BestEffortShareSaturatesBeforeStandard) {
  ThreadGuard guard;
  SetParallelThreads(1);
  ServerOptions opts;
  opts.replicas = 1;
  opts.queue_capacity = 4;
  opts.max_batch = 1;
  opts.admission.best_effort_occupancy = 0.5;  // 2 of 4 slots
  opts.engine = SmallOptions();
  // Every layer launch sleeps 50 ms (4 layers per request), so the
  // queue depth we build below is stable for the assertions.
  opts.engine.fault_injector = SlowLaunches(0.05);
  BatchServer server(SmallTransformer(), opts);
  server.Warmup();

  // Replica picks up one request and goes slow; two best-effort
  // requests then fill the class share.
  std::vector<std::future<Response>> futs(5);
  ASSERT_EQ(server.Submit(Request{}, &futs[0]), SubmitStatus::kAccepted);
  Request be;
  be.qos = QoS::kBestEffort;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(server.TrySubmit(be, &futs[1]), SubmitStatus::kAccepted);
  ASSERT_EQ(server.TrySubmit(be, &futs[2]), SubmitStatus::kAccepted);
  // Share exhausted for best-effort; standard still has queue room.
  EXPECT_EQ(server.TrySubmit(be, &futs[3]), SubmitStatus::kRejectedQueueFull);
  EXPECT_EQ(server.TrySubmit(Request{}, &futs[3]), SubmitStatus::kAccepted);
  server.Drain();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed);
}

TEST(BatchServer, DegradesDownTheLadderUnderPressureBitIdentically) {
  ThreadGuard guard;
  SetParallelThreads(1);
  const std::vector<double> floors = {0.95, 0.7};

  ServerOptions opts;
  opts.replicas = 1;
  opts.queue_capacity = 4;
  opts.max_batch = 1;  // one request per seal: many controller samples
  opts.engine = SmallOptions();
  opts.engine.fault_injector = SlowLaunches(0.03);
  opts.degradation.ladder_floors = floors;
  opts.degradation.degrade_queue_fraction = 0.5;  // depth >= 2 of 4
  opts.degradation.hysteresis_seals = 1;
  BatchServer server(SmallTransformer(), opts);
  ASSERT_EQ(server.levels(), 2);
  EXPECT_DOUBLE_EQ(server.LevelFloor(0), 0.95);
  EXPECT_DOUBLE_EQ(server.LevelFloor(1), 0.7);
  // Each compiled level honours its floor, and deeper levels are
  // genuinely sparser plans (strictly lower modeled latency would be
  // ideal; at minimum the plans differ).
  EXPECT_GE(server.LevelRetainedRatio(0), 0.95);
  EXPECT_GE(server.LevelRetainedRatio(1), 0.7);
  server.Warmup();

  // Saturate: the replica sleeps 30 ms per launch while four more
  // requests queue behind it, so seals after the first observe
  // occupancy >= 1/2 and the controller (hysteresis 1) downshifts.
  const std::uint64_t kSeed = 0x7700u;
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 5; ++i) {
    futs.push_back(server.Submit(Request{kSeed + static_cast<unsigned>(i)}));
  }
  server.Drain();

  // Reference engines, one per ladder level, serial execution.
  std::vector<std::unique_ptr<Engine>> refs;
  for (const PlannerOptions& po :
       quality::LadderPlannerOptions(SmallOptions().planner, floors)) {
    EngineOptions eo = SmallOptions();
    eo.planner = po;
    refs.push_back(std::make_unique<Engine>(SmallTransformer(), eo));
  }

  bool saw_degraded = false;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    Response resp = futs[i].get();
    ASSERT_EQ(resp.status, ResponseStatus::kOk);
    ASSERT_GE(resp.plan_level, 0);
    ASSERT_LT(resp.plan_level, 2);
    saw_degraded = saw_degraded || resp.plan_level > 0;
    // Every served response's retained ratio honours its level's floor.
    EXPECT_GE(resp.retained_ratio, server.LevelFloor(resp.plan_level));
    // Bit-identity at a fixed (seed, plan_level): the degraded output
    // matches a serial single-engine run configured at that level.
    const std::uint64_t seed = kSeed + static_cast<std::uint64_t>(i);
    ASSERT_EQ(resp.output,
              refs[static_cast<std::size_t>(resp.plan_level)]->Run(seed).output)
        << "request " << i << " at level " << resp.plan_level;
  }
  EXPECT_TRUE(saw_degraded);
  const ServerStats stats = server.Stats();
  EXPECT_GE(stats.downshifts, 1u);
  ASSERT_EQ(stats.per_level.size(), 2u);
  EXPECT_GT(stats.per_level[1], 0u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed);
}

// Satellite (c): producers blocked in Submit on a full queue must wake
// with a typed rejection when Shutdown runs — never hang. TSan-covered.
TEST(BatchServer, ShutdownWakesBlockedSubmittersWithTypedRejection) {
  ThreadGuard guard;
  SetParallelThreads(1);
  ServerOptions opts;
  opts.replicas = 1;
  opts.queue_capacity = 1;
  opts.max_batch = 1;
  opts.engine = SmallOptions();
  // Replica sleeps 200 ms per launch: the first request keeps it busy,
  // the second fills the queue, further Submits block.
  opts.engine.fault_injector = SlowLaunches(0.2);
  BatchServer server(SmallTransformer(), opts);

  std::vector<std::future<Response>> admitted(2);
  ASSERT_EQ(server.Submit(Request{}, &admitted[0]), SubmitStatus::kAccepted);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(server.Submit(Request{}, &admitted[1]), SubmitStatus::kAccepted);

  std::atomic<bool> blocked_started{false};
  SubmitStatus blocked_status = SubmitStatus::kAccepted;
  std::thread producer([&] {
    std::future<Response> fut;
    blocked_started.store(true);
    blocked_status = server.Submit(Request{}, &fut);
  });
  while (!blocked_started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  server.Shutdown();
  producer.join();  // hangs forever here if the wakeup is broken
  EXPECT_EQ(blocked_status, SubmitStatus::kRejectedShutdown);
  // Everything admitted before shutdown still resolves.
  for (auto& f : admitted) EXPECT_GT(f.get().output.size(), 0u);
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.rejected_shutdown, 1u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed);
}

// Satellite (c): Drain racing deadline-expired drops. Drain must count
// shed requests as retired (or it deadlocks), must not return before
// their futures are ready, and the conservation law holds throughout.
// TSan-covered.
TEST(BatchServer, DrainIsCorrectConcurrentWithDeadlineSheds) {
  ThreadGuard guard;
  SetParallelThreads(2);
  constexpr int kSubmitters = 3;
  constexpr int kPerSubmitter = 8;

  ServerOptions opts;
  opts.replicas = 2;
  opts.max_batch = 4;
  opts.engine = SmallOptions();
  // Admit the already-expired requests (instead of rejecting them up
  // front once the EWMA learns a service estimate): this test is about
  // seal-time shedding racing Drain, so the sheds must actually happen.
  opts.admission.reject_infeasible_deadlines = false;
  BatchServer server(SmallTransformer(), opts);
  server.Warmup();

  shflbw::Mutex futures_mu;
  std::vector<std::future<Response>> futures;
  std::atomic<bool> done{false};

  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        Request req;
        req.activation_seed = 0x5000u + static_cast<std::uint64_t>(t * 64 + i);
        // Alternate live traffic with already-expired deadlines so
        // sheds and completions interleave at every seal.
        if (i % 2 == 1) req.deadline_seconds = 1e-9;
        std::future<Response> fut;
        if (server.Submit(req, &fut) == SubmitStatus::kAccepted) {
          shflbw::MutexLock lock(futures_mu);
          futures.push_back(std::move(fut));
        }
      }
    });
  }

  std::thread drainer([&] {
    while (!done.load()) {
      std::size_t snapshot = 0;
      {
        shflbw::MutexLock lock(futures_mu);
        snapshot = futures.size();
      }
      server.Drain();
      shflbw::MutexLock lock(futures_mu);
      for (std::size_t i = 0; i < snapshot; ++i) {
        EXPECT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
                  std::future_status::ready)
            << "Drain returned with request " << i << " unresolved";
      }
      std::this_thread::yield();
    }
  });

  for (std::thread& t : submitters) t.join();
  server.Drain();
  done.store(true);
  drainer.join();

  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted,
            static_cast<std::uint64_t>(kSubmitters * kPerSubmitter) + 1);
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed);
  shflbw::MutexLock lock(futures_mu);
  for (auto& f : futures) {
    Response resp = f.get();
    if (resp.status == ResponseStatus::kOk) {
      EXPECT_GT(resp.output.size(), 0u);
    } else {
      EXPECT_EQ(resp.output.size(), 0u);
    }
  }
}

// The typed TrySubmit is the only non-blocking submit path (the old
// bool shim is gone): an uncontended submit is kAccepted and the
// future resolves with real output.
TEST(BatchServer, TypedTrySubmitAccepts) {
  ThreadGuard guard;
  SetParallelThreads(1);
  ServerOptions opts;
  opts.replicas = 1;
  opts.engine = SmallOptions();
  BatchServer server(SmallTransformer(), opts);
  std::future<Response> fut;
  EXPECT_EQ(server.TrySubmit(Request{}, &fut), SubmitStatus::kAccepted);
  EXPECT_GT(fut.get().output.size(), 0u);
}

}  // namespace
}  // namespace runtime
}  // namespace shflbw
