// BatchServer contract: every request's output is bit-identical to a
// standalone serial Engine run with the same seed (including when
// coalesced into a fused multi-request launch), the shared cache packs
// each (layer, format) exactly once across all replicas, the bounded
// queue applies backpressure, Drain never returns with requests in
// flight, and shutdown resolves every admitted request.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
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

TEST(BatchServer, OutputsBitIdenticalToSerialEngine) {
  ThreadGuard guard;
  constexpr int kRequests = 12;

  // Reference: a standalone engine, serial execution, one run per seed.
  SetParallelThreads(1);
  std::map<std::uint64_t, Matrix<float>> ref;
  {
    Engine engine(SmallTransformer(), SmallOptions());
    for (int i = 0; i < kRequests; ++i) {
      const std::uint64_t seed = 0x1000u + static_cast<std::uint64_t>(i);
      ref.emplace(seed, engine.Run(seed).output);
    }
  }

  // Served: 3 replicas, parallel kernels, concurrent in-flight runs.
  SetParallelThreads(4);
  ServerOptions opts;
  opts.replicas = 3;
  opts.engine = SmallOptions();
  BatchServer server(SmallTransformer(), opts);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < kRequests; ++i) {
    Request req;
    req.activation_seed = 0x1000u + static_cast<std::uint64_t>(i);
    futures.push_back(server.Submit(req));
  }
  for (int i = 0; i < kRequests; ++i) {
    Response resp = futures[static_cast<std::size_t>(i)].get();
    const std::uint64_t seed = 0x1000u + static_cast<std::uint64_t>(i);
    EXPECT_EQ(resp.id, static_cast<std::uint64_t>(i));
    ASSERT_EQ(resp.output, ref.at(seed)) << "request " << i;
  }
}

TEST(BatchServer, ReplicasShareOnePackPhase) {
  ThreadGuard guard;
  SetParallelThreads(2);
  ServerOptions opts;
  opts.replicas = 3;
  opts.engine = SmallOptions();
  BatchServer server(SmallTransformer(), opts);
  server.Warmup();
  const std::size_t packs_after_warmup = server.cache().TotalPacks();
  EXPECT_GT(packs_after_warmup, 0u);
  // One entry per planned (layer, format) — N replicas do not multiply
  // the pack phase.
  EXPECT_LE(packs_after_warmup, server.Plan().layers.size());

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 9; ++i) {
    futures.push_back(server.Submit(Request{0x2000u + i}));
  }
  for (auto& f : futures) {
    // Steady state: no request triggers a conversion.
    EXPECT_EQ(f.get().packs_performed, 0u);
  }
  EXPECT_EQ(server.cache().TotalPacks(), packs_after_warmup);
}

TEST(BatchServer, SchedulerUsesMultipleReplicas) {
  ThreadGuard guard;
  SetParallelThreads(2);
  ServerOptions opts;
  opts.replicas = 2;
  opts.engine = SmallOptions();
  // Every layer launch is held ~20 ms, so a replica is still inside its
  // launch while queued work remains and the other replica must take
  // some, however fast an unheld launch runs.
  FaultInjectorOptions slow;
  slow.launch_delay_rate = 1.0;
  slow.launch_delay_seconds = 0.02;
  opts.engine.fault_injector = std::make_shared<FaultInjector>(slow);
  BatchServer server(SmallTransformer(), opts);
  server.Warmup();
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 16; ++i) futures.push_back(server.Submit(Request{}));
  server.Drain();
  const ServerStats stats = server.Stats();
  // 16 requests + the warmup request (Warmup goes through the queue).
  EXPECT_EQ(stats.submitted, 17u);
  EXPECT_EQ(stats.completed, 17u);
  ASSERT_EQ(stats.per_replica.size(), 2u);
  EXPECT_EQ(stats.per_replica[0] + stats.per_replica[1], 17u);
  // With 16 queued requests and 2 replicas popping as they go idle,
  // both must have served something.
  EXPECT_GT(stats.per_replica[0], 0u);
  EXPECT_GT(stats.per_replica[1], 0u);
  for (auto& f : futures) (void)f.get();
}

// Without a coalesce window a replica seals at most its share of the
// queue, ceil(depth / replicas), and leaves the rest to its siblings.
// Held launches keep the replicas busy, so a queue stands behind them.
TEST(BatchServer, WindowlessSealTakesItsShareOfTheQueue) {
  ThreadGuard guard;
  SetParallelThreads(4);
  constexpr int kReplicas = 4;
  constexpr int kMaxBatch = 8;
  ServerOptions opts;
  opts.replicas = kReplicas;
  opts.max_batch = kMaxBatch;
  opts.engine = SmallOptions();
  FaultInjectorOptions slow;
  slow.launch_delay_rate = 1.0;
  slow.launch_delay_seconds = 0.005;
  opts.engine.fault_injector = std::make_shared<FaultInjector>(slow);
  BatchServer server(SmallTransformer(), opts);
  server.Warmup();
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 32; ++i) futures.push_back(server.Submit(Request{}));
  server.Drain();
  int capped = 0;  // seals that left queued work past their share
  for (const obs::FlightEvent& e : server.telemetry().flight().Snapshot()) {
    if (e.kind != obs::FlightKind::kSeal) continue;
    const int depth = e.detail2;  // queued requests at the seal
    EXPECT_LE(e.width, (depth + kReplicas - 1) / kReplicas)
        << "seal at depth " << depth;
    if (e.width < std::min(kMaxBatch, depth)) ++capped;
  }
  EXPECT_GT(capped, 0);
  for (auto& f : futures) EXPECT_EQ(f.get().status, ResponseStatus::kOk);
}

TEST(BatchServer, TrySubmitReportsFullQueue) {
  ThreadGuard guard;
  SetParallelThreads(1);
  ServerOptions opts;
  opts.replicas = 1;
  opts.queue_capacity = 2;
  opts.engine = SmallOptions();
  BatchServer server(SmallTransformer(), opts);
  // Saturate: 1 replica busy + capacity-2 queue. Eventually TrySubmit
  // must observe a full queue and refuse.
  std::vector<std::future<Response>> accepted;
  bool saw_full = false;
  for (int i = 0; i < 64 && !saw_full; ++i) {
    std::future<Response> fut;
    const SubmitStatus status = server.TrySubmit(Request{}, &fut);
    if (status == SubmitStatus::kAccepted) {
      accepted.push_back(std::move(fut));
    } else {
      // The typed status distinguishes a full queue from shutdown.
      EXPECT_EQ(status, SubmitStatus::kRejectedQueueFull);
      saw_full = true;
    }
  }
  EXPECT_TRUE(saw_full);
  for (auto& f : accepted) (void)f.get();  // all admitted requests resolve
}

TEST(BatchServer, ShutdownDrainsAdmittedRequestsAndRejectsNew) {
  ThreadGuard guard;
  SetParallelThreads(1);
  ServerOptions opts;
  opts.replicas = 2;
  opts.engine = SmallOptions();
  auto server = std::make_unique<BatchServer>(SmallTransformer(), opts);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(server->Submit(Request{}));
  server->Shutdown();
  for (auto& f : futures) {
    EXPECT_GT(f.get().output.size(), 0u);  // resolved, not abandoned
  }
  EXPECT_THROW(server->Submit(Request{}), std::runtime_error);
  std::future<Response> fut;
  EXPECT_EQ(server->TrySubmit(Request{}, &fut),
            SubmitStatus::kRejectedShutdown);
  EXPECT_EQ(server->Submit(Request{}, &fut), SubmitStatus::kRejectedShutdown);
  server.reset();  // double shutdown via destructor is safe
}

TEST(BatchServer, CoalescesRequestsIntoFusedLaunches) {
  ThreadGuard guard;
  SetParallelThreads(2);
  constexpr int kRequests = 8;

  SetParallelThreads(1);
  std::map<std::uint64_t, Matrix<float>> ref;
  {
    Engine engine(SmallTransformer(), SmallOptions());
    for (int i = 0; i < kRequests; ++i) {
      const std::uint64_t seed = 0x3000u + static_cast<std::uint64_t>(i);
      ref.emplace(seed, engine.Run(seed).output);
    }
  }
  SetParallelThreads(2);

  ServerOptions opts;
  opts.replicas = 1;
  opts.engine = SmallOptions();
  opts.max_batch = kRequests;
  // Generous window: the replica holds its first partial batch open
  // until all kRequests (== max_batch) are queued, making the fused
  // width deterministic.
  opts.coalesce_window_seconds = 5.0;
  BatchServer server(SmallTransformer(), opts);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < kRequests; ++i) {
    Request req;
    req.activation_seed = 0x3000u + static_cast<std::uint64_t>(i);
    futures.push_back(server.Submit(req));
  }
  for (int i = 0; i < kRequests; ++i) {
    Response resp = futures[static_cast<std::size_t>(i)].get();
    const std::uint64_t seed = 0x3000u + static_cast<std::uint64_t>(i);
    // All eight fused into one launch, each output still bit-identical
    // to its serial single-request run.
    EXPECT_EQ(resp.batch_width, kRequests) << "request " << i;
    ASSERT_EQ(resp.output, ref.at(seed)) << "request " << i;
  }
}

TEST(BatchServer, CoalescingWindowLaunchesPartialBatches) {
  ThreadGuard guard;
  SetParallelThreads(1);
  ServerOptions opts;
  opts.replicas = 1;
  opts.engine = SmallOptions();
  opts.max_batch = 64;  // never reachable with 3 requests
  opts.coalesce_window_seconds = 0.05;
  BatchServer server(SmallTransformer(), opts);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(server.Submit(Request{}));
  // The window expires with only 3 queued; the batch launches anyway —
  // a partial batch must never wait forever for a full one.
  for (auto& f : futures) {
    Response resp = f.get();
    EXPECT_GE(resp.batch_width, 1);
    EXPECT_LE(resp.batch_width, 3);
  }
}

// Regression: with queue_capacity < max_batch the seal threshold must
// clamp to the capacity — a capacity-full queue is as fused as the
// server can get, so it must launch immediately instead of stalling
// out the whole coalescing window on an unreachable max_batch.
TEST(BatchServer, WindowSealClampsToQueueCapacity) {
  ThreadGuard guard;
  SetParallelThreads(1);
  ServerOptions opts;
  opts.replicas = 1;
  opts.engine = SmallOptions();
  opts.queue_capacity = 2;
  opts.max_batch = 8;          // unreachable: Submit blocks at 2
  opts.coalesce_window_seconds = 5.0;  // would dominate if waited out
  BatchServer server(SmallTransformer(), opts);
  const double t0 = NowSeconds();
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(server.Submit(Request{}));
  for (auto& f : futures) {
    EXPECT_LE(f.get().batch_width, 2);
  }
  // Unfixed, every launch waits the full 5 s window (>= 10 s total);
  // sealed-at-capacity launches finish in milliseconds.
  EXPECT_LT(NowSeconds() - t0, 4.0);
}

// Regression (TSan-covered): Drain must re-check completed == submitted
// under the queue mutex on every wakeup, so a Submit racing the wait
// can never let Drain return with that request still in flight.
// Hammered here with concurrent submitters + concurrent drainers; every
// Drain return asserts that all futures whose submission
// happened-before the Drain call are already resolved.
TEST(BatchServer, DrainNeverReturnsEarlyUnderConcurrentSubmits) {
  ThreadGuard guard;
  SetParallelThreads(2);
  constexpr int kSubmitters = 3;
  constexpr int kPerSubmitter = 6;

  ServerOptions opts;
  opts.replicas = 2;
  opts.engine = SmallOptions();
  opts.max_batch = 4;
  BatchServer server(SmallTransformer(), opts);

  shflbw::Mutex futures_mu;
  std::vector<std::future<Response>> futures;
  std::atomic<bool> done{false};

  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        Request req;
        req.activation_seed =
            0x4000u + static_cast<std::uint64_t>(t * 100 + i);
        std::future<Response> fut = server.Submit(req);
        shflbw::MutexLock lock(futures_mu);
        futures.push_back(std::move(fut));
      }
    });
  }

  std::thread drainer([&] {
    while (!done.load()) {
      // Snapshot the futures submitted so far, then Drain: when Drain
      // returns, every one of them must already be resolved (an early
      // return would surface here as a non-ready future).
      std::vector<std::size_t> snapshot_ids;
      {
        shflbw::MutexLock lock(futures_mu);
        for (std::size_t i = 0; i < futures.size(); ++i) {
          snapshot_ids.push_back(i);
        }
      }
      server.Drain();
      shflbw::MutexLock lock(futures_mu);
      for (std::size_t i : snapshot_ids) {
        EXPECT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
                  std::future_status::ready)
            << "Drain returned with request " << i << " still in flight";
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
            static_cast<std::uint64_t>(kSubmitters * kPerSubmitter));
  EXPECT_EQ(stats.completed, stats.submitted);
  shflbw::MutexLock lock(futures_mu);
  for (auto& f : futures) EXPECT_GT(f.get().output.size(), 0u);
}

// The latency split must keep summing to submit-to-completion when
// requests are coalesced: queue_seconds stops at coalesce (batch-seal)
// time — including any coalescing-window wait — retry_seconds is 0 on
// this unfaulted path, and run_seconds covers the fused launch.
TEST(BatchServer, CoalescedLatencySplitSumsToSubmitToCompletion) {
  ThreadGuard guard;
  SetParallelThreads(2);
  ServerOptions opts;
  opts.replicas = 1;
  opts.engine = SmallOptions();
  opts.max_batch = 4;
  opts.coalesce_window_seconds = 0.02;
  BatchServer server(SmallTransformer(), opts);
  server.Warmup();

  const double t_submit = NowSeconds();
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(server.Submit(Request{}));
  for (auto& f : futures) {
    Response resp = f.get();
    const double elapsed = NowSeconds() - t_submit;
    EXPECT_GE(resp.queue_seconds, 0.0);
    EXPECT_EQ(resp.retry_seconds, 0.0);  // no faults injected
    EXPECT_GT(resp.run_seconds, 0.0);
    // queue + retry + run covers exactly submit -> completion, so it
    // can never exceed the externally observed submit -> get() span
    // (get() adds only wakeup latency on top).
    EXPECT_LE(resp.queue_seconds + resp.retry_seconds + resp.run_seconds,
              elapsed + 1e-3);
  }
}

TEST(BatchServer, LatencyBreakdownIsSane) {
  ThreadGuard guard;
  SetParallelThreads(2);
  ServerOptions opts;
  opts.replicas = 2;
  opts.engine = SmallOptions();
  BatchServer server(SmallTransformer(), opts);
  server.Warmup();
  Response resp = server.Submit(Request{}).get();
  EXPECT_GE(resp.queue_seconds, 0.0);
  EXPECT_GT(resp.run_seconds, 0.0);
  EXPECT_GE(resp.replica, 0);
  EXPECT_LT(resp.replica, 2);
}

}  // namespace
}  // namespace runtime
}  // namespace shflbw
