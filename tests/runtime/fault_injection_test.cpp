// Fault-injection contract: verdicts are a pure function of
// (seed, site, ordinal) so runs replay identically, the failure budget
// provably bounds injected faults, a failed pack leaves the shared
// cache untouched, and the BatchServer's bounded retry-with-backoff
// recovers every request bit-identically with zero lost or duplicated
// responses (submitted == completed + shed).
#include <future>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
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

std::vector<bool> FailurePattern(const FaultInjectorOptions& opts, int n) {
  FaultInjector injector(opts);
  std::vector<bool> fired;
  for (int i = 0; i < n; ++i) {
    bool threw = false;
    try {
      injector.OnKernelLaunch();
    } catch (const TransientFault&) {
      threw = true;
    }
    fired.push_back(threw);
  }
  return fired;
}

TEST(FaultInjector, VerdictsAreDeterministicInSeedAndOrdinal) {
  FaultInjectorOptions opts;
  opts.launch_failure_rate = 0.5;
  const std::vector<bool> a = FailurePattern(opts, 128);
  const std::vector<bool> b = FailurePattern(opts, 128);
  EXPECT_EQ(a, b);  // same seed: bit-identical failure set

  opts.seed ^= 0xdeadbeefULL;
  const std::vector<bool> c = FailurePattern(opts, 128);
  EXPECT_NE(a, c);  // different seed: different (valid) schedule

  // Rate extremes short-circuit: never / always (budget permitting).
  opts.launch_failure_rate = 0.0;
  for (bool f : FailurePattern(opts, 64)) EXPECT_FALSE(f);
  opts.launch_failure_rate = 1.0;
  for (bool f : FailurePattern(opts, 64)) EXPECT_TRUE(f);
}

TEST(FaultInjector, FailureBudgetBoundsInjectedFaults) {
  FaultInjectorOptions opts;
  opts.launch_failure_rate = 1.0;
  opts.pack_failure_rate = 1.0;
  opts.max_failures = 3;
  FaultInjector injector(opts);
  int thrown = 0;
  for (int i = 0; i < 32; ++i) {
    try {
      (i % 2 == 0) ? injector.OnKernelLaunch() : injector.OnPack();
    } catch (const TransientFault&) {
      ++thrown;
    }
  }
  // The budget is shared across sites and strictly enforced: after it
  // is spent the injector goes quiet forever.
  EXPECT_EQ(thrown, 3);
  EXPECT_EQ(injector.total_failures(), 3u);
  EXPECT_EQ(injector.launches(), 16u);
  EXPECT_EQ(injector.packs(), 16u);
}

TEST(FaultInjector, RejectsInvalidOptions) {
  FaultInjectorOptions bad;
  bad.launch_failure_rate = 1.5;
  EXPECT_THROW(FaultInjector{bad}, Error);
  bad = {};
  bad.pack_failure_rate = -0.1;
  EXPECT_THROW(FaultInjector{bad}, Error);
  bad = {};
  bad.launch_delay_seconds = -1;
  EXPECT_THROW(FaultInjector{bad}, Error);
}

TEST(Engine, FailedPackLeavesCacheUntouchedAndRetryRecovers) {
  ThreadGuard guard;
  SetParallelThreads(1);

  // Reference: no injector.
  Matrix<float> ref;
  {
    Engine engine(SmallTransformer(), SmallOptions());
    ref = engine.Run().output;
  }

  FaultInjectorOptions fi;
  fi.pack_failure_rate = 1.0;
  fi.max_failures = 1;
  EngineOptions opts = SmallOptions();
  opts.fault_injector = std::make_shared<FaultInjector>(fi);
  Engine engine(SmallTransformer(), opts);
  // First run hits the injected pack failure before any cache mutation.
  EXPECT_THROW(engine.Run(), TransientFault);
  EXPECT_EQ(engine.cache().TotalPacks(), 0u);
  // Budget spent: the clean re-execution packs everything and the
  // output is bit-identical to the unfaulted engine.
  RunResult run = engine.Run();
  EXPECT_GT(run.packs_performed, 0u);
  ASSERT_EQ(run.output, ref);
}

TEST(Engine, InjectedLaunchDelaysSlowExecutionDeterministically) {
  ThreadGuard guard;
  SetParallelThreads(1);
  FaultInjectorOptions fi;
  fi.launch_delay_rate = 1.0;
  fi.launch_delay_seconds = 0.01;
  EngineOptions opts = SmallOptions();
  opts.fault_injector = std::make_shared<FaultInjector>(fi);
  Engine engine(SmallTransformer(), opts);
  (void)engine.Run();  // pack + first pass
  const double t0 = NowSeconds();
  const RunResult run = engine.Run();
  const double wall = NowSeconds() - t0;
  // 4 transformer layers, 10 ms injected per launch.
  EXPECT_GE(wall, 0.03);
  // The delays fall outside the kernels, so overhead_seconds (the
  // call's wall time minus its kernel time) carries them.
  EXPECT_GE(run.overhead_seconds, 0.03);
  EXPECT_LE(run.kernel_seconds + run.overhead_seconds, wall);
  EXPECT_EQ(opts.fault_injector->launch_delays(),
            opts.fault_injector->launches());
  EXPECT_EQ(opts.fault_injector->total_failures(), 0u);
}

// The acceptance test of the harness: under injected transient launch
// faults the server's bounded retry-with-backoff recovers every
// request — zero lost, zero duplicated, outputs bit-identical to an
// unfaulted serial engine — and the books balance.
TEST(BatchServer, RetryWithBackoffRecoversAllRequestsBitIdentically) {
  ThreadGuard guard;
  constexpr int kRequests = 12;

  SetParallelThreads(1);
  std::map<std::uint64_t, Matrix<float>> ref;
  {
    Engine engine(SmallTransformer(), SmallOptions());
    for (int i = 0; i < kRequests; ++i) {
      const std::uint64_t seed = 0x9000u + static_cast<std::uint64_t>(i);
      ref.emplace(seed, engine.Run(seed).output);
    }
  }

  SetParallelThreads(2);
  FaultInjectorOptions fi;
  fi.launch_failure_rate = 0.2;
  // Budget 3 < max_retries 4: even if every injected fault lands on the
  // same batch consecutively, the retry loop outlasts the injector, so
  // recovery is guaranteed (and bounded), not probabilistic.
  fi.max_failures = 3;
  auto injector = std::make_shared<FaultInjector>(fi);

  ServerOptions opts;
  opts.replicas = 2;
  opts.max_batch = 3;
  opts.engine = SmallOptions();
  opts.engine.fault_injector = injector;
  opts.retry.max_retries = 4;
  opts.retry.backoff_seconds = 1e-4;
  BatchServer server(SmallTransformer(), opts);
  server.Warmup();

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < kRequests; ++i) {
    Request req;
    req.activation_seed = 0x9000u + static_cast<std::uint64_t>(i);
    futures.push_back(server.Submit(req));
  }
  server.Drain();

  for (int i = 0; i < kRequests; ++i) {
    Response resp = futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(resp.status, ResponseStatus::kOk);
    EXPECT_GE(resp.retries, 0);
    // Retry accounting: retry_seconds carries the failed attempts +
    // backoff of a retried launch (and only then), run_seconds covers
    // just the final successful attempt, so the split sums exactly —
    // retried or not.
    if (resp.retries > 0) {
      EXPECT_GT(resp.retry_seconds, 0.0) << "request " << i;
    } else {
      EXPECT_EQ(resp.retry_seconds, 0.0) << "request " << i;
    }
    EXPECT_GT(resp.run_seconds, 0.0);
    const std::uint64_t seed = 0x9000u + static_cast<std::uint64_t>(i);
    ASSERT_EQ(resp.output, ref.at(seed)) << "request " << i;
  }

  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed);
  EXPECT_EQ(stats.failed, 0u);
  // Every injected fault was absorbed by exactly one retry.
  EXPECT_EQ(stats.retries, injector->total_failures());
  EXPECT_GE(injector->total_failures(), 1u);
}

TEST(BatchServer, ExhaustedRetriesSurfaceTheFaultWithoutLosingAccounting) {
  ThreadGuard guard;
  SetParallelThreads(1);
  FaultInjectorOptions fi;
  fi.launch_failure_rate = 1.0;  // unbounded: every attempt fails
  ServerOptions opts;
  opts.replicas = 1;
  opts.engine = SmallOptions();
  opts.engine.fault_injector = std::make_shared<FaultInjector>(fi);
  opts.retry.max_retries = 1;
  opts.retry.backoff_seconds = 1e-4;
  BatchServer server(SmallTransformer(), opts);

  std::future<Response> fut = server.Submit(Request{});
  EXPECT_THROW(fut.get(), TransientFault);
  server.Drain();  // failed batches still retire — Drain must not hang
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.retries, 1u);  // one retry attempted, then surfaced
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed);
}

}  // namespace
}  // namespace runtime
}  // namespace shflbw
