// ParallelFor contract tests: full coverage of the index range, chunk
// bounds respecting grain, serial fallback, exception propagation, and
// the thread-count resolution order (override > env > hardware).
#include <atomic>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace shflbw {
namespace {

/// RAII guard: clears the programmatic override on scope exit so tests
/// cannot leak a pinned thread count into each other.
struct ThreadGuard {
  ~ThreadGuard() { SetParallelThreads(0); }
};

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadGuard guard;
  for (int threads : {1, 2, 8}) {
    SetParallelThreads(threads);
    std::vector<std::atomic<int>> hits(1000);
    ParallelFor(0, 1000, 7, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      }
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at " << threads
                                   << " threads";
    }
  }
}

TEST(ParallelFor, ChunksNeverExceedGrain) {
  ThreadGuard guard;
  SetParallelThreads(4);
  std::atomic<bool> ok{true};
  ParallelFor(5, 103, 10, [&](std::int64_t lo, std::int64_t hi) {
    if (hi - lo > 10 || lo < 5 || hi > 103) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(ParallelFor, EmptyAndReversedRangesAreNoOps) {
  std::atomic<int> calls{0};
  ParallelFor(10, 10, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  ParallelFor(10, 3, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, SingleThreadRunsWholeRangeInOneCall) {
  ThreadGuard guard;
  SetParallelThreads(1);
  int calls = 0;
  std::int64_t seen_lo = -1, seen_hi = -1;
  ParallelFor(3, 50, 4, [&](std::int64_t lo, std::int64_t hi) {
    ++calls;
    seen_lo = lo;
    seen_hi = hi;
  });
  // Serial fallback ignores grain: one call covering the full range.
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen_lo, 3);
  EXPECT_EQ(seen_hi, 50);
}

TEST(ParallelFor, ExceptionPropagatesToCaller) {
  ThreadGuard guard;
  for (int threads : {1, 4}) {
    SetParallelThreads(threads);
    EXPECT_THROW(
        ParallelFor(0, 100, 1,
                    [&](std::int64_t lo, std::int64_t hi) {
                      if (lo <= 42 && 42 < hi) {
                        throw std::runtime_error("boom");
                      }
                    }),
        std::runtime_error);
  }
}

TEST(ParallelFor, PersistentWorkersAreReused) {
  ThreadGuard guard;
  SetParallelThreads(4);
  // Two regions at the same thread count must draw on the same parked
  // workers: the union of participating thread ids over both calls stays
  // within the resolved team size (caller + 3 workers). A fork-join
  // implementation could show up to 7 distinct ids here.
  shflbw::Mutex mu;
  std::set<std::thread::id> ids;
  auto collect = [&](std::int64_t, std::int64_t) {
    shflbw::MutexLock lock(mu);
    ids.insert(std::this_thread::get_id());
  };
  for (int call = 0; call < 2; ++call) {
    ParallelFor(0, 64, 1, collect);
  }
  EXPECT_LE(ids.size(), 4u);
}

TEST(ParallelFor, RegionNeverExceedsResolvedThreadCount) {
  ThreadGuard guard;
  // Grow the pool large, then shrink the resolved count: the smaller
  // region must not be joined by the extra parked workers.
  SetParallelThreads(8);
  ParallelFor(0, 256, 1, [](std::int64_t, std::int64_t) {});
  SetParallelThreads(3);
  shflbw::Mutex mu;
  std::set<std::thread::id> ids;
  ParallelFor(0, 256, 1, [&](std::int64_t, std::int64_t) {
    shflbw::MutexLock lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_LE(ids.size(), 3u);
}

TEST(ParallelFor, NestedCallsRunSerially) {
  ThreadGuard guard;
  SetParallelThreads(4);
  // A ParallelFor issued from inside a region must not deadlock on the
  // pool; it degrades to a serial call on the issuing thread.
  std::atomic<int> inner_total{0};
  ParallelFor(0, 8, 1, [&](std::int64_t, std::int64_t) {
    ParallelFor(0, 10, 2, [&](std::int64_t lo, std::int64_t hi) {
      inner_total.fetch_add(static_cast<int>(hi - lo));
    });
  });
  EXPECT_EQ(inner_total.load(), 80);
}

TEST(ThreadCount, OverrideBeatsEnvBeatsHardware) {
  ThreadGuard guard;
  ASSERT_EQ(setenv("SHFLBW_NUM_THREADS", "3", 1), 0);
  EXPECT_EQ(ParallelThreadCount(), 3);
  SetParallelThreads(5);
  EXPECT_EQ(ParallelThreadCount(), 5);
  SetParallelThreads(0);
  EXPECT_EQ(ParallelThreadCount(), 3);
  ASSERT_EQ(unsetenv("SHFLBW_NUM_THREADS"), 0);
  EXPECT_GE(ParallelThreadCount(), 1);
}

TEST(ParallelFor, ConcurrentCallersDoNotDeadlock) {
  ThreadGuard guard;
  SetParallelThreads(4);
  // Several std::threads hammering ParallelFor simultaneously: every
  // region must complete with full index coverage, regardless of how
  // the pool partitions workers between them.
  constexpr int kCallers = 4;
  constexpr int kIters = 50;
  std::vector<std::int64_t> sums(kCallers, 0);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int iter = 0; iter < kIters; ++iter) {
        std::atomic<std::int64_t> sum{0};
        ParallelFor(0, 500, 7, [&](std::int64_t lo, std::int64_t hi) {
          std::int64_t local = 0;
          for (std::int64_t i = lo; i < hi; ++i) local += i;
          sum.fetch_add(local, std::memory_order_relaxed);
        });
        sums[static_cast<std::size_t>(t)] = sum.load();
      }
    });
  }
  for (std::thread& th : callers) th.join();
  for (int t = 0; t < kCallers; ++t) {
    EXPECT_EQ(sums[static_cast<std::size_t>(t)], 500 * 499 / 2);
  }
}

TEST(ParallelFor, ConcurrentRegionsGetDisjointWorkerPartitions) {
  ThreadGuard guard;
  // Grow the pool to 7 workers first so two subsequent 4-thread regions
  // can each claim a real partition (3 workers apiece).
  SetParallelThreads(8);
  ParallelFor(0, 256, 1, [](std::int64_t, std::int64_t) {});
  SetParallelThreads(4);

  // Two callers enter regions that overlap in time (each chunk spins
  // until both regions have started), then record which threads ran
  // their chunks. The partitions must be disjoint: a pool worker serves
  // exactly one region at a time.
  std::atomic<int> regions_started{0};
  std::atomic<bool> region_running[2] = {false, false};
  shflbw::Mutex mu;
  std::set<std::thread::id> ids[2];
  std::thread::id caller_ids[2];
  std::vector<std::thread> callers;
  for (int t = 0; t < 2; ++t) {
    callers.emplace_back([&, t] {
      caller_ids[t] = std::this_thread::get_id();
      // A region counts as started once its first chunk runs, i.e. once
      // it holds its workers; counting before ParallelFor would let one
      // region finish and release its workers before the other claims
      // any, and the other could then rightly reuse them. Every chunk
      // waits for both regions, so neither can finish first.
      ParallelFor(0, 64, 1, [&](std::int64_t, std::int64_t) {
        if (!region_running[t].exchange(true)) regions_started.fetch_add(1);
        while (regions_started.load() < 2) std::this_thread::yield();
        shflbw::MutexLock lock(mu);
        ids[t].insert(std::this_thread::get_id());
      });
    });
  }
  for (std::thread& th : callers) th.join();

  // Strip each region's own calling thread; what remains are the pool
  // workers assigned to it.
  ids[0].erase(caller_ids[0]);
  ids[1].erase(caller_ids[1]);
  for (std::thread::id id : ids[0]) {
    EXPECT_EQ(ids[1].count(id), 0u)
        << "worker served two concurrent regions";
  }
  // Neither region may exceed its resolved team (caller + 3 workers).
  EXPECT_LE(ids[0].size(), 3u);
  EXPECT_LE(ids[1].size(), 3u);
}

TEST(ParallelFor, ConcurrentOutputsAreBitIdenticalToSerial) {
  ThreadGuard guard;
  // Reference: serial execution.
  SetParallelThreads(1);
  constexpr int kN = 4096;
  std::vector<float> ref(kN);
  auto fill = [](std::vector<float>& out, float scale) {
    ParallelFor(0, kN, 64, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        // Non-trivial float arithmetic: any change in evaluation order
        // or partitioning that altered per-index work would show up.
        float x = static_cast<float>(i) * scale;
        for (int k = 0; k < 8; ++k) x = x * 1.0009765625f + 0.5f;
        out[static_cast<std::size_t>(i)] = x;
      }
    });
  };
  fill(ref, 0.25f);

  SetParallelThreads(4);
  constexpr int kCallers = 3;
  std::vector<std::vector<float>> outs(kCallers,
                                       std::vector<float>(kN, 0.0f));
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int iter = 0; iter < 10; ++iter) fill(outs[t], 0.25f);
    });
  }
  for (std::thread& th : callers) th.join();
  for (int t = 0; t < kCallers; ++t) {
    ASSERT_EQ(outs[static_cast<std::size_t>(t)], ref) << "caller " << t;
  }
}

TEST(ThreadCount, NegativeOverrideIsClampedToNoOverride) {
  ThreadGuard guard;
  SetParallelThreads(5);
  EXPECT_EQ(ParallelThreadCount(), 5);
  // Negative means "clear the override", never an error or a bogus
  // count (the documented [0, 1024] clamp).
  SetParallelThreads(-3);
  EXPECT_GE(ParallelThreadCount(), 1);
  EXPECT_NE(ParallelThreadCount(), -3);
  SetParallelThreads(1 << 20);  // absurd request: capped at 1024
  EXPECT_EQ(ParallelThreadCount(), 1024);
}

TEST(ThreadCount, MalformedEnvIsIgnored) {
  ThreadGuard guard;
  for (const char* bad : {"", "zero", "-4", "0"}) {
    ASSERT_EQ(setenv("SHFLBW_NUM_THREADS", bad, 1), 0);
    EXPECT_GE(ParallelThreadCount(), 1) << "env=\"" << bad << "\"";
  }
  ASSERT_EQ(unsetenv("SHFLBW_NUM_THREADS"), 0);
}

}  // namespace
}  // namespace shflbw
