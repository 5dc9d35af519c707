// Fork-join parallelism for the functional kernel simulators.
//
// The paper's kernels expose their parallelism as independent output
// tiles: every (row-group x column-tile) pair can retire on any SM in
// any order because output regions are disjoint (§4.1). ParallelFor is
// the CPU analogue — a work queue of [begin, end) index chunks drained
// by a team of std::threads. Callers must guarantee that distinct
// indices touch disjoint output, which also makes the parallel result
// bit-identical to the serial one.
#pragma once

#include <cstdint>
#include <functional>

namespace shflbw {

/// Number of worker threads ParallelFor will use, resolved in priority
/// order: SetParallelThreads override > SHFLBW_NUM_THREADS env var >
/// std::thread::hardware_concurrency() (never less than 1).
int ParallelThreadCount();

/// Programmatic thread-count override (takes precedence over the env
/// var). Pass 0 to clear the override and return to env/auto detection.
/// Used by benchmarks and the determinism tests to sweep thread counts.
///
/// Contract: the argument is clamped to [0, 1024]. Negative values are
/// treated as 0 (clear the override, never an error), and values above
/// 1024 are capped — the same bound applied to SHFLBW_NUM_THREADS — so
/// no caller can demand an absurd worker pool. The effective count
/// ParallelThreadCount() returns is therefore always >= 1.
void SetParallelThreads(int n);

/// Runs fn over [begin, end) split into chunks of at most `grain`
/// indices. Chunks are handed out dynamically (atomic counter), so the
/// schedule load-balances ragged work; fn(lo, hi) receives a half-open
/// subrange. Runs serially (on the calling thread, no pool traffic) when
/// the resolved thread count is 1 or the range fits in a single chunk.
/// The first exception thrown by any chunk is rethrown on the caller.
///
/// Workers come from a process-wide lazily-grown persistent pool: the
/// first region that asks for N threads spawns the missing workers, and
/// they park on a condition variable between regions. This removes the
/// per-call spawn/join cost the runtime engine would otherwise pay per
/// layer across the many small kernel launches a multi-layer inference
/// run issues. Thread-count changes between calls still
/// work (a region only claims as many workers as it resolved); nested
/// ParallelFor calls from inside a region run serially on the calling
/// worker, so kernels stay composable with outer-level parallelism.
///
/// Concurrent callers partition the pool instead of serializing: each
/// region claims a disjoint subset of the idle workers at entry, capped
/// at its proportional share max(1, pool_capacity / active_regions), so
/// R simultaneous callers (e.g. BatchServer replicas) genuinely run
/// side by side on ~capacity/R workers each. A region that finds the
/// pool fully claimed runs on its calling thread alone; shares
/// rebalance at every region entry, so short frequent regions converge
/// to the proportional split. Outputs stay bit-identical to serial
/// regardless of how workers are partitioned, because chunk index — not
/// worker identity — determines what is computed.
///
/// Liveness: every parallel region registers a heartbeat slot in
/// obs::GlobalHeartbeats() ("parallel_for") and beats it once per
/// retired chunk, so a watchdog (obs/watchdog.h) can distinguish a
/// region wedged inside kernel code from a scheduler stall. Serial
/// fallbacks publish nothing.
void ParallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 const std::function<void(std::int64_t, std::int64_t)>& fn);

/// Point-in-time view of the process-wide worker pool, for telemetry
/// (obs::Telemetry publishes these as gauges). Cheap — one acquisition
/// of the pool mutex (rank kLockRankPool, the OUTERMOST rank; see
/// common/thread_annotations.h for the global order); safe to call at
/// any time.
struct PoolStats {
  /// Workers spawned so far (the pool never shrinks).
  int workers = 0;
  /// ParallelFor regions currently executing inside the pool.
  int active_regions = 0;
  /// Total parallel regions the pool has run since process start
  /// (serial fallbacks — single-chunk or nested calls — not counted).
  std::uint64_t regions_entered = 0;
};

PoolStats GetPoolStats();

}  // namespace shflbw
