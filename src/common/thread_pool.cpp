#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/thread_annotations.h"
#include "obs/watchdog.h"

namespace shflbw {
namespace {

std::atomic<int> g_thread_override{0};

int HardwareThreads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

int EnvThreads() {
  // getenv without setenv anywhere in the process is benign; the
  // NOLINT is for concurrency-mt-unsafe, which cannot see that no
  // writer exists.
  const char* s = std::getenv("SHFLBW_NUM_THREADS");  // NOLINT(concurrency-mt-unsafe)
  if (s == nullptr || *s == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || v < 1) return 0;  // malformed or non-positive: ignore
  return static_cast<int>(std::min<long>(v, 1024));
}

/// One parallel region: a chunked [begin, end) range drained through an
/// atomic claim counter by the caller and any pool workers assigned to
/// its partition.
struct Job {
  const std::function<void(std::int64_t, std::int64_t)>* fn = nullptr;
  std::int64_t begin = 0;
  std::int64_t grain = 1;
  std::int64_t end = 0;
  std::int64_t chunks = 0;
  std::atomic<std::int64_t> next{0};
  std::atomic<bool> failed{false};
  Mutex error_mu;
  std::exception_ptr error SHFLBW_GUARDED_BY(error_mu);
  /// Pool workers currently assigned to this job. Guarded by the pool
  /// mutex (WorkerPool::mu_ — not nameable from here, so no
  /// SHFLBW_GUARDED_BY; every access site sits inside a WorkerPool
  /// method that REQUIRES(mu_)). The caller waits for it to reach zero
  /// before returning, so no worker still references the
  /// stack-allocated Job afterwards.
  int attached = 0;
  /// Region heartbeat slot in obs::GlobalHeartbeats() (-1 = none):
  /// every retired chunk beats it, so a wedged region shows a stale
  /// heartbeat and the watchdog can tell "stuck in a kernel" from
  /// "stuck in the scheduler". Registered/armed by ParallelFor.
  int heartbeat_slot = -1;

  void Drain() {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::int64_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      const std::int64_t lo = begin + c * grain;
      const std::int64_t hi = std::min(end, lo + grain);
      try {
        (*fn)(lo, hi);
      } catch (...) {
        MutexLock lock(error_mu);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
      obs::GlobalHeartbeats().Beat(heartbeat_slot, NowSeconds());
    }
  }

  /// First captured exception, if any. Called by ParallelFor after the
  /// pool reports attached == 0 (so no worker is still writing).
  std::exception_ptr TakeError() SHFLBW_EXCLUDES(error_mu) {
    MutexLock lock(error_mu);
    return error;
  }
};

/// True on threads that must not re-enter the pool: pool workers (a
/// nested ParallelFor inside a chunk would deadlock waiting on workers
/// that are all busy in the outer region) and callers already inside a
/// parallel region on this thread.
thread_local bool t_in_parallel_region = false;

/// Lazily-grown persistent worker pool with region partitioning.
/// Workers are spawned the first time a region asks for them, then
/// parked between regions, so the many small kernel launches a
/// multi-layer inference run issues pay no spawn or join.
///
/// Concurrent ParallelFor regions do NOT serialize: each region claims
/// a disjoint subset of the idle workers at entry — its partition — and
/// only those workers drain its chunks. The claim is capped at the
/// region's proportional share of the pool, max(1, capacity / active
/// regions), so R concurrent callers (the BatchServer's replicas) each
/// keep roughly capacity/R workers instead of the first caller starving
/// the rest. A region that arrives while the pool is fully claimed
/// simply runs on its calling thread (its partition is empty) — regions
/// are short and frequent, so shares rebalance at the next region
/// entry. A worker serves exactly one job at a time, which is what
/// makes the partitions disjoint by construction.
///
/// Lock discipline: mu_ is rank kLockRankPool — the OUTERMOST rank —
/// but is never held while a chunk executes (both the caller and the
/// workers release it before Job::Drain), so kernel code runs
/// lock-free and may touch any other subsystem.
class WorkerPool {
 public:
  static WorkerPool& Instance() {
    static WorkerPool pool;
    return pool;
  }

  PoolStats Stats() SHFLBW_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    PoolStats s;
    s.workers = static_cast<int>(workers_.size());
    s.active_regions = active_regions_;
    s.regions_entered = regions_entered_;
    return s;
  }

  /// Runs `job` with up to `extra_workers` pool workers assisting the
  /// calling thread; fewer (possibly zero) join when other regions hold
  /// part of the pool. Returns once every chunk has retired and no
  /// assigned worker still references `job`.
  void Run(Job& job, int extra_workers) SHFLBW_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      ++active_regions_;
      ++regions_entered_;
      Grow(extra_workers);
      const int capacity = static_cast<int>(slots_.size());
      const int fair_share = std::max(1, capacity / active_regions_);
      int claim = std::min(extra_workers, fair_share);
      for (std::size_t i = 0; i < slots_.size() && claim > 0; ++i) {
        if (slots_[i].job == nullptr) {
          slots_[i].job = &job;
          ++job.attached;
          --claim;
        }
      }
    }
    cv_.NotifyAll();
    t_in_parallel_region = true;
    job.Drain();
    t_in_parallel_region = false;
    UniqueLock lock(mu_);
    // Reclaim workers that never woke up: their slot still points at
    // this job but `started` is false, so when they do wake the cleared
    // slot keeps them parked. The caller then only waits for workers
    // that actually entered the region (matters for tiny regions whose
    // chunks all retire before the wakeups land).
    for (Slot& slot : slots_) {
      if (slot.job == &job && !slot.started) {
        slot.job = nullptr;
        --job.attached;
      }
    }
    done_cv_.Wait(mu_, [&]() SHFLBW_REQUIRES(mu_) { return job.attached == 0; });
    --active_regions_;
  }

 private:
  /// Assignment slot of one worker: the job its partition belongs to
  /// (nullptr when idle) and whether the worker has woken up and
  /// entered that job. Guarded by mu_.
  struct Slot {
    Job* job = nullptr;
    bool started = false;
  };

  WorkerPool() = default;

  ~WorkerPool() {
    {
      MutexLock lock(mu_);
      stop_ = true;
    }
    cv_.NotifyAll();
    for (std::thread& th : workers_) th.join();
  }

  /// Spawns workers until `wanted` exist (never shrinks). Thread
  /// exhaustion degrades to however many workers spawned — the caller
  /// drains too, so the region still completes.
  void Grow(int wanted) SHFLBW_REQUIRES(mu_) {
    while (static_cast<int>(workers_.size()) < wanted) {
      try {
        const int index = static_cast<int>(workers_.size());
        slots_.resize(workers_.size() + 1);
        workers_.emplace_back([this, index] { WorkerLoop(index); });
      } catch (const std::system_error&) {
        slots_.resize(workers_.size());
        break;
      }
    }
  }

  void WorkerLoop(int index) SHFLBW_EXCLUDES(mu_) {
    t_in_parallel_region = true;  // nested ParallelFor runs serially
    UniqueLock lock(mu_);
    for (;;) {
      cv_.Wait(mu_, [&]() SHFLBW_REQUIRES(mu_) {
        return stop_ || slots_[static_cast<std::size_t>(index)].job != nullptr;
      });
      if (stop_) return;
      Job* job = slots_[static_cast<std::size_t>(index)].job;
      slots_[static_cast<std::size_t>(index)].started = true;
      lock.Unlock();
      job->Drain();
      lock.Lock();
      slots_[static_cast<std::size_t>(index)].job = nullptr;
      slots_[static_cast<std::size_t>(index)].started = false;
      if (--job->attached == 0) done_cv_.NotifyAll();
    }
  }

  /// Guards everything below; rank kLockRankPool (outermost — see the
  /// order table in common/thread_annotations.h).
  Mutex mu_{kLockRankPool};
  CondVar cv_;       // workers wait for an assignment
  CondVar done_cv_;  // callers wait for attached == 0
  /// Joined only by the destructor (process exit, single-threaded);
  /// grown under mu_.
  std::vector<std::thread> workers_ SHFLBW_GUARDED_BY(mu_);
  std::vector<Slot> slots_ SHFLBW_GUARDED_BY(mu_);  // slots_[i] is workers_[i]
  int active_regions_ SHFLBW_GUARDED_BY(mu_) = 0;   // concurrent Run calls
  std::uint64_t regions_entered_ SHFLBW_GUARDED_BY(mu_) = 0;  // lifetime total
  bool stop_ SHFLBW_GUARDED_BY(mu_) = false;
};

}  // namespace

int ParallelThreadCount() {
  const int forced = g_thread_override.load(std::memory_order_relaxed);
  if (forced > 0) return forced;
  const int env = EnvThreads();
  if (env > 0) return env;
  return HardwareThreads();
}

void SetParallelThreads(int n) {
  // Clamp to [0, 1024]: negative requests mean "no override" (0), and
  // the upper bound matches the env-var cap so neither path can demand
  // an absurd pool.
  g_thread_override.store(std::clamp(n, 0, 1024), std::memory_order_relaxed);
}

PoolStats GetPoolStats() { return WorkerPool::Instance().Stats(); }

void ParallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;
  const std::int64_t chunks = (end - begin + grain - 1) / grain;
  const int threads =
      static_cast<int>(std::min<std::int64_t>(ParallelThreadCount(), chunks));
  if (threads <= 1 || t_in_parallel_region) {
    fn(begin, end);
    return;
  }

  Job job;
  job.fn = &fn;
  job.begin = begin;
  job.grain = grain;
  job.end = end;
  job.chunks = chunks;
  // Publish a region heartbeat for the watchdog (obs/watchdog.h). A
  // full slot table degrades to slot -1, which every heartbeat op
  // ignores — liveness reporting must never gate the actual work.
  obs::HeartbeatRegistry& heartbeats = obs::GlobalHeartbeats();
  job.heartbeat_slot = heartbeats.Register("parallel_for");
  heartbeats.Arm(job.heartbeat_slot, NowSeconds());
  WorkerPool::Instance().Run(job, threads - 1);
  heartbeats.Unregister(job.heartbeat_slot);
  // Run() returned, so attached == 0 and no worker can still be
  // writing; the lock inside TakeError orders this read after the
  // failing worker's store.
  if (std::exception_ptr err = job.TakeError()) std::rethrow_exception(err);
}

}  // namespace shflbw
