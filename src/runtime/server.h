// Batch-serving layer on top of the inference engine: the serving-time
// shape of the paper's pitch. A BatchServer owns N Engine replicas of
// one model sharing a single PackedWeightCache (the pack phase is paid
// once, not once per replica), a bounded MPMC request queue, and one
// scheduler thread per replica. Underneath, concurrent replica Runs
// partition the persistent ParallelFor pool (common/thread_pool.h), so
// R replicas on a C-core box each execute kernels on ~C/R workers side
// by side instead of time-slicing behind a region lock.
//
// Cross-request fused batching: an idle replica coalesces up to
// `max_batch` queued requests into ONE Engine::RunBatched call — their
// activations pack into a single n*K-column matrix per layer, so K
// requests cost one kernel launch per layer instead of K. Fairness is
// FIFO: a batch is always the K oldest queued requests (never
// reordered), and `coalesce_window_seconds` bounds how long a partial
// batch may wait for company. Without a window a replica seals at most
// its share of the queue, ceil(queued / replicas), so a burst spreads
// over the replicas in shrinking widths instead of a few max_batch
// launches leaving the tail to wait behind them.
//
// Overload resilience (runtime/admission.h): requests carry a deadline
// and a QoS class; Submit/TrySubmit return a typed SubmitStatus, and a
// deadline the admission controller can prove unmeetable is rejected
// up front. Requests whose deadline expires while queued are shed at
// batch-seal time with a kDeadlineExceeded response instead of burning
// a fused launch on dead work (kCritical requests are exempt). Under
// sustained pressure a hysteresis controller degrades new batches down
// a ladder of quality-aware plans (DegradationPolicy::ladder_floors —
// all levels pack into the same shared cache, whose keys already
// include density/V), and upgrades back when slack returns; every
// Response records its plan_level and retained_ratio so degradation is
// observable and bounded. Transient faults (runtime/fault_injection.h)
// are retried with bounded backoff inside the scheduler loop.
//
// Determinism is preserved end to end: a request is a whole-model Run
// keyed by an activation seed, and its output matrix is bit-identical
// to running the same seed on a standalone single-threaded Engine
// *configured at the same ladder level* — no matter which replica
// served it, what else was in flight, or which requests it was fused
// with (RunBatched's per-column-block contract).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/statusz.h"
#include "obs/telemetry.h"
#include "obs/watchdog.h"
#include "runtime/admission.h"
#include "runtime/engine.h"
#include "runtime/fault_injection.h"

namespace shflbw {
namespace runtime {

struct ServerOptions {
  /// Engine replicas == scheduler threads.
  int replicas = 2;
  /// Bound of the request queue (requests admitted but not yet
  /// dispatched). Submit blocks when the queue is full — backpressure
  /// instead of unbounded memory growth.
  std::size_t queue_capacity = 64;
  /// Max requests a replica coalesces into one fused RunBatched launch
  /// (1 = classic one-request-per-launch serving). Coalescing is FIFO:
  /// the batch is always the oldest queued requests, in submission
  /// order. With no coalesce window a launch also takes at most
  /// ceil(queued / replicas) of them.
  int max_batch = 8;
  /// How long an idle replica holds a partial batch open waiting for
  /// more requests before launching it (0 = launch immediately with
  /// whatever is queued). A bounded window is the fairness knob: it
  /// caps the extra queue latency any request can pay toward someone
  /// else's fused launch, and shutdown cuts it short.
  double coalesce_window_seconds = 0.0;
  /// Options shared by every replica. `planner.autotune` is forced off:
  /// autotune re-ranks by wall-clock measurement, so replicas could
  /// diverge onto different plans and the shared-cache + bit-identical
  /// guarantees would silently break. With a degradation ladder the
  /// quality knobs (enabled / floor / min_retained_ratio) are overridden
  /// per level; the density/V ladders and every other knob carry over.
  EngineOptions engine;
  /// Deadline admission control (runtime/admission.h).
  AdmissionPolicy admission;
  /// Graceful quality degradation: ladder_floors non-empty compiles one
  /// quality-aware plan per floor and lets the hysteresis controller
  /// shift new batches between them under load. Empty = single plan,
  /// no degradation (the pre-overload server).
  DegradationPolicy degradation;
  /// Bounded retry-with-backoff for TransientFault from the engine
  /// (injected or backend-raised) inside the scheduler loop.
  RetryPolicy retry;
  /// Telemetry switches (obs/telemetry.h): latency histograms + kernel
  /// profiling (metrics, on by default) and per-request span tracing
  /// (tracing, off by default). The server builds one obs::Telemetry
  /// from these and shares it with every engine replica, so serving
  /// spans and kernel spans land in one trace and ServerStats,
  /// MetricsText() and DumpTrace() all read the same sink.
  obs::TelemetryOptions telemetry;
  /// Stall watchdog (obs/watchdog.h): when enabled, a polling thread
  /// watches the replica heartbeats (and the global ParallelFor region
  /// heartbeats); an armed replica silent for longer than the budget
  /// counts a stall, records a kStall flight event and — with a
  /// non-empty dump_path — writes the statusz + flight-recorder
  /// postmortem. The budget must exceed coalesce_window_seconds plus
  /// the longest legitimate launch.
  obs::WatchdogOptions watchdog;
};

/// Validates `opts` (1 <= replicas <= obs::HeartbeatRegistry::kMaxSlots,
/// queue_capacity >= 1, max_batch >= 1, coalesce window >= 0, admission
/// / degradation / retry knobs, and the ladder x force_format conflict),
/// throwing shflbw::Error with a descriptive message on the first
/// violation. The BatchServer constructor calls this; exposed so
/// callers can fail fast.
void ValidateServerOptions(const ServerOptions& opts);

/// One unit of work: a whole-model inference pass over the activation
/// stream seeded by `activation_seed` (the stand-in for a real
/// request's input tensor, as everywhere else in this repo).
struct Request {
  std::uint64_t activation_seed = 0xac71ULL;
  /// Deadline relative to submission; 0 = none. A request whose
  /// deadline passes while it queues is shed at batch-seal time
  /// (status kDeadlineExceeded) unless its QoS is kCritical.
  double deadline_seconds = 0;
  QoS qos = QoS::kStandard;
};

enum class ResponseStatus {
  kOk = 0,
  /// Shed at seal time: the deadline expired before a replica could
  /// launch it. `output` is empty; queue_seconds covers submit->shed.
  kDeadlineExceeded,
};

struct Response {
  std::uint64_t id = 0;    // submission order, dense from 0
  ResponseStatus status = ResponseStatus::kOk;
  int replica = -1;        // which replica served (or shed) it
  int batch_width = 1;     // requests fused into the launch that served it
  /// Ladder level this request was served at (0 = normal service).
  /// Outputs at a fixed (seed, plan_level) are bit-identical to a
  /// serial single-engine run at that level.
  int plan_level = 0;
  /// Min per-layer retained-score ratio of the serving plan — always
  /// >= the level's ladder floor. -1 when the server runs without a
  /// quality ladder and the plan was never quality-evaluated, and on
  /// shed responses (nothing was served).
  double retained_ratio = -1;
  /// Transient-fault retries the serving launch needed (0 normally).
  int retries = 0;
  Matrix<float> output;    // final layer output (bit-identical to serial)
  /// Latency split. queue_seconds stops at coalesce time (when the
  /// replica seals the batch this request joined — including any
  /// coalesce-window wait), retry_seconds covers the retry overhead of
  /// a faulted launch (failed attempts plus backoff sleeps — 0 on the
  /// common unfaulted path), and run_seconds covers the final
  /// (successful) fused launch only. The split is exact:
  /// queue_seconds + retry_seconds + run_seconds == submit-to-
  /// completion for every request, fused, retried or not.
  double queue_seconds = 0;  // submit -> batch sealed (dispatch)
  double retry_seconds = 0;  // dispatch -> final attempt start
  double run_seconds = 0;    // final attempt start -> completion
  /// Conversions the serving launch triggered (shared by every request
  /// in the fused batch; 0 in the warmed steady state).
  std::size_t packs_performed = 0;
};

/// Point-in-time server statistics: a snapshot Stats() composes from
/// the metrics registry (obs/metrics.h) and the protocol counters. The
/// registry (and its Prometheus exposition, BatchServer::MetricsText)
/// carries strictly more: latency histograms, per-kernel profiling
/// rows, planned-vs-measured drift.
struct ServerStats {
  std::uint64_t submitted = 0;  // admitted to the queue
  std::uint64_t completed = 0;  // resolved by a launch (ok or error)
  std::uint64_t shed = 0;       // deadline-expired, dropped at seal
  // Conservation law (after Drain): submitted == completed + shed.
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_deadline = 0;  // infeasible at admission
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t retries = 0;  // transient-fault retries across all batches
  std::uint64_t failed = 0;   // requests resolved with an exception
  std::vector<std::uint64_t> per_replica;  // completed, by replica
  std::vector<std::uint64_t> per_level;    // completed, by plan level
  int level = 0;  // controller's current ladder level
  std::uint64_t downshifts = 0;
  std::uint64_t upshifts = 0;
  double estimated_service_seconds = 0;  // admission EWMA / override
};

class BatchServer {
 public:
  explicit BatchServer(ModelDesc model, ServerOptions opts = {});

  /// Shuts down: drains everything already submitted, then joins the
  /// replica threads.
  ~BatchServer();

  BatchServer(const BatchServer&) = delete;
  BatchServer& operator=(const BatchServer&) = delete;

  /// The execution plan of ladder level 0 (normal service). Planning is
  /// deterministic and compiled in the constructor; reading it is safe
  /// while requests are in flight.
  const ExecutionPlan& Plan() const;

  /// The plan of one ladder level (0 <= level < levels()).
  const ExecutionPlan& PlanAt(int level) const;

  /// Number of ladder levels (1 when degradation is off).
  int levels() const;

  /// The quality floor of a ladder level (1.0-capped descending), or
  /// -1 when the server runs without a ladder.
  double LevelFloor(int level) const;

  /// Min per-layer retained ratio of a level's compiled plan (what
  /// every Response served at that level reports); -1 without a ladder.
  double LevelRetainedRatio(int level) const;

  /// Packs every weight every ladder level's plan selects through the
  /// shared cache, so the first served requests don't pay conversion
  /// latency (and a mid-overload downshift doesn't stall on a pack
  /// phase). Optional — the first Run of each (layer, level) packs on
  /// demand otherwise. Implemented as one blocking request per level
  /// through the regular queue, so it is safe to call at any time
  /// (engines are only ever touched by their own replica thread).
  void Warmup() SHFLBW_EXCLUDES(mu_);

  /// Enqueues a request; the future resolves when a replica finishes
  /// (or sheds) it. Blocks while the QoS class's queue share is at
  /// capacity. Returns kAccepted (with *out set), kRejectedShutdown
  /// (including producers that were blocked when Shutdown ran — they
  /// wake with this status instead of hanging), or
  /// kRejectedInfeasibleDeadline; *out is untouched on rejection.
  /// [[nodiscard]]: a dropped verdict is a silently lost rejection
  /// (lint rule nodiscard-status, tools/lint/).
  [[nodiscard]] SubmitStatus Submit(Request req, std::future<Response>* out)
      SHFLBW_EXCLUDES(mu_);

  /// Legacy blocking submit. Throws shflbw::Error on any rejection
  /// (shutdown, infeasible deadline); prefer the SubmitStatus overload.
  std::future<Response> Submit(Request req) SHFLBW_EXCLUDES(mu_);

  /// Non-blocking Submit: like Submit(req, out) but returns
  /// kRejectedQueueFull instead of waiting for space.
  [[nodiscard]] SubmitStatus TrySubmit(Request req,
                                       std::future<Response>* out)
      SHFLBW_EXCLUDES(mu_);

  /// Blocks until the server is idle: completed + shed == submitted,
  /// checked (and re-checked after every wakeup) under the queue mutex,
  /// so a submit landing while Drain is blocked can never slip between
  /// a stale check and the wait and let Drain() return with requests
  /// still in flight. Retirement is batch-atomic and happens after the
  /// batch's promises (served and shed alike) are resolved, so every
  /// future submitted before Drain is ready when it returns.
  void Drain() SHFLBW_EXCLUDES(mu_);

  /// Stops accepting new requests (blocked producers wake with
  /// kRejectedShutdown), drains the queue, joins the replica threads.
  /// Idempotent; called by the destructor.
  void Shutdown() SHFLBW_EXCLUDES(mu_);

  ServerStats Stats() const SHFLBW_EXCLUDES(mu_);
  int replicas() const { return static_cast<int>(engines_.size()); }
  const ServerOptions& options() const { return opts_; }
  const PackedWeightCache& cache() const { return *cache_; }

  /// The server's telemetry sink: the metrics registry every counter /
  /// histogram / profiling row lives in, and the span trace recorder.
  /// Shared with every engine replica.
  obs::Telemetry& telemetry() const { return *telemetry_; }

  /// Prometheus text exposition of the whole registry, with the
  /// point-in-time gauges (worker-pool state, ladder shift totals,
  /// admission estimate) refreshed first. Safe while serving.
  std::string MetricsText() const SHFLBW_EXCLUDES(mu_);

  /// Writes the recorded span trace as Chrome trace-event JSON —
  /// loadable at ui.perfetto.dev or chrome://tracing. Call after
  /// Drain() for a complete picture (recording is safe concurrently,
  /// but in-flight requests have unpublished spans). False when the
  /// path cannot be opened or tracing is compiled out.
  bool DumpTrace(const std::string& path) const;

  /// statusz: one structured snapshot of the whole process — build
  /// provenance, queue/occupancy, degradation ladder + shift history,
  /// per-replica scheduler state with heartbeat ages, weight-cache
  /// entries/bytes, worker-pool claims, watchdog state, flight-recorder
  /// fill, and the serving level's per-layer plan table with the
  /// measured-vs-modeled drift gauges. Safe while serving (briefly
  /// takes the queue mutex, then reads lock-free/obs state).
  [[nodiscard]] obs::StatusReport Status() const SHFLBW_EXCLUDES(mu_);

  /// Status() rendered human-readable / as JSON.
  [[nodiscard]] std::string StatusText() const SHFLBW_EXCLUDES(mu_);
  [[nodiscard]] std::string StatusJson() const SHFLBW_EXCLUDES(mu_);

  /// Writes `<path_base>.txt` + `<path_base>.json`; false if either
  /// write failed. This is the "explicit request" leg of the postmortem
  /// triad (stall and fatal dumps reuse it via the watchdog callback).
  [[nodiscard]] bool DumpStatus(const std::string& path_base) const
      SHFLBW_EXCLUDES(mu_);

  /// Dumps the flight-recorder ring as JSON; false on I/O failure.
  [[nodiscard]] bool DumpFlightRecorder(const std::string& path) const;

  /// The replica-thread heartbeat table (ParallelFor regions publish
  /// into obs::GlobalHeartbeats() instead).
  const obs::HeartbeatRegistry& heartbeats() const { return heartbeats_; }

  /// The stall watchdog, or nullptr when ServerOptions::watchdog is
  /// disabled (or after Shutdown). The pointer is stable until
  /// Shutdown moves it out.
  const obs::Watchdog* watchdog() const SHFLBW_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return watchdog_.get();
  }

 private:
  struct Pending {
    Request req;
    std::uint64_t id = 0;
    double submit_time = 0;
    /// Warmup pins its per-level requests to a level (>= 0) and they
    /// run as single-request batches; -1 = controller decides.
    int force_level = -1;
    std::promise<Response> promise;
  };

  /// One scheduler decision: its flight event plus, for a decision
  /// that closes spans, the start of its own span (< 0: none) and the
  /// requests whose spans it closes (queue spans at the seal, run spans
  /// at completion). Every span ends at event.t_seconds.
  struct Decision {
    obs::FlightEvent event;
    double span_begin = -1;
    std::span<const Pending> requests;
  };

  /// What one seal consumed: requests[0, width) run as one fused
  /// launch, requests[width, end) were shed. Owned by the replica
  /// thread that sealed it, from seal to retirement.
  struct Batch {
    std::vector<Pending> requests;
    std::size_t width = 0;
    std::uint64_t id = 0;
    int replica = 0;
    int level = 0;
    double seal_time = 0;   // also the dispatch time of the launch
    int attempts = 0;       // transient-fault retries of the launch
    double final_attempt_start = 0;
    double done = 0;
    bool failed = false;

    std::span<Pending> Launched() { return {requests.data(), width}; }
    std::span<Pending> Shed() { return std::span(requests).subspan(width); }
    /// A decision about this batch at time `t`, carrying its id,
    /// replica, level and width.
    Decision Decide(obs::FlightKind kind, double t) const;
  };

  /// The one admission path behind Submit (`block`: wait for queue
  /// space), TrySubmit and Warmup (`force_level` >= 0). Counts and
  /// records the verdict; sets *out only when accepted.
  [[nodiscard]] SubmitStatus Admit(Request req, bool block, int force_level,
                                   std::future<Response>* out)
      SHFLBW_EXCLUDES(mu_);

  /// Records one decision: the flight event, its spans when tracing is
  /// on, and its counter, gauge and histogram updates. The only place
  /// the server writes telemetry, so the sinks cannot disagree; under
  /// mu_, so Stats() reads exact counts. Each decision is recorded
  /// before any future it settles resolves.
  void Record(const Decision& d) SHFLBW_REQUIRES(mu_);

  /// One replica's scheduler thread: a loop over the four steps below.
  /// `hb` is its heartbeat slot, registered before the thread starts
  /// and returned when the loop ends.
  void ReplicaLoop(int replica, int hb) SHFLBW_EXCLUDES(mu_);
  /// Step 1: blocks until there is work, then holds the coalesce window
  /// open. *window_start is the window's start, or -1 when the batch
  /// seals without one. False once shut down with an empty queue.
  bool AwaitWork(int hb, double* window_start) SHFLBW_REQUIRES(mu_);
  /// Step 2: seals the oldest requests (without a coalesce window, at
  /// most this replica's share of the queue) into a batch, shedding
  /// expired ones and letting the controller pick (and shift) the level.
  Batch Seal(int replica, double window_start) SHFLBW_REQUIRES(mu_);
  /// Step 3: resolves the shed requests, runs the batch with bounded
  /// retry, records the completion and resolves the batch's requests.
  void Launch(Batch& b, int hb) SHFLBW_EXCLUDES(mu_);
  /// The launch itself: RunBatched, retrying transient faults with
  /// backoff and recording each retry. Throws when the batch fails.
  BatchRunResult RunWithRetry(Batch& b, int hb) SHFLBW_EXCLUDES(mu_);
  /// Step 4: retires the batch into the protocol counters and the
  /// control plane, atomically with the idle_ notification Drain waits
  /// on.
  void Retire(Batch& b) SHFLBW_REQUIRES(mu_);

  /// Registers the serving-side metric handles (counters, histograms,
  /// gauges) in telemetry_'s registry; constructor-only.
  void RegisterMetrics();

  /// Watchdog stall callback (watchdog thread): records the stall
  /// naming the stalled slot, and writes the statusz + flight
  /// postmortem when ServerOptions::watchdog.dump_path is set.
  void OnStall(const std::string& name, double age_seconds)
      SHFLBW_EXCLUDES(mu_);

  ServerOptions opts_;
  std::shared_ptr<obs::Telemetry> telemetry_;
  std::shared_ptr<PackedWeightCache> cache_;
  /// engines_[replica][level]: each replica owns one engine per ladder
  /// level (plans differ; packed weights are shared through cache_).
  /// An engine is only ever touched by its replica's scheduler thread.
  std::vector<std::vector<std::unique_ptr<Engine>>> engines_;
  std::vector<double> level_floors_;   // ladder floors (or {-1})
  std::vector<double> level_ratios_;   // MinRetainedRatio per level plan

  /// Rank kLockRankServer: scheduler threads release it around every
  /// engine launch, so it nests only ABOVE the registry lock
  /// (MetricsText's gauge refresh) and never around the pool, cache or
  /// evaluator locks.
  mutable Mutex mu_{kLockRankServer};
  CondVar not_empty_;  // replicas wait for work
  CondVar not_full_;   // Submit waits for queue space
  CondVar idle_;       // Drain waits for completed==submitted
  std::deque<Pending> queue_ SHFLBW_GUARDED_BY(mu_);
  bool stop_ SHFLBW_GUARDED_BY(mu_) = false;
  /// Protocol counters: the cv predicates (Drain's idle condition, the
  /// conservation law) need exact values read under mu_, so these stay
  /// plain members. next_id_ moves with each accepted admission;
  /// completed_ and shed_ move at retirement, after the batch's
  /// promises resolve.
  std::uint64_t next_id_ SHFLBW_GUARDED_BY(mu_) = 0;
  std::uint64_t completed_ SHFLBW_GUARDED_BY(mu_) = 0;
  std::uint64_t shed_ SHFLBW_GUARDED_BY(mu_) = 0;
  std::uint64_t next_batch_id_ SHFLBW_GUARDED_BY(mu_) = 0;  // seal order
  /// Cached registry handles; every non-protocol stat lives only in the
  /// registry (Stats() reads it back). Only Record() writes them, under
  /// mu_, so Stats() — which also holds mu_ — sees exact values.
  /// c_verdicts_ is indexed by SubmitStatus: submitted, then each
  /// rejection reason.
  std::array<obs::Counter*, 4> c_verdicts_ = {};
  obs::Counter* c_completed_ = nullptr;
  obs::Counter* c_shed_ = nullptr;
  obs::Counter* c_retries_ = nullptr;
  obs::Counter* c_failed_ = nullptr;
  std::vector<obs::Counter*> c_per_replica_;  // completed, by replica
  std::vector<obs::Counter*> c_per_level_;    // completed, by plan level
  obs::Histogram* h_queue_seconds_ = nullptr;
  obs::Histogram* h_retry_seconds_ = nullptr;
  obs::Histogram* h_run_seconds_ = nullptr;
  obs::Histogram* h_total_seconds_ = nullptr;
  obs::Histogram* h_batch_width_ = nullptr;
  obs::Gauge* g_queue_depth_ = nullptr;
  obs::Gauge* g_level_ = nullptr;
  obs::Counter* c_stalls_ = nullptr;
  /// Both controllers are plain mechanism objects (runtime/admission.h)
  /// with no locking of their own; every call goes through mu_.
  AdmissionController admission_ SHFLBW_GUARDED_BY(mu_);
  DegradationController controller_ SHFLBW_GUARDED_BY(mu_);

  /// Most recent watchdog stall (statusz watchdog section).
  std::string last_stall_ SHFLBW_GUARDED_BY(mu_);
  double last_stall_age_ SHFLBW_GUARDED_BY(mu_) = 0;

  /// Replica-thread heartbeats; slots registered by the constructor.
  obs::HeartbeatRegistry heartbeats_;
  /// Monotonic construction time (statusz uptime).
  double start_seconds_ = 0;

  /// Populated by the constructor (no concurrent access yet), swapped
  /// out under mu_ by Shutdown and joined lock-free.
  std::vector<std::thread> threads_ SHFLBW_GUARDED_BY(mu_);
  /// Stopped (moved out under mu_, then joined lock-free) first in
  /// Shutdown so no stall callback can run against a half-torn-down
  /// server — and so a concurrent second Shutdown moves an empty
  /// pointer, mirroring the threads_ swap.
  std::unique_ptr<obs::Watchdog> watchdog_ SHFLBW_GUARDED_BY(mu_);
};

}  // namespace runtime
}  // namespace shflbw
