#include "runtime/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>

#include "common/build_info.h"
#include "common/check.h"
#include "common/clock.h"
#include "common/thread_pool.h"
#include "kernels/spmm_vector_wise.h"
#include "quality/quality_planner.h"
#include "runtime/format.h"

namespace shflbw {
namespace runtime {
namespace {

/// Registry counters hold doubles (exact for integer counts to 2^53);
/// ServerStats speaks uint64.
std::uint64_t AsCount(const obs::Counter* c) {
  return static_cast<std::uint64_t>(std::llround(c->Value()));
}

}  // namespace

void ValidateServerOptions(const ServerOptions& opts) {
  SHFLBW_CHECK_MSG(opts.replicas >= 1,
                   "server needs at least one replica, got " << opts.replicas);
  // Each replica needs its own heartbeat slot (the watchdog and statusz
  // see no replica without one), and flight events store the replica
  // index in a signed byte.
  SHFLBW_CHECK_MSG(opts.replicas <= obs::HeartbeatRegistry::kMaxSlots,
                   "server supports at most "
                       << obs::HeartbeatRegistry::kMaxSlots
                       << " replicas (one heartbeat slot each), got "
                       << opts.replicas);
  SHFLBW_CHECK_MSG(opts.queue_capacity >= 1,
                   "queue capacity must be >= 1, got " << opts.queue_capacity);
  SHFLBW_CHECK_MSG(opts.max_batch >= 1,
                   "max_batch must be >= 1, got " << opts.max_batch);
  SHFLBW_CHECK_MSG(opts.coalesce_window_seconds >= 0.0,
                   "coalesce window must be >= 0, got "
                       << opts.coalesce_window_seconds << " seconds");

  const AdmissionPolicy& a = opts.admission;
  SHFLBW_CHECK_MSG(
      a.best_effort_occupancy > 0.0 && a.best_effort_occupancy <= 1.0,
      "admission.best_effort_occupancy must be in (0, 1], got "
          << a.best_effort_occupancy);
  SHFLBW_CHECK_MSG(a.service_estimate_seconds >= 0.0,
                   "admission.service_estimate_seconds must be >= 0, got "
                       << a.service_estimate_seconds);
  SHFLBW_CHECK_MSG(a.ewma_alpha > 0.0 && a.ewma_alpha <= 1.0,
                   "admission.ewma_alpha must be in (0, 1], got "
                       << a.ewma_alpha);

  const DegradationPolicy& d = opts.degradation;
  for (std::size_t i = 0; i < d.ladder_floors.size(); ++i) {
    SHFLBW_CHECK_MSG(d.ladder_floors[i] > 0.0 && d.ladder_floors[i] <= 1.0,
                     "degradation.ladder_floors[" << i << "] = "
                         << d.ladder_floors[i] << " must be in (0, 1]");
    SHFLBW_CHECK_MSG(i == 0 || d.ladder_floors[i] < d.ladder_floors[i - 1],
                     "degradation.ladder_floors must be strictly descending; "
                     "got " << d.ladder_floors[i - 1] << " then "
                            << d.ladder_floors[i]);
  }
  SHFLBW_CHECK_MSG(
      d.degrade_queue_fraction > 0.0 && d.degrade_queue_fraction <= 1.0,
      "degradation.degrade_queue_fraction must be in (0, 1], got "
          << d.degrade_queue_fraction);
  SHFLBW_CHECK_MSG(d.upgrade_queue_fraction >= 0.0 &&
                       d.upgrade_queue_fraction < d.degrade_queue_fraction,
                   "degradation.upgrade_queue_fraction must be in [0, "
                   "degrade_queue_fraction); got "
                       << d.upgrade_queue_fraction << " vs degrade fraction "
                       << d.degrade_queue_fraction);
  SHFLBW_CHECK_MSG(
      d.deadline_slack_fraction >= 0.0 && d.deadline_slack_fraction < 1.0,
      "degradation.deadline_slack_fraction must be in [0, 1), got "
          << d.deadline_slack_fraction);
  SHFLBW_CHECK_MSG(d.hysteresis_seals >= 1,
                   "degradation.hysteresis_seals must be >= 1, got "
                       << d.hysteresis_seals);
  SHFLBW_CHECK_MSG(d.latency_window >= 1,
                   "degradation.latency_window must be >= 1, got "
                       << d.latency_window);
  // A forced format pins every layer; a quality ladder exists to move
  // layers between formats/densities. Honouring both would make the
  // ladder levels identical plans — reject the contradiction instead of
  // silently compiling a ladder that cannot degrade.
  SHFLBW_CHECK_MSG(
      d.ladder_floors.empty() || !opts.engine.planner.force_format.has_value(),
      "degradation.ladder_floors and engine.planner.force_format conflict: a "
      "forced format leaves the quality ladder nothing to trade");

  const RetryPolicy& r = opts.retry;
  SHFLBW_CHECK_MSG(r.max_retries >= 0,
                   "retry.max_retries must be >= 0, got " << r.max_retries);
  SHFLBW_CHECK_MSG(r.backoff_seconds >= 0.0,
                   "retry.backoff_seconds must be >= 0, got "
                       << r.backoff_seconds);
  SHFLBW_CHECK_MSG(r.backoff_multiplier >= 1.0,
                   "retry.backoff_multiplier must be >= 1, got "
                       << r.backoff_multiplier);

  const obs::WatchdogOptions& w = opts.watchdog;
  SHFLBW_CHECK_MSG(w.stall_budget_seconds > 0.0,
                   "watchdog.stall_budget_seconds must be > 0, got "
                       << w.stall_budget_seconds);
  SHFLBW_CHECK_MSG(w.poll_interval_seconds > 0.0,
                   "watchdog.poll_interval_seconds must be > 0, got "
                       << w.poll_interval_seconds);
  // A budget inside the coalesce window would flag every windowed seal
  // as a stall: the replica is armed and silent, legitimately.
  SHFLBW_CHECK_MSG(!w.enabled ||
                       w.stall_budget_seconds > opts.coalesce_window_seconds,
                   "watchdog.stall_budget_seconds ("
                       << w.stall_budget_seconds
                       << ") must exceed coalesce_window_seconds ("
                       << opts.coalesce_window_seconds << ")");
}

BatchServer::BatchServer(ModelDesc model, ServerOptions opts)
    : opts_(std::move(opts)),
      telemetry_(std::make_shared<obs::Telemetry>(opts_.telemetry)),
      cache_(std::make_shared<PackedWeightCache>()) {
  ValidateServerOptions(opts_);
  // Autotune re-ranks plans by wall-clock measurement; replicas could
  // diverge onto different plans, breaking both cache sharing and the
  // bit-identical guarantee. Force the deterministic planner.
  opts_.engine.planner.autotune = false;
  // Every engine shares the server's telemetry, so kernel spans and
  // profiling rows from fused launches land in the same trace /
  // registry as the serving-side spans and counters.
  opts_.engine.telemetry = telemetry_;

  // Expand the quality ladder into one PlannerOptions per level. No
  // ladder = one level with the caller's planner options untouched
  // (quality-aware only if the caller enabled it).
  const std::vector<double>& floors = opts_.degradation.ladder_floors;
  std::vector<PlannerOptions> ladder;
  if (!floors.empty()) {
    ladder = quality::LadderPlannerOptions(opts_.engine.planner, floors);
  } else {
    ladder.push_back(opts_.engine.planner);
  }
  const int levels = static_cast<int>(ladder.size());

  engines_.resize(static_cast<std::size_t>(opts_.replicas));
  for (auto& row : engines_) row.reserve(static_cast<std::size_t>(levels));
  level_floors_.reserve(static_cast<std::size_t>(levels));
  level_ratios_.reserve(static_cast<std::size_t>(levels));
  for (int lvl = 0; lvl < levels; ++lvl) {
    EngineOptions eo = opts_.engine;
    eo.planner = ladder[static_cast<std::size_t>(lvl)];
    // Compile each level's (deterministic, replica-identical) plan
    // exactly once — on replica 0, while no scheduler thread exists —
    // and let the other replicas adopt it. Quality-aware planning
    // scores every (layer, format, density, V) mask, so recompiling it
    // replicas-1 more times per level would multiply the most expensive
    // startup step for bit-identical results. All engines pack into the
    // shared cache_; its key (layer, format, density, v) keeps the
    // levels' mixed-density entries distinct and shareable.
    engines_[0].push_back(std::make_unique<Engine>(model, eo, cache_));
    const ExecutionPlan& plan = engines_[0].back()->Plan();
    for (int r = 1; r < opts_.replicas; ++r) {
      engines_[static_cast<std::size_t>(r)].push_back(
          std::make_unique<Engine>(model, eo, cache_));
      engines_[static_cast<std::size_t>(r)].back()->AdoptPlan(plan);
    }
    if (floors.empty()) {
      level_floors_.push_back(-1.0);
      level_ratios_.push_back(-1.0);
    } else {
      level_floors_.push_back(floors[static_cast<std::size_t>(lvl)]);
      level_ratios_.push_back(plan.MinRetainedRatio());
    }
  }
  RegisterMetrics();
  admission_ = AdmissionController(opts_.admission, opts_.replicas);
  controller_ = DegradationController(opts_.degradation, levels);
  start_seconds_ = NowSeconds();

  threads_.reserve(engines_.size());
  for (int r = 0; r < static_cast<int>(engines_.size()); ++r) {
    // Registered here, not on the new thread, so statusz and the
    // watchdog list every replica from construction on, however late
    // its thread is first scheduled.
    const int hb = heartbeats_.Register("replica" + std::to_string(r));
    threads_.emplace_back([this, r, hb] { ReplicaLoop(r, hb); });
  }
  if (opts_.watchdog.enabled) {
    // Watches the replica heartbeats and the process-wide ParallelFor
    // region heartbeats; the callback runs on the watchdog thread with
    // no watchdog lock held, so it may take mu_.
    watchdog_ = std::make_unique<obs::Watchdog>(
        opts_.watchdog,
        std::vector<const obs::HeartbeatRegistry*>{&heartbeats_,
                                                   &obs::GlobalHeartbeats()},
        [this](const std::string& name, double age) { OnStall(name, age); });
  }
}

void BatchServer::RegisterMetrics() {
  obs::Registry& reg = telemetry_->registry();
  c_verdicts_ = {  // in SubmitStatus order
      &reg.GetCounter("shflbw_requests_submitted_total",
                      "Requests admitted to the queue"),
      &reg.GetCounter("shflbw_requests_rejected_total{reason=\"queue_full\"}",
                      "Requests rejected at admission"),
      &reg.GetCounter("shflbw_requests_rejected_total{reason=\"deadline\"}"),
      &reg.GetCounter("shflbw_requests_rejected_total{reason=\"shutdown\"}")};
  c_completed_ = &reg.GetCounter("shflbw_requests_completed_total",
                                 "Requests resolved by a launch (ok or "
                                 "error)");
  c_shed_ = &reg.GetCounter("shflbw_requests_shed_total",
                            "Deadline-expired requests dropped at seal");
  c_retries_ = &reg.GetCounter("shflbw_launch_retries_total",
                               "Transient-fault retries across all batches");
  c_failed_ = &reg.GetCounter("shflbw_requests_failed_total",
                              "Requests resolved with an exception");
  c_per_replica_.reserve(engines_.size());
  for (std::size_t r = 0; r < engines_.size(); ++r) {
    c_per_replica_.push_back(&reg.GetCounter(
        "shflbw_replica_completed_total{replica=\"" + std::to_string(r) +
            "\"}",
        "Requests completed, by replica"));
  }
  c_per_level_.reserve(engines_.front().size());
  for (std::size_t l = 0; l < engines_.front().size(); ++l) {
    c_per_level_.push_back(&reg.GetCounter(
        "shflbw_level_completed_total{level=\"" + std::to_string(l) + "\"}",
        "Requests completed, by ladder level"));
  }
  h_queue_seconds_ = &reg.GetHistogram(
      "shflbw_request_queue_seconds",
      "Submit -> batch seal, including the coalesce window");
  h_retry_seconds_ = &reg.GetHistogram(
      "shflbw_request_retry_seconds",
      "Retry overhead of faulted launches: failed attempts + backoff");
  h_run_seconds_ = &reg.GetHistogram("shflbw_request_run_seconds",
                                     "Final fused launch wall-clock");
  h_total_seconds_ = &reg.GetHistogram("shflbw_request_total_seconds",
                                       "Submit -> completion");
  h_batch_width_ = &reg.GetHistogram(
      "shflbw_batch_width", "Requests fused per launch", /*min_value=*/1.0);
  g_queue_depth_ = &reg.GetGauge("shflbw_queue_depth",
                                 "Requests admitted but not yet dispatched");
  g_level_ = &reg.GetGauge("shflbw_ladder_level",
                           "Degradation controller's current level");
  c_stalls_ = &reg.GetCounter("shflbw_watchdog_stalls_total",
                              "Stall episodes detected by the watchdog");
}

BatchServer::~BatchServer() { Shutdown(); }

const ExecutionPlan& BatchServer::Plan() const { return PlanAt(0); }

const ExecutionPlan& BatchServer::PlanAt(int level) const {
  SHFLBW_CHECK_MSG(level >= 0 && level < levels(),
                   "plan level " << level << " out of range [0, " << levels()
                                 << ")");
  // Safe concurrently with serving: every level's plan was compiled in
  // the constructor, so this is a read of an already-initialized value.
  return engines_.front()[static_cast<std::size_t>(level)]->Plan();
}

int BatchServer::levels() const {
  return static_cast<int>(engines_.front().size());
}

double BatchServer::LevelFloor(int level) const {
  SHFLBW_CHECK_MSG(level >= 0 && level < levels(),
                   "ladder level " << level << " out of range [0, " << levels()
                                   << ")");
  return level_floors_[static_cast<std::size_t>(level)];
}

double BatchServer::LevelRetainedRatio(int level) const {
  SHFLBW_CHECK_MSG(level >= 0 && level < levels(),
                   "ladder level " << level << " out of range [0, " << levels()
                                   << ")");
  return level_ratios_[static_cast<std::size_t>(level)];
}

void BatchServer::Warmup() {
  // One forced request per ladder level through the regular queue:
  // whichever replica serves level L packs every (layer, format,
  // density, v) L's plan selects into the shared cache, and all
  // replicas resolve to the same keys, so later requests — including
  // batches a mid-overload downshift moves to a deeper level — perform
  // zero conversions. Going through the scheduler (instead of touching
  // an engine from this thread) keeps the one-thread-per-engine
  // invariant even when Warmup is called while requests are in flight.
  std::vector<std::future<Response>> futs(static_cast<std::size_t>(levels()));
  for (int lvl = 0; lvl < levels(); ++lvl) {
    const SubmitStatus status =
        Admit(Request{opts_.engine.activation_seed}, /*block=*/true, lvl,
              &futs[static_cast<std::size_t>(lvl)]);
    SHFLBW_CHECK_MSG(status == SubmitStatus::kAccepted,
                     "BatchServer: warmup rejected ("
                         << SubmitStatusName(status) << ")");
  }
  for (std::future<Response>& f : futs) (void)f.get();
}

SubmitStatus BatchServer::Admit(Request req, bool block, int force_level,
                                std::future<Response>* out) {
  const double begin = NowSeconds();
  UniqueLock lock(mu_);
  // Warmup's requests are the server's own: standard QoS, no deadline,
  // so they get the whole queue and always pass the deadline check.
  const std::size_t cap = admission_.CapacityFor(req.qos, opts_.queue_capacity);
  if (block) {
    not_full_.Wait(mu_, [&]() SHFLBW_REQUIRES(mu_) {
      return stop_ || queue_.size() < cap;
    });
  }
  SubmitStatus verdict = SubmitStatus::kAccepted;
  if (stop_) {
    // Includes producers that were blocked on a full queue when
    // Shutdown ran: they wake here with a typed rejection, never hang.
    verdict = SubmitStatus::kRejectedShutdown;
  } else if (queue_.size() >= cap) {
    verdict = SubmitStatus::kRejectedQueueFull;
  } else if (!admission_.DeadlineFeasible(req.qos, req.deadline_seconds,
                                          queue_.size())) {
    verdict = SubmitStatus::kRejectedInfeasibleDeadline;
  }
  Decision d;
  d.event.t_seconds = NowSeconds();
  d.span_begin = begin;
  if (verdict != SubmitStatus::kAccepted) {
    d.event.kind = obs::FlightKind::kReject;
    d.event.detail = static_cast<std::int32_t>(verdict);
    d.event.SetLabel(SubmitStatusName(verdict));
    Record(d);
    return verdict;
  }
  Pending p;
  p.req = req;
  p.id = next_id_++;
  p.submit_time = d.event.t_seconds;
  p.force_level = force_level;
  *out = p.promise.get_future();
  d.event.kind = obs::FlightKind::kSubmit;
  d.event.request_id = p.id;
  queue_.push_back(std::move(p));
  d.event.detail = static_cast<std::int32_t>(queue_.size());
  Record(d);
  lock.Unlock();
  not_empty_.NotifyOne();
  return SubmitStatus::kAccepted;
}

SubmitStatus BatchServer::Submit(Request req, std::future<Response>* out) {
  return Admit(req, /*block=*/true, /*force_level=*/-1, out);
}

std::future<Response> BatchServer::Submit(Request req) {
  std::future<Response> fut;
  const SubmitStatus status = Submit(req, &fut);
  SHFLBW_CHECK_MSG(status == SubmitStatus::kAccepted,
                   "BatchServer: submit rejected ("
                       << SubmitStatusName(status) << ")");
  return fut;
}

SubmitStatus BatchServer::TrySubmit(Request req, std::future<Response>* out) {
  return Admit(req, /*block=*/false, /*force_level=*/-1, out);
}

void BatchServer::Drain() {
  // The idle condition is evaluated under mu_ by wait() itself — both
  // on entry and after every wakeup — so there is no unlocked
  // check-then-wait gap for a concurrent Submit to slip through:
  // either the submit lands before a predicate evaluation (next_id_
  // grows, Drain keeps waiting for its retirement) or after Drain has
  // already observed completed_ + shed_ == next_id_ and returned, which
  // is correct — that request was not "submitted so far". Both counters
  // are only ever incremented under mu_, batch-atomically with the
  // idle_ notification and after the batch's promises (served and shed
  // alike) were resolved, so Drain cannot miss the transition and every
  // pre-Drain future is ready when it returns.
  UniqueLock lock(mu_);
  idle_.Wait(mu_, [&]() SHFLBW_REQUIRES(mu_) {
    return completed_ + shed_ == next_id_;
  });
}

void BatchServer::Shutdown() {
  // Stop the watchdog before anything else: its stall callback reads
  // server state and must never observe the teardown as a "stall".
  // Moved out under mu_ (a concurrent second caller moves an empty
  // pointer), joined with no lock held — the callback takes mu_.
  std::unique_ptr<obs::Watchdog> watchdog;
  {
    MutexLock lock(mu_);
    watchdog = std::move(watchdog_);
  }
  watchdog.reset();
  std::vector<std::thread> to_join;
  {
    MutexLock lock(mu_);
    stop_ = true;
    to_join.swap(threads_);  // second caller swaps an empty vector
  }
  not_empty_.NotifyAll();
  not_full_.NotifyAll();
  for (std::thread& th : to_join) th.join();
}

ServerStats BatchServer::Stats() const {
  MutexLock lock(mu_);
  // Snapshot view over the registry: every counter here is only ever
  // incremented under mu_, so reading them under mu_ yields the same
  // exact values the old member counters did.
  ServerStats s;
  s.submitted = next_id_;
  s.completed = completed_;
  s.shed = shed_;
  const auto rejected = [this](SubmitStatus v) {
    return AsCount(c_verdicts_[static_cast<std::size_t>(v)]);
  };
  s.rejected_queue_full = rejected(SubmitStatus::kRejectedQueueFull);
  s.rejected_deadline = rejected(SubmitStatus::kRejectedInfeasibleDeadline);
  s.rejected_shutdown = rejected(SubmitStatus::kRejectedShutdown);
  s.retries = AsCount(c_retries_);
  s.failed = AsCount(c_failed_);
  s.per_replica.reserve(c_per_replica_.size());
  for (const obs::Counter* c : c_per_replica_) {
    s.per_replica.push_back(AsCount(c));
  }
  s.per_level.reserve(c_per_level_.size());
  for (const obs::Counter* c : c_per_level_) s.per_level.push_back(AsCount(c));
  s.level = controller_.level();
  s.downshifts = controller_.downshifts();
  s.upshifts = controller_.upshifts();
  s.estimated_service_seconds = admission_.EstimatedServiceSeconds();
  return s;
}

std::string BatchServer::MetricsText() const {
  obs::Registry& reg = telemetry_->registry();
  // Refresh the point-in-time gauges no decision maintains (Record()
  // keeps the queue depth and ladder level current).
  {
    MutexLock lock(mu_);
    reg.GetGauge("shflbw_ladder_downshifts", "Degradation downshifts")
        .Set(static_cast<double>(controller_.downshifts()));
    reg.GetGauge("shflbw_ladder_upshifts", "Degradation upshifts")
        .Set(static_cast<double>(controller_.upshifts()));
    reg.GetGauge("shflbw_admission_estimated_service_seconds",
                 "Admission controller's per-request service EWMA")
        .Set(admission_.EstimatedServiceSeconds());
  }
  const PoolStats pool = GetPoolStats();
  reg.GetGauge("shflbw_pool_workers", "Worker-pool threads spawned")
      .Set(pool.workers);
  reg.GetGauge("shflbw_pool_active_regions",
               "ParallelFor regions currently executing")
      .Set(pool.active_regions);
  reg.GetGauge("shflbw_pool_regions_total",
               "Parallel regions run since process start")
      .Set(static_cast<double>(pool.regions_entered));
  if (const auto& fi = opts_.engine.fault_injector) fi->PublishMetrics(reg);
  return reg.ExpositionText();
}

bool BatchServer::DumpTrace(const std::string& path) const {
  return telemetry_->trace().DumpChromeTrace(path);
}

void BatchServer::ReplicaLoop(int replica, int hb) {
  // Heartbeat discipline: armed whenever this thread owns work (from
  // wait-return to batch retirement), disarmed while it legitimately
  // blocks on an empty queue — so armed silence is always a stall.
  UniqueLock lock(mu_);
  double window_start = -1;
  // Drain-on-shutdown: AwaitWork keeps returning work until the queue
  // is empty, so every future obtained from Submit resolves.
  while (AwaitWork(hb, &window_start)) {
    Batch batch = Seal(replica, window_start);
    const bool left_work = !queue_.empty();
    lock.Unlock();
    // Work left past this replica's share goes to an idle sibling even
    // when no Submit is left to wake one.
    if (left_work) not_empty_.NotifyOne();
    heartbeats_.Beat(hb, NowSeconds());
    // Freed slots: wake every blocked Submit, not just one.
    if (batch.requests.size() > 1) {
      not_full_.NotifyAll();
    } else {
      not_full_.NotifyOne();
    }
    Launch(batch, hb);
    lock.Lock();
    Retire(batch);
  }
  heartbeats_.Unregister(hb);
}

bool BatchServer::AwaitWork(int hb, double* window_start) {
  // A batch seals at max_batch, clamped to the queue capacity: with a
  // bounded queue shorter than max_batch, Submit blocks at capacity, so
  // a capacity-full queue is as fused as this server can get and must
  // launch rather than stall out the whole window.
  const std::size_t seal = std::min(
      static_cast<std::size_t>(opts_.max_batch), opts_.queue_capacity);
  for (;;) {
    heartbeats_.Disarm(hb);
    not_empty_.Wait(mu_, [&]() SHFLBW_REQUIRES(mu_) {
      return stop_ || !queue_.empty();
    });
    heartbeats_.Arm(hb, NowSeconds());
    if (queue_.empty()) return false;  // implies stop_
    // Coalescing window: hold a partial batch open briefly so closely
    // spaced requests fuse into one launch. Bounded (fairness — the
    // oldest request pays at most the window on top of its queue wait)
    // and cut short by shutdown or a sealed batch. Forced (warmup)
    // requests skip the window: they run alone, immediately.
    *window_start = -1;
    if (opts_.coalesce_window_seconds <= 0 || stop_ ||
        queue_.front().force_level >= 0 || queue_.size() >= seal) {
      return true;
    }
    *window_start = NowSeconds();
    not_empty_.WaitFor(mu_, opts_.coalesce_window_seconds,
                       [&]() SHFLBW_REQUIRES(mu_) {
                         return stop_ || queue_.size() >= seal;
                       });
    heartbeats_.Beat(hb, NowSeconds());
    // A sibling replica may have emptied the queue meanwhile.
    if (!queue_.empty()) return true;
  }
}

BatchServer::Batch BatchServer::Seal(int replica, double window_start) {
  // The K oldest requests, FIFO submission order. K is at most
  // max_batch; without a coalesce window it is also at most this
  // replica's share of the queue, ceil(queued / replicas) (guided
  // self-scheduling): widths shrink as the queue drains, so replicas
  // coming free share the tail instead of waiting behind one replica
  // that took max_batch just before them. Deadline-expired
  // requests (except kCritical) are shed here — they resolve with
  // kDeadlineExceeded instead of occupying a width slot in the fused
  // launch, so the launch carries only live work. A forced (warmup)
  // request always runs alone at its pinned level: it exists to pack
  // one level's weights, and fusing user traffic into it would serve
  // that traffic at a level the controller never chose.
  Batch b;
  b.id = next_batch_id_++;
  b.replica = replica;
  b.seal_time = NowSeconds();
  const std::size_t depth = queue_.size();
  const std::size_t replicas = engines_.size();
  const std::size_t width_cap =
      opts_.coalesce_window_seconds > 0
          ? static_cast<std::size_t>(opts_.max_batch)
          : std::min(static_cast<std::size_t>(opts_.max_batch),
                     (depth + replicas - 1) / replicas);
  std::vector<Pending> shed;
  if (queue_.front().force_level >= 0) {
    b.level = queue_.front().force_level;
    b.requests.push_back(std::move(queue_.front()));
    queue_.pop_front();
  } else {
    while (!queue_.empty() && b.requests.size() < width_cap &&
           queue_.front().force_level < 0) {
      Pending p = std::move(queue_.front());
      queue_.pop_front();
      const bool expired =
          p.req.deadline_seconds > 0 && p.req.qos != QoS::kCritical &&
          b.seal_time - p.submit_time > p.req.deadline_seconds;
      (expired ? shed : b.requests).push_back(std::move(p));
    }
    // The controller observes every seal (even an all-shed one — a
    // queue full of dead work is the strongest pressure signal there
    // is) and picks the level this batch runs at. Only OnSeal moves the
    // level, so a shift is a seal that changed it: old level in detail,
    // new level in the level field.
    const int before = controller_.level();
    b.level = controller_.OnSeal(depth, opts_.queue_capacity);
    if (b.level != before) {
      Decision shift;
      shift.event.kind = obs::FlightKind::kShift;
      shift.event.t_seconds = b.seal_time;
      shift.event.replica = static_cast<std::int8_t>(replica);
      shift.event.level = static_cast<std::int16_t>(b.level);
      shift.event.detail = before;
      Record(shift);
    }
  }
  b.width = b.requests.size();
  std::move(shed.begin(), shed.end(), std::back_inserter(b.requests));

  Decision seal = b.Decide(obs::FlightKind::kSeal, b.seal_time);
  seal.event.detail = static_cast<std::int32_t>(b.requests.size() - b.width);
  seal.event.detail2 = static_cast<std::int32_t>(depth);
  seal.span_begin = window_start;
  seal.requests = b.requests;
  Record(seal);
  for (const Pending& p : b.Shed()) {
    Decision d = b.Decide(obs::FlightKind::kShed, b.seal_time);
    d.event.request_id = p.id;
    d.event.width = 0;  // a shed request joins no launch
    d.event.value = b.seal_time - p.submit_time;
    d.span_begin = b.seal_time;
    Record(d);
  }
  if (b.width > 0) Record(b.Decide(obs::FlightKind::kLaunch, b.seal_time));
  return b;
}

void BatchServer::Launch(Batch& b, int hb) {
  // queue_seconds stops at the seal for every request in the batch.
  const auto response = [&b](const Pending& p) {
    Response resp;
    resp.id = p.id;
    resp.replica = b.replica;
    resp.plan_level = b.level;
    resp.queue_seconds = b.seal_time - p.submit_time;
    return resp;
  };
  // Shed requests resolve before the retire step counts them, so Drain
  // returning implies every future is ready.
  for (Pending& p : b.Shed()) {
    Response resp = response(p);
    resp.status = ResponseStatus::kDeadlineExceeded;
    resp.batch_width = 0;
    p.promise.set_value(std::move(resp));
  }
  if (b.width == 0) return;

  BatchRunResult run;
  std::exception_ptr error;
  try {
    run = RunWithRetry(b, hb);
  } catch (...) {
    error = std::current_exception();
  }
  b.done = NowSeconds();
  b.failed = error != nullptr;
  heartbeats_.Beat(hb, b.done);
  {
    // Recorded before any future resolves, so a caller holding a
    // response already sees its spans and counts.
    Decision complete = b.Decide(obs::FlightKind::kComplete, b.done);
    complete.event.detail = b.attempts;
    if (b.failed) {
      complete.event.SetLabel("error");
    } else {
      complete.event.value = b.done - b.final_attempt_start;
    }
    complete.span_begin = b.seal_time;
    complete.requests = b.Launched();
    MutexLock lock(mu_);
    Record(complete);
  }
  for (std::size_t i = 0; i < b.width; ++i) {
    Pending& p = b.requests[i];
    if (b.failed) {
      p.promise.set_exception(error);
      continue;
    }
    // The split is exact: queue + retry + run == submit-to-completion.
    Response resp = response(p);
    resp.batch_width = static_cast<int>(b.width);
    resp.retained_ratio = level_ratios_[static_cast<std::size_t>(b.level)];
    resp.retries = b.attempts;
    resp.retry_seconds = b.final_attempt_start - b.seal_time;
    resp.run_seconds = b.done - b.final_attempt_start;
    resp.packs_performed = run.packs_performed;
    resp.output = std::move(run.outputs[i]);
    p.promise.set_value(std::move(resp));
  }
}

BatchRunResult BatchServer::RunWithRetry(Batch& b, int hb) {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(b.width);
  for (const Pending& p : b.Launched()) seeds.push_back(p.req.activation_seed);
  BatchContext ctx;
  ctx.batch_id = b.id;
  ctx.replica = b.replica;
  ctx.level = b.level;
  Engine& engine = *engines_[static_cast<std::size_t>(b.replica)]
                            [static_cast<std::size_t>(b.level)];
  // Bounded retry-with-backoff on transient faults (injected or
  // backend-raised). A failed launch leaves the cache and the engine's
  // streaming state unmodified — the injector fires before any
  // mutation — so a retry is a clean re-execution and the eventual
  // output is bit-identical to an unfaulted run. Non-transient errors
  // propagate immediately. Everything between the seal and the start
  // of the attempt that succeeds (failed attempts + backoff sleeps) is
  // retry overhead; run_seconds covers that attempt alone.
  b.final_attempt_start = b.seal_time;
  for (;;) {
    try {
      return engine.RunBatched(seeds, ctx);
    } catch (const TransientFault&) {
      if (b.attempts >= opts_.retry.max_retries) throw;
      const double fail_time = NowSeconds();
      const double backoff =
          opts_.retry.backoff_seconds *
          std::pow(opts_.retry.backoff_multiplier, b.attempts);
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      }
      ++b.attempts;
      b.final_attempt_start = NowSeconds();
      heartbeats_.Beat(hb, b.final_attempt_start);
      Decision retry = b.Decide(obs::FlightKind::kRetry, b.final_attempt_start);
      retry.event.detail = b.attempts;
      retry.span_begin = fail_time;
      MutexLock lock(mu_);
      Record(retry);
    }
  }
}

void BatchServer::Retire(Batch& b) {
  // The whole batch (served and shed together) retires under one lock
  // hold, after its promises resolved, atomically with the idle_
  // notification Drain waits on.
  completed_ += b.width;
  shed_ += b.requests.size() - b.width;
  // Feed the control plane: the admission EWMA learns per-request
  // service time from the fused launch (one observation per launch),
  // the degradation controller sees every deadline-carrying
  // completion's latency/deadline ratio. Warmup (forced) batches are
  // excluded — they measure pack latency, not steady-state service.
  if (b.width > 0 && !b.failed && b.requests.front().force_level < 0) {
    admission_.RecordServiceTime((b.done - b.seal_time) /
                                 static_cast<double>(b.width));
    for (const Pending& p : b.Launched()) {
      if (p.req.deadline_seconds > 0) {
        controller_.RecordCompletion(b.done - p.submit_time,
                                     p.req.deadline_seconds);
      }
    }
  }
  if (completed_ + shed_ == next_id_) idle_.NotifyAll();
}

BatchServer::Decision BatchServer::Batch::Decide(obs::FlightKind kind,
                                                 double t) const {
  Decision d;
  d.event.kind = kind;
  d.event.t_seconds = t;
  d.event.batch_id = id;
  d.event.replica = static_cast<std::int8_t>(replica);
  d.event.level = static_cast<std::int16_t>(level);
  d.event.width = static_cast<std::int32_t>(width);
  return d;
}

void BatchServer::Record(const Decision& d) {
  const obs::FlightEvent& e = d.event;
  telemetry_->flight().Record(e);
  const bool metrics = telemetry_->metrics_on();
  const bool tracing = telemetry_->tracing_on();
  // Every span a decision closes ends when the decision was made and
  // carries its batch, replica and level.
  obs::TraceEvent span;
  span.end_seconds = e.t_seconds;
  span.batch_id = e.batch_id;
  span.replica = e.replica;
  span.level = e.level;
  const auto emit = [&](obs::SpanKind kind, double begin,
                        std::uint64_t request_id) {
    span.kind = kind;
    span.begin_seconds = begin;
    span.request_id = request_id;
    telemetry_->trace().Record(span);
  };
  const double width = static_cast<double>(e.width);
  switch (e.kind) {
    case obs::FlightKind::kSubmit:
    case obs::FlightKind::kReject: {
      const SubmitStatus verdict = e.kind == obs::FlightKind::kSubmit
                                       ? SubmitStatus::kAccepted
                                       : static_cast<SubmitStatus>(e.detail);
      c_verdicts_[static_cast<std::size_t>(verdict)]->Add();
      if (e.kind == obs::FlightKind::kSubmit) g_queue_depth_->Set(e.detail);
      if (tracing) {
        span.detail = static_cast<std::int32_t>(verdict);
        span.SetLabel(SubmitStatusName(verdict));
        emit(obs::SpanKind::kAdmission, d.span_begin, e.request_id);
      }
      break;
    }
    case obs::FlightKind::kSeal:
      // detail2 is the depth the seal found; it took width + detail.
      g_queue_depth_->Set(e.detail2 - e.width - e.detail);
      if (tracing) {
        for (const Pending& p : d.requests) {
          emit(obs::SpanKind::kQueue, p.submit_time, p.id);
        }
        if (d.span_begin >= 0) {  // the replica held the window open
          span.width = e.width;
          emit(obs::SpanKind::kCoalesce, d.span_begin, obs::kNoId);
        }
      }
      break;
    case obs::FlightKind::kShift:
      g_level_->Set(e.level);
      break;
    case obs::FlightKind::kShed:
      c_shed_->Add();
      if (metrics) h_queue_seconds_->Record(e.value);
      if (tracing) {
        span.detail = 1;
        emit(obs::SpanKind::kShed, d.span_begin, e.request_id);
      }
      break;
    case obs::FlightKind::kLaunch:
      break;
    case obs::FlightKind::kRetry:
      c_retries_->Add();
      if (tracing) {
        span.width = e.width;
        span.attempt = e.detail;
        emit(obs::SpanKind::kRetry, d.span_begin, obs::kNoId);
      }
      break;
    case obs::FlightKind::kComplete:
      c_completed_->Add(width);
      c_per_replica_[static_cast<std::size_t>(e.replica)]->Add(width);
      c_per_level_[static_cast<std::size_t>(e.level)]->Add(width);
      if (e.label[0] != '\0') {  // only a failed launch is labelled
        c_failed_->Add(width);
        break;
      }
      if (metrics) {
        // value is the final attempt's run time; the retry overhead is
        // the rest of dispatch -> completion.
        h_batch_width_->Record(width);
        h_run_seconds_->Record(e.value);
        if (e.detail > 0) {
          h_retry_seconds_->Record(e.t_seconds - e.value - d.span_begin);
        }
        for (const Pending& p : d.requests) {
          h_queue_seconds_->Record(d.span_begin - p.submit_time);
          h_total_seconds_->Record(e.t_seconds - p.submit_time);
        }
      }
      if (tracing) {
        span.width = e.width;
        span.retries = e.detail;
        for (const Pending& p : d.requests) {
          emit(obs::SpanKind::kRun, d.span_begin, p.id);
        }
      }
      break;
    case obs::FlightKind::kStall:
      c_stalls_->Add();
      break;
  }
}

namespace {

std::string FmtDouble(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

std::string GaugeCell(const obs::Registry& reg, const std::string& name) {
  const obs::Gauge* g = reg.FindGauge(name);
  return g == nullptr ? std::string("-") : FmtDouble(g->Value());
}

}  // namespace

obs::StatusReport BatchServer::Status() const {
  obs::StatusReport report;
  report.title = "shflbw batch server";
  const double now = NowSeconds();

  {
    const BuildInfo& bi = GetBuildInfo();
    obs::StatusSection& s = report.AddSection("build");
    s.AddText("git_sha", bi.git_sha);
    s.AddText("compiler", bi.compiler);
    s.AddText("build_type", bi.build_type);
    s.AddText("cxx_flags", bi.cxx_flags);
    s.AddNumber("cxx_standard", static_cast<double>(bi.cxx_standard));
    s.AddText("kernel_tier", KernelTierName(ActiveKernelTier()));
    s.AddNumber("threads", ParallelThreadCount());
    s.AddNumber("uptime_seconds", now - start_seconds_);
  }

  // Stats() takes mu_ itself; the second short hold picks up the bits
  // the snapshot struct doesn't carry. Everything after reads lock-free
  // obs state or coarser-ranked locks (cache is rank 30 > server 20,
  // taken with mu_ released).
  const ServerStats stats = Stats();
  std::size_t depth = 0;
  double p99_ratio = -1;
  std::string last_stall;
  double last_stall_age = 0;
  bool watchdog_running = false;
  {
    MutexLock lock(mu_);
    depth = queue_.size();
    p99_ratio = controller_.WindowP99Ratio();
    last_stall = last_stall_;
    last_stall_age = last_stall_age_;
    watchdog_running = watchdog_ != nullptr;
  }

  {
    obs::StatusSection& s = report.AddSection("server");
    s.AddNumber("replicas", replicas());
    s.AddNumber("levels", levels());
    s.AddNumber("queue_depth", static_cast<double>(depth));
    s.AddNumber("queue_capacity", static_cast<double>(opts_.queue_capacity));
    s.AddNumber("queue_occupancy",
                opts_.queue_capacity > 0
                    ? static_cast<double>(depth) /
                          static_cast<double>(opts_.queue_capacity)
                    : 0.0);
    s.AddNumber("max_batch", opts_.max_batch);
    s.AddNumber("coalesce_window_seconds", opts_.coalesce_window_seconds);
    s.AddNumber("submitted", static_cast<double>(stats.submitted));
    s.AddNumber("completed", static_cast<double>(stats.completed));
    s.AddNumber("shed", static_cast<double>(stats.shed));
    s.AddNumber("rejected_queue_full",
                static_cast<double>(stats.rejected_queue_full));
    s.AddNumber("rejected_deadline",
                static_cast<double>(stats.rejected_deadline));
    s.AddNumber("rejected_shutdown",
                static_cast<double>(stats.rejected_shutdown));
    s.AddNumber("retries", static_cast<double>(stats.retries));
    s.AddNumber("failed", static_cast<double>(stats.failed));
    s.AddNumber("estimated_service_seconds", stats.estimated_service_seconds);
  }

  {
    obs::StatusSection& s = report.AddSection("ladder");
    s.AddNumber("level", stats.level);
    s.AddNumber("downshifts", static_cast<double>(stats.downshifts));
    s.AddNumber("upshifts", static_cast<double>(stats.upshifts));
    s.AddNumber("window_p99_ratio", p99_ratio);
    obs::StatusTable& t = s.AddTable(
        "levels", {"level", "floor", "retained", "modeled_s", "completed"});
    for (int lvl = 0; lvl < levels(); ++lvl) {
      const std::size_t l = static_cast<std::size_t>(lvl);
      t.rows.push_back({std::to_string(lvl), FmtDouble(level_floors_[l]),
                        FmtDouble(level_ratios_[l]),
                        FmtDouble(PlanAt(lvl).ModeledTotalSeconds()),
                        l < stats.per_level.size()
                            ? std::to_string(stats.per_level[l])
                            : std::string("-")});
    }
  }

  {
    obs::StatusSection& s = report.AddSection("replicas");
    obs::StatusTable& t = s.AddTable(
        "heartbeats", {"name", "armed", "beats", "age_s", "completed"});
    for (const obs::HeartbeatRegistry::View& v : heartbeats_.Snapshot()) {
      std::string completed_cell = "-";
      if (v.name.rfind("replica", 0) == 0) {
        const int idx = std::atoi(v.name.c_str() + 7);
        if (idx >= 0 &&
            idx < static_cast<int>(stats.per_replica.size())) {
          completed_cell = std::to_string(
              stats.per_replica[static_cast<std::size_t>(idx)]);
        }
      }
      t.rows.push_back({v.name, v.armed ? "yes" : "no",
                        std::to_string(v.beats),
                        v.beat_seconds > 0 ? FmtDouble(now - v.beat_seconds)
                                           : std::string("-"),
                        completed_cell});
    }
  }

  {
    obs::StatusSection& s = report.AddSection("weight_cache");
    s.AddNumber("entries", static_cast<double>(cache_->Size()));
    s.AddNumber("total_packs", static_cast<double>(cache_->TotalPacks()));
    s.AddNumber("approx_bytes", static_cast<double>(cache_->ApproxBytes()));
  }

  {
    const PoolStats pool = GetPoolStats();
    obs::StatusSection& s = report.AddSection("worker_pool");
    s.AddNumber("workers", pool.workers);
    s.AddNumber("active_regions", pool.active_regions);
    s.AddNumber("regions_total", static_cast<double>(pool.regions_entered));
    obs::StatusTable& t =
        s.AddTable("regions", {"name", "armed", "beats", "age_s"});
    for (const obs::HeartbeatRegistry::View& v :
         obs::GlobalHeartbeats().Snapshot()) {
      t.rows.push_back({v.name, v.armed ? "yes" : "no",
                        std::to_string(v.beats),
                        v.beat_seconds > 0 ? FmtDouble(now - v.beat_seconds)
                                           : std::string("-")});
    }
  }

  {
    obs::StatusSection& s = report.AddSection("watchdog");
    s.AddNumber("enabled", opts_.watchdog.enabled ? 1 : 0);
    s.AddNumber("running", watchdog_running ? 1 : 0);
    s.AddNumber("stall_budget_seconds", opts_.watchdog.stall_budget_seconds);
    s.AddNumber("poll_interval_seconds",
                opts_.watchdog.poll_interval_seconds);
    s.AddNumber("stalls", static_cast<double>(AsCount(c_stalls_)));
    s.AddText("last_stall", last_stall.empty() ? "-" : last_stall);
    s.AddNumber("last_stall_age_seconds", last_stall_age);
  }

  {
    const obs::FlightRecorder& flight = telemetry_->flight();
    obs::StatusSection& s = report.AddSection("flight_recorder");
    s.AddNumber("total", static_cast<double>(flight.total()));
    s.AddNumber("dropped", static_cast<double>(flight.dropped()));
    s.AddNumber("capacity", static_cast<double>(flight.capacity()));
  }

  {
    // The serving level's plan, with measured-vs-modeled drift looked
    // up from the gauges the engine publishes after each run ("-" until
    // a layer has been measured).
    const obs::Registry& reg = telemetry_->registry();
    const ExecutionPlan& plan = PlanAt(stats.level);
    obs::StatusSection& s = report.AddSection("plan");
    s.AddText("model", plan.model);
    s.AddText("gpu", plan.gpu);
    obs::StatusTable& t =
        s.AddTable("layers", {"layer", "format", "density", "v", "modeled_s",
                              "retained", "measured_s", "drift"});
    for (const LayerPlan& lp : plan.layers) {
      const std::string label = PlanLayerLabels(lp);
      t.rows.push_back(
          {lp.name, FormatName(lp.format), FmtDouble(lp.density),
           std::to_string(lp.v), FmtDouble(lp.modeled_s),
           FmtDouble(lp.retained_ratio),
           GaugeCell(reg, "shflbw_plan_measured_seconds" + label),
           GaugeCell(reg, "shflbw_plan_drift_ratio" + label)});
    }
  }

  return report;
}

std::string BatchServer::StatusText() const { return Status().RenderText(); }

std::string BatchServer::StatusJson() const { return Status().RenderJson(); }

bool BatchServer::DumpStatus(const std::string& path_base) const {
  const obs::StatusReport report = Status();
  const bool text_ok = report.DumpText(path_base + ".txt");
  const bool json_ok = report.DumpJson(path_base + ".json");
  return text_ok && json_ok;
}

bool BatchServer::DumpFlightRecorder(const std::string& path) const {
  return telemetry_->flight().DumpJson(path);
}

void BatchServer::OnStall(const std::string& name, double age_seconds) {
  {
    MutexLock lock(mu_);
    last_stall_ = name;
    last_stall_age_ = age_seconds;
    // Record the detection itself before dumping, so the postmortem's
    // last event is the stall that triggered it.
    Decision stall;
    stall.event.kind = obs::FlightKind::kStall;
    stall.event.t_seconds = NowSeconds();
    stall.event.value = age_seconds;
    stall.event.SetLabel(name.c_str());
    Record(stall);
  }
  if (!opts_.watchdog.dump_path.empty()) {
    // Best effort: the stall is already counted and flight-recorded
    // even when the dump path is unwritable.
    (void)DumpStatus(opts_.watchdog.dump_path + "_statusz");
    (void)DumpFlightRecorder(opts_.watchdog.dump_path + "_flight.json");
  }
}

}  // namespace runtime
}  // namespace shflbw
