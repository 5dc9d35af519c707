// Overload control plane for the batch-serving layer: typed admission
// verdicts, QoS classes, deadline feasibility, and the hysteresis
// controller that walks the quality-degradation ladder.
//
// The serving problem this solves: a FIFO queue with blocking Submit
// survives bursts by making *callers* wait, which converts overload
// into unbounded client latency. Production-shape serving instead
// (1) rejects work it can already prove will miss its deadline
// (admission control), (2) drops work whose deadline expired while it
// queued (seal-time shedding, server.cpp), and (3) trades quality for
// speed under sustained pressure by shifting new batches down a ladder
// of quality-aware plans (graceful degradation) — the Clipper-style
// deadline-driven latency/accuracy tradeoff as a runtime policy.
//
// Everything here is deliberately mechanism, not thread-safety: both
// controllers are plain objects the BatchServer guards with its queue
// mutex. That keeps every decision deterministic given the observation
// sequence, which is what the tests exercise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace shflbw {
namespace runtime {

/// Typed verdict of Submit/TrySubmit — replaces the old bare bool,
/// which could not distinguish a full queue from a shut-down server.
enum class SubmitStatus {
  kAccepted = 0,
  /// Non-blocking submit found the queue (or the QoS class's share of
  /// it) at capacity.
  kRejectedQueueFull,
  /// The request's deadline cannot be met even if everything queued
  /// ahead of it is served at the estimated service rate — admitting it
  /// would only burn a launch on work that is already dead.
  kRejectedInfeasibleDeadline,
  /// The server is shut down (or shut down while the submit was
  /// blocked waiting for queue space).
  kRejectedShutdown,
};

const char* SubmitStatusName(SubmitStatus status);

/// Request priority class. Orthogonal to deadlines: the deadline says
/// *when* the answer stops being useful, the QoS class says how hard
/// the server should try to produce it under pressure.
enum class QoS {
  /// Admitted only while the queue is below its best-effort share
  /// (AdmissionPolicy::best_effort_occupancy) — the first traffic to be
  /// pushed back when load rises.
  kBestEffort = 0,
  /// Default: full queue share, deadline-checked at admission and shed
  /// at seal time once expired.
  kStandard,
  /// Never shed and never rejected for deadline infeasibility: served
  /// even expired (the caller wants the answer regardless — think
  /// offline evaluation riding a live server).
  kCritical,
};

struct AdmissionPolicy {
  /// Reject requests whose deadline is provably unmeetable at submit
  /// time (kCritical is exempt). Estimation is conservative — see
  /// AdmissionController::DeadlineFeasible.
  bool reject_infeasible_deadlines = true;
  /// Fraction of queue_capacity open to QoS::kBestEffort requests
  /// (at least one slot). 1.0 gives best-effort the whole queue.
  double best_effort_occupancy = 0.5;
  /// Fixed per-request service-time estimate in seconds; 0 = learn it
  /// from observed completions via EWMA. The override exists for tests
  /// and for operators who know their model's latency.
  double service_estimate_seconds = 0;
  /// EWMA smoothing factor for the learned estimate, in (0, 1].
  double ewma_alpha = 0.2;
};

/// Admission decisions for the BatchServer. Not thread-safe on its
/// own: the server's member is declared SHFLBW_GUARDED_BY(mu_) (see
/// server.h and common/thread_annotations.h), so every call site is
/// proven under the queue mutex at compile time.
class AdmissionController {
 public:
  AdmissionController() = default;
  AdmissionController(AdmissionPolicy policy, int replicas);

  /// Queue slots this QoS class may occupy (<= queue_capacity, >= 1).
  [[nodiscard]] std::size_t CapacityFor(QoS qos,
                                        std::size_t queue_capacity) const;

  /// Whether a request submitted now, behind `queue_depth` waiting
  /// requests, can still meet `deadline_seconds` (relative to now).
  /// Uses eta = estimate * (1 + depth / replicas): the request's own
  /// service time plus its share of the backlog ahead of it. With no
  /// estimate yet (no completions observed, no override) everything is
  /// feasible — admission control must fail open, not closed.
  [[nodiscard]] bool DeadlineFeasible(QoS qos, double deadline_seconds,
                                      std::size_t queue_depth) const;

  /// Feeds one observed per-request service time (a fused batch
  /// contributes run_seconds / width) into the EWMA.
  void RecordServiceTime(double seconds);

  /// Current per-request estimate: the policy override if set, else
  /// the EWMA (0 until the first observation).
  [[nodiscard]] double EstimatedServiceSeconds() const;

  [[nodiscard]] const AdmissionPolicy& policy() const { return policy_; }

 private:
  AdmissionPolicy policy_;
  int replicas_ = 1;
  double ewma_seconds_ = 0;
};

struct DegradationPolicy {
  /// Quality floors of the plan ladder, strictly descending, each in
  /// (0, 1]: level 0 (the ladder top) is normal service, higher levels
  /// are progressively sparser/faster plans compiled through the
  /// quality-aware planner. Empty = degradation off (single plan).
  std::vector<double> ladder_floors;
  /// Queue occupancy (depth / capacity) at or above which a seal
  /// observation counts as pressure.
  double degrade_queue_fraction = 0.75;
  /// Occupancy at or below which a seal observation counts as relief
  /// (must be < degrade_queue_fraction — the gap is the hysteresis
  /// band that keeps the controller from flapping).
  double upgrade_queue_fraction = 0.25;
  /// Relief additionally requires the windowed p99 latency/deadline
  /// ratio to sit below 1 - deadline_slack_fraction: upgrading is only
  /// safe with real slack, not at the cliff edge.
  double deadline_slack_fraction = 0.25;
  /// Consecutive pressure (relief) seals required before shifting one
  /// level down (up) the ladder.
  int hysteresis_seals = 3;
  /// Completed-request observations kept for the p99 computation.
  std::size_t latency_window = 64;
};

/// Hysteresis controller over the plan ladder. Observes queue depth at
/// every batch seal and the latency-vs-deadline ratio of every
/// completed deadline-carrying request; shifts the serving level one
/// step at a time after `hysteresis_seals` consecutive agreeing
/// observations. Not thread-safe on its own: like AdmissionController,
/// the server's member carries SHFLBW_GUARDED_BY(mu_), so misuse
/// outside the queue mutex is a compile error under Clang.
class DegradationController {
 public:
  DegradationController() = default;
  DegradationController(DegradationPolicy policy, int levels);

  [[nodiscard]] int levels() const { return levels_; }
  [[nodiscard]] int level() const { return level_; }

  /// Feeds one completed request (latency in seconds, deadline relative
  /// to submit; deadline <= 0 = none, ignored for the p99 window).
  void RecordCompletion(double latency_seconds, double deadline_seconds);

  /// Called when a replica seals a batch; returns the plan level the
  /// batch should run at. Pressure = occupancy >= degrade fraction OR
  /// windowed p99 latency/deadline ratio > 1 (deadlines being missed);
  /// relief = occupancy <= upgrade fraction AND p99 ratio leaves
  /// deadline_slack_fraction of slack (vacuously true with no deadline
  /// traffic). The latency window resets on every shift so a new level
  /// is judged on its own completions, not its predecessor's.
  int OnSeal(std::size_t queue_depth, std::size_t queue_capacity);

  /// Windowed p99 of latency / deadline over completed deadline-
  /// carrying requests; -1 with no samples. > 1 means p99 misses.
  [[nodiscard]] double WindowP99Ratio() const;

  [[nodiscard]] std::uint64_t downshifts() const { return downshifts_; }
  [[nodiscard]] std::uint64_t upshifts() const { return upshifts_; }

 private:
  DegradationPolicy policy_;
  int levels_ = 1;
  int level_ = 0;
  int pressure_streak_ = 0;
  int relief_streak_ = 0;
  std::uint64_t downshifts_ = 0;
  std::uint64_t upshifts_ = 0;
  std::vector<double> ratios_;   // ring buffer, latency/deadline
  std::size_t ratio_next_ = 0;   // ring write cursor
};

}  // namespace runtime
}  // namespace shflbw
