#include "runtime/admission.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace shflbw {
namespace runtime {

const char* SubmitStatusName(SubmitStatus status) {
  switch (status) {
    case SubmitStatus::kAccepted: return "accepted";
    case SubmitStatus::kRejectedQueueFull: return "rejected-queue-full";
    case SubmitStatus::kRejectedInfeasibleDeadline:
      return "rejected-infeasible-deadline";
    case SubmitStatus::kRejectedShutdown: return "rejected-shutdown";
  }
  return "unknown";
}

AdmissionController::AdmissionController(AdmissionPolicy policy, int replicas)
    : policy_(policy), replicas_(std::max(1, replicas)) {}

std::size_t AdmissionController::CapacityFor(QoS qos,
                                             std::size_t queue_capacity) const {
  if (qos != QoS::kBestEffort) return queue_capacity;
  const auto share = static_cast<std::size_t>(
      policy_.best_effort_occupancy * static_cast<double>(queue_capacity));
  return std::clamp<std::size_t>(share, 1, queue_capacity);
}

bool AdmissionController::DeadlineFeasible(QoS qos, double deadline_seconds,
                                           std::size_t queue_depth) const {
  if (!policy_.reject_infeasible_deadlines) return true;
  if (qos == QoS::kCritical) return true;  // served regardless
  if (deadline_seconds <= 0) return true;  // no deadline to miss
  const double est = EstimatedServiceSeconds();
  if (est <= 0) return true;  // nothing observed yet: fail open
  const double eta =
      est * (1.0 + static_cast<double>(queue_depth) / replicas_);
  return deadline_seconds + 1e-12 >= eta;
}

void AdmissionController::RecordServiceTime(double seconds) {
  if (seconds <= 0) return;
  ewma_seconds_ = ewma_seconds_ <= 0
                      ? seconds
                      : policy_.ewma_alpha * seconds +
                            (1.0 - policy_.ewma_alpha) * ewma_seconds_;
}

double AdmissionController::EstimatedServiceSeconds() const {
  return policy_.service_estimate_seconds > 0 ? policy_.service_estimate_seconds
                                              : ewma_seconds_;
}

DegradationController::DegradationController(DegradationPolicy policy,
                                             int levels)
    : policy_(policy), levels_(std::max(1, levels)) {
  ratios_.reserve(policy_.latency_window);
}

void DegradationController::RecordCompletion(double latency_seconds,
                                             double deadline_seconds) {
  if (deadline_seconds <= 0) return;
  const double ratio = latency_seconds / deadline_seconds;
  if (ratios_.size() < policy_.latency_window) {
    ratios_.push_back(ratio);
  } else {
    ratios_[ratio_next_] = ratio;
  }
  ratio_next_ = (ratio_next_ + 1) % std::max<std::size_t>(
                                        1, policy_.latency_window);
}

double DegradationController::WindowP99Ratio() const {
  if (ratios_.empty()) return -1;
  std::vector<double> sorted = ratios_;
  const std::size_t idx = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(sorted.size() - 1)));
  std::nth_element(sorted.begin(), sorted.begin() + idx, sorted.end());
  return sorted[idx];
}

int DegradationController::OnSeal(std::size_t queue_depth,
                                  std::size_t queue_capacity) {
  if (levels_ <= 1) return 0;
  const double occupancy =
      queue_capacity > 0
          ? static_cast<double>(queue_depth) / queue_capacity
          : 0.0;
  const double p99 = WindowP99Ratio();
  const bool pressure =
      occupancy >= policy_.degrade_queue_fraction || p99 > 1.0;
  const bool relief =
      occupancy <= policy_.upgrade_queue_fraction &&
      (p99 < 0 || p99 <= 1.0 - policy_.deadline_slack_fraction);
  if (pressure) {
    relief_streak_ = 0;
    if (++pressure_streak_ >= policy_.hysteresis_seals &&
        level_ + 1 < levels_) {
      ++level_;
      ++downshifts_;
      pressure_streak_ = 0;
      ratios_.clear();
      ratio_next_ = 0;
    }
  } else if (relief) {
    pressure_streak_ = 0;
    if (++relief_streak_ >= policy_.hysteresis_seals && level_ > 0) {
      --level_;
      ++upshifts_;
      relief_streak_ = 0;
      ratios_.clear();
      ratio_next_ = 0;
    }
  } else {
    // The hysteresis band between the fractions: agree with neither
    // direction, reset both streaks.
    pressure_streak_ = 0;
    relief_streak_ = 0;
  }
  return level_;
}

}  // namespace runtime
}  // namespace shflbw
