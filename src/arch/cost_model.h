// Analytical GPU timing model: turns KernelStats (bytes moved, MACs
// issued, launch shape) into modelled execution time on a GpuSpec.
//
// Model: a kernel is limited by the slowest of three rooflines —
// compute (tensor-core or CUDA-core peak), DRAM bandwidth, and L2
// bandwidth — each derated by the calibrated efficiency of its kernel
// class. Fixed costs (kernel launch, software-pipeline fill) add on top.
// This is the standard roofline formulation the paper itself uses in
// §3.2.2 to argue about operation intensity.
#pragma once

#include "arch/efficiency.h"
#include "arch/gpu_spec.h"
#include "arch/kernel_stats.h"

namespace shflbw {

/// Which roofline a kernel sits under.
enum class Bound { kCompute, kDram, kL2, kOverhead };

/// Per-component modelled times (seconds).
struct TimeBreakdown {
  double compute_s = 0;
  double dram_s = 0;
  double l2_s = 0;
  double launch_s = 0;
  double pipeline_fill_s = 0;
  double total_s = 0;
  Bound bound = Bound::kCompute;

  /// Achieved useful FLOP/s.
  double Throughput(double useful_flops) const {
    return total_s > 0 ? useful_flops / total_s : 0.0;
  }
};

/// Roofline + overhead timing model.
class CostModel {
 public:
  explicit CostModel(const GpuSpec& spec) : spec_(spec) {}

  /// Models the execution time of one kernel launch (or an aggregate of
  /// launches if stats.num_kernel_launches > 1).
  TimeBreakdown Estimate(const KernelStats& stats) const;

  /// Convenience: total seconds.
  double Seconds(const KernelStats& stats) const {
    return Estimate(stats).total_s;
  }

  const GpuSpec& spec() const { return spec_; }

 private:
  GpuSpec spec_;
};

}  // namespace shflbw
