// Published architectural parameters of the three GPUs the paper evaluates
// on (V100, T4, A100). These feed the analytical performance model that
// substitutes for real-hardware timing (see docs/REPRODUCTION.md §1).
#pragma once

#include <string>
#include <vector>

namespace shflbw {

enum class GpuArch {
  kV100,
  kT4,
  kA100,
  // Extension beyond the paper's evaluation: "tensor-core-like units"
  // on other processors (§7 — AMD CDNA [18], Intel AMX [19]). Same
  // model, different peak numbers; kernel-library efficiencies default
  // to the V100 column (see EfficiencyFor).
  kCdna1,  // AMD MI100-class
  kAmx,    // Intel Sapphire-Rapids-class AMX socket
};

/// Architecture parameters, all from vendor data sheets / whitepapers.
/// Throughputs are half-precision; bandwidths are peak.
struct GpuSpec {
  GpuArch arch;
  std::string name;

  double tensor_core_flops;  // peak fp16 tensor-core FLOP/s
  double cuda_core_flops;    // peak fp16 CUDA-core FLOP/s
  double dram_bandwidth;     // bytes/s
  double l2_bandwidth;       // bytes/s (last-level cache)
  double l2_capacity;        // bytes
  int num_sms;
  double shared_mem_per_sm;   // bytes
  double regfile_per_sm;      // bytes
  double kernel_launch_overhead;  // seconds, per kernel launch

  /// Ratio of tensor-core to CUDA-core throughput (~4x on V100/A100,
  /// used by the paper to place the Fig. 1 curves).
  double TensorCoreAdvantage() const {
    return tensor_core_flops / cuda_core_flops;
  }

  /// FLOP-per-DRAM-byte at which compute and memory time balance.
  /// T4's low value is why the paper sees its largest speedups there
  /// ("lower ratio of computation capability to bandwidth", §6.2).
  double ComputeToBandwidthRatio() const {
    return tensor_core_flops / dram_bandwidth;
  }

  /// MACs that must be performed per value loaded from the LLC to reach
  /// peak tensor-core throughput (the paper computes 63 for A100, §2.1).
  double MacsPerLlcValue(int bytes_per_value = 2) const {
    const double macs_per_s = tensor_core_flops / 2.0;
    const double values_per_s = l2_bandwidth / bytes_per_value;
    return macs_per_s / values_per_s;
  }
};

/// Returns the spec for one of the three evaluated GPUs.
const GpuSpec& GetGpuSpec(GpuArch arch);

/// Parses "V100" / "T4" / "A100" (case-insensitive). Throws on others.
GpuArch ParseGpuArch(const std::string& name);

/// All three evaluation GPUs, in paper order.
const std::vector<GpuSpec>& AllGpus();

/// The extension targets (CDNA, AMX) — not part of the paper's
/// evaluation; used by bench_paper's §7 extension section.
const std::vector<GpuSpec>& ExtensionAccelerators();

}  // namespace shflbw
