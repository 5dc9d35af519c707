// Calibrated efficiency factors: the fraction of a GPU's peak compute /
// bandwidth each kernel implementation class achieves in practice.
//
// These are the ONLY fitted constants in the performance model; all other
// behaviour (traffic volumes, operation intensity, crossovers, the
// V100-vs-T4-vs-A100 ordering) is derived from first principles in the
// kernel traffic models. Each constant notes the paper anchor it was fit
// to; see docs/REPRODUCTION.md §1 and §5 for the resulting fidelity.
#pragma once

#include "arch/gpu_spec.h"
#include "arch/kernel_stats.h"

namespace shflbw {

/// Fractions of peak achieved by a kernel class on a given architecture.
struct Efficiency {
  double compute;  // fraction of peak FLOP/s (TC or CUDA-core as applicable)
  double dram;     // fraction of peak DRAM bandwidth
  double l2;       // fraction of peak L2 bandwidth
};

/// Returns calibrated efficiencies for (kernel class, architecture).
Efficiency EfficiencyFor(KernelClass k, GpuArch arch);

/// cuSPARSE block-wise SpMM shows "unstable performance across GPUs and
/// block sizes" (§6.2: 2.88x slower than ours on T4 at V=64 but 1.2x
/// faster on V100 at V=32). This returns the additional multiplier (>1 is
/// slower) applied to the BSR kernel's modelled time for a block size V.
double CusparseBsrInstability(GpuArch arch, int block_size);

}  // namespace shflbw
