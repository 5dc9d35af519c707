// Uniform interface over every kernel's stats model, keyed by
// KernelClass — the engine behind the Fig. 1/2/6 sweeps: given a layer
// shape, sparsity and block size, produce the modelled time of each
// implementation on each GPU.
#pragma once

#include <optional>

#include "arch/cost_model.h"
#include "arch/gpu_spec.h"
#include "arch/kernel_stats.h"

namespace shflbw {

/// A GEMM-shaped layer problem at a given sparsity.
struct LayerProblem {
  int m = 0;  // output features (weight rows)
  int n = 0;  // batch * sequence (activation columns)
  int k = 0;  // input features (weight cols)
  double density = 1.0;  // non-zero ratio alpha (1.0 = dense)
  int v = 32;            // block / vector size where applicable
};

/// Stats model of `klass` on the problem. Returns nullopt where the
/// combination is undefined (e.g. balanced 2:4 at density != 0.5, or a
/// pattern whose V constraint the shape cannot satisfy).
std::optional<KernelStats> LayerStats(KernelClass klass,
                                      const LayerProblem& p,
                                      const GpuSpec& spec);

/// Modelled seconds of `klass` on the problem, through the cost model.
std::optional<double> LayerSeconds(KernelClass klass, const LayerProblem& p,
                                   const GpuSpec& spec);

/// Speedup of `klass` over the dense tensor-core baseline on this GPU.
std::optional<double> SpeedupOverDense(KernelClass klass,
                                       const LayerProblem& p,
                                       const GpuSpec& spec);

}  // namespace shflbw
