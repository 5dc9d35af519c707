// cuSPARSELt-style 2:4 balanced-sparsity SpMM, as executed by the A100
// sparse tensor-core (§2.2). The sparse tensor-core doubles MMA
// throughput at exactly 50% sparsity, but the dense operand must still be
// loaded in full before operand selection — the memory-bound issue the
// paper points out; this is why it only reaches 1.07-1.16x end to end.
#pragma once

#include "arch/gpu_spec.h"
#include "format/balanced24.h"
#include "kernels/kernel_api.h"

namespace shflbw {

/// C = A_24 * B: the sparse tensor-core's operand selection + MMA. The
/// result is architecture-independent; only the stats model is A100's
/// (the only evaluated GPU with sparse-TC support).
Matrix<float> SpmmBalanced24(const Balanced24Matrix& a, const Matrix<float>& b);

/// Stats model for shape (m, n, k).
KernelStats SpmmBalanced24Stats(int m, int n, int k, const GpuSpec& spec);

}  // namespace shflbw
