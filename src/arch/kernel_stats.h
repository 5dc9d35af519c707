// Per-kernel-invocation resource counts. Every kernel in src/kernels has
// a stats model (its *Stats functions) that fills one of these without
// executing, by counting exactly the traffic and instructions the
// corresponding CUDA kernel would issue. The cost model turns these
// counts into modelled time on a GpuSpec.
#pragma once

#include <string>

namespace shflbw {

/// Kernel implementation classes; each has its own calibrated efficiency
/// factors (see efficiency.h) because real libraries achieve different
/// fractions of peak.
enum class KernelClass {
  kDenseTensorCore,   // cuBLAS / cuDNN half GEMM on tensor-cores
  kDenseCudaCore,     // cuBLAS half GEMM on CUDA-cores
  kCsrScalar,         // cuSPARSE csrmm-style scalar SpMM
  kSputnik,           // Sputnik row-split unstructured SpMM (CUDA-cores)
  kBsrTensorCore,     // cuSPARSE block-wise (BSR) SpMM on tensor-cores
  kVectorWiseTensorCore,  // our vector-wise TC SpMM
  kShflBwTensorCore,      // our Shfl-BW TC SpMM (the paper's kernel)
  kBalanced24,        // cuSPARSELt 2:4 structured sparsity
  kVectorSparse,      // Chen et al. SC'21, small-V (V<=8) TC kernel
  kTilewise,          // Guo et al. SC'20, multi-stream tile-wise
};

std::string KernelClassName(KernelClass k);

/// Resource counts for one kernel launch.
struct KernelStats {
  std::string kernel_name;
  KernelClass kernel_class = KernelClass::kDenseTensorCore;
  bool tensor_core = false;

  // Work.
  double useful_flops = 0;  // 2 * nnz * N — FLOPs that contribute to C
  double issued_macs = 0;   // MACs actually issued, incl. padding/wasted lanes

  // Memory traffic, in bytes.
  double dram_read_bytes = 0;   // unique data + capacity misses
  double dram_write_bytes = 0;  // output write-back
  double l2_read_bytes = 0;     // total loads served by LLC (>= dram reads)
  double metadata_bytes = 0;    // sparse indices (subset of dram_read_bytes)

  // Shape of the launch (for occupancy/pipeline modelling).
  int block_size = 0;  // V for block/vector/Shfl-BW kernels, else 0
  int threadblocks = 0;
  int main_loop_iters = 0;    // K-loop steps per threadblock
  int pipeline_stages = 0;    // software pipeline depth (0 = unpipelined)
  int num_streams = 1;        // >1 only for the Tilewise baseline
  int num_kernel_launches = 1;

  /// Accumulates another launch's stats (used by multi-layer evaluation
  /// and the multi-stream Tilewise model).
  KernelStats& operator+=(const KernelStats& o);

  /// FLOP per DRAM byte — the operation intensity of §3.2.2.
  double OperationIntensity() const {
    const double bytes = dram_read_bytes + dram_write_bytes;
    return bytes > 0 ? useful_flops / bytes : 0.0;
  }
};

}  // namespace shflbw
