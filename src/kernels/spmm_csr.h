// Unstructured CSR SpMM: one execute shared by the two unstructured
// baselines, which differ only in their stats models:
//   * cuSPARSE csrmm2 (the "cuSPARSE" line of Fig. 6): one thread per
//     output row, scalar gathers from B;
//   * Sputnik (Gale et al., SC'20), the strongest CUDA-core unstructured
//     baseline in the paper (Fig. 1 "Cuda-Core Sparse", Fig. 6
//     "Unstructured"): row-split 1-dimensional tiling with vector loads
//     of B and subwarp reductions; no tensor-cores.
#pragma once

#include "arch/gpu_spec.h"
#include "format/csr.h"
#include "kernels/kernel_api.h"

namespace shflbw {

/// C = A_csr * B, fp16 operands / fp32 accumulation: pre-rounds both
/// operands through fp16 once, then accumulates each output row in
/// ascending column order (pure float FMA), rows in parallel.
Matrix<float> SpmmCsr(const CsrMatrix& a, const Matrix<float>& b);

/// Stats models for shape (m, n, k) at non-zero count nnz.
KernelStats SpmmCsrScalarStats(int m, int n, int k, double nnz,
                               const GpuSpec& spec);
KernelStats SpmmSputnikStats(int m, int n, int k, double nnz,
                             const GpuSpec& spec);

}  // namespace shflbw
