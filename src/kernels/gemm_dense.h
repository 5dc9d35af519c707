// Dense GEMM baselines: the cuBLAS tensor-core and CUDA-core kernels the
// paper normalizes against (Fig. 1 "Tensor-Core" / "Cuda-Core" lines,
// Fig. 6 "dense baseline"). Both classes execute as GemmReference; they
// differ only in their stats models.
#pragma once

#include "arch/gpu_spec.h"
#include "kernels/kernel_api.h"

namespace shflbw {

/// Numerically exact reference: C = A * B with fp16 operands and fp32
/// accumulation in ascending-K order. All sparse kernels in this library
/// produce bit-identical results to this reference on the same (masked)
/// A. Output values are representable in fp16 (final round).
Matrix<float> GemmReference(const Matrix<float>& a, const Matrix<float>& b);

/// Stats models of the cuBLAS-style tensor-core GEMM (128x128
/// threadblock tiles) and CUDA-core GEMM (64x64 tiles).
KernelStats GemmTensorCoreStats(int m, int n, int k, const GpuSpec& spec);
KernelStats GemmCudaCoreStats(int m, int n, int k, const GpuSpec& spec);

}  // namespace shflbw
