// cuSPARSE-style block-wise (BSR) tensor-core SpMM — the "BW" baseline
// of Fig. 6. Dense V x V blocks map directly onto MMA tiles, giving the
// best possible data reuse but with the accuracy cost of block pruning
// and cuSPARSE's erratic efficiency across GPUs/V (§6.2).
#pragma once

#include "arch/gpu_spec.h"
#include "format/bsr.h"
#include "kernels/kernel_api.h"

namespace shflbw {

/// C = A_bsr * B on tensor-cores.
Matrix<float> SpmmBsr(const BsrMatrix& a, const Matrix<float>& b);

/// Stats-only model: m, n, k element dims; nnz_blocks stored blocks of
/// size v.
KernelStats SpmmBsrStats(int m, int n, int k, double nnz_blocks, int v,
                         const GpuSpec& spec, const TileConfig& cfg = {});

}  // namespace shflbw
