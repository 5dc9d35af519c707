// The Shfl-BW tensor-core SpMM — the paper's kernel (§4, Algorithm 1,
// Fig. 4). Composition of:
//   (a) offline processing: the ShflBwMatrix format (vector-wise storage
//       over reordered rows + original row indices);
//   (b) in-buffer stitching of the dense operand (§4.3);
//   (c) tensor-core MMA over dense stitched tiles;
//   (d) two-level pipelining with bulk metadata prefetch (§4.4),
//       modelled by PipelineSchedule rather than executed;
//   (e) reordered write-back to original row positions (§4.2).
#pragma once

#include "arch/gpu_spec.h"
#include "format/shfl_bw.h"
#include "kernels/spmm_vector_wise.h"

namespace shflbw {

/// C = A_shflbw * B on tensor-cores; C rows are in ORIGINAL order.
/// Algorithm 1's pipeline schedule is modelled by PipelineSchedule.
Matrix<float> SpmmShflBw(const ShflBwMatrix& a, const Matrix<float>& b);

/// Stats model of SpmmShflBw on `a` with n activation columns, at the
/// default tile configuration.
KernelStats SpmmShflBwStats(const ShflBwMatrix& a, int n, const GpuSpec& spec);

/// Execute plus stats at the default tile configuration.
KernelResult SpmmShflBw(const ShflBwMatrix& a, const Matrix<float>& b,
                        const GpuSpec& spec);

/// Stats-only model for a layer of shape (m, n, k) pruned to Shfl-BW with
/// vector size v at stored density `alpha` (kept vectors spread evenly
/// across groups) — SpmmVectorWiseStats plus the row-index metadata.
KernelStats SpmmShflBwStats(int m, int n, int k, double alpha, int v,
                            const GpuSpec& spec, const TileConfig& cfg = {});

}  // namespace shflbw
