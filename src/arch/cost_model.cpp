#include "arch/cost_model.h"

#include <algorithm>

#include "common/check.h"

namespace shflbw {

std::string KernelClassName(KernelClass k) {
  switch (k) {
    case KernelClass::kDenseTensorCore: return "dense-tc";
    case KernelClass::kDenseCudaCore: return "dense-cuda";
    case KernelClass::kCsrScalar: return "csr-scalar";
    case KernelClass::kSputnik: return "sputnik";
    case KernelClass::kBsrTensorCore: return "bsr-tc";
    case KernelClass::kVectorWiseTensorCore: return "vw-tc";
    case KernelClass::kShflBwTensorCore: return "shflbw-tc";
    case KernelClass::kBalanced24: return "balanced-2in4";
    case KernelClass::kVectorSparse: return "vectorsparse";
    case KernelClass::kTilewise: return "tilewise";
  }
  return "?";
}

KernelStats& KernelStats::operator+=(const KernelStats& o) {
  useful_flops += o.useful_flops;
  issued_macs += o.issued_macs;
  dram_read_bytes += o.dram_read_bytes;
  dram_write_bytes += o.dram_write_bytes;
  l2_read_bytes += o.l2_read_bytes;
  metadata_bytes += o.metadata_bytes;
  block_size = std::max(block_size, o.block_size);
  threadblocks += o.threadblocks;
  main_loop_iters = std::max(main_loop_iters, o.main_loop_iters);
  pipeline_stages = std::max(pipeline_stages, o.pipeline_stages);
  num_streams = std::max(num_streams, o.num_streams);
  num_kernel_launches += o.num_kernel_launches;
  tensor_core = tensor_core || o.tensor_core;
  return *this;
}

namespace {

// ---------------------------------------------------------------------
// Calibration table. Anchors (paper observations) for each class:
//  * dense-tc      : cuBLAS half GEMM reaches ~50-60% of TC peak on DNN
//                    shapes; this with the traffic model places the
//                    Fig. 1 "Tensor-Core" line 4x above "Cuda-Core".
//  * dense-cuda    : cuBLAS half on CUDA-cores, ~55% of peak.
//  * sputnik       : Fig. 1 — crosses dense-cuda at 65% sparsity, crosses
//                    dense-tc only at ~95%; memory-bound behaviour from
//                    its gather traffic, compute derate 0.35 relative.
//  * csr-scalar    : cuSPARSE unstructured is strictly worse than Sputnik
//                    ("cuSPARSE requires >98% sparsity", §1).
//  * bsr-tc        : comparable to ours on average but erratic —
//                    CusparseBsrInstability supplies the per-arch/V swing.
//  * vw/shflbw-tc  : our kernels; Fig. 6 headline 1.81/4.18/1.90x at 75%
//                    on Transformer fixes compute ~0.62/0.57 and dram
//                    ~0.75. Shfl-BW == VW efficiency: the reordered
//                    write-back adds traffic, not derating (§6.2 shows
//                    0.97-1.02x).
//  * balanced-2in4 : cuSPARSELt 50% kernels give 1.07-1.16x end-to-end
//                    (§6.2) — effective compute ~0.60 of the 2x-boosted
//                    TC peak, but must still read the full activation.
//  * vectorsparse  : V=8 limits reuse (traffic model) and its fixed
//                    small-tile schedule derates compute.
//  * tilewise      : per-stream launch overheads dominate (modelled via
//                    num_streams); kernel efficiency itself mid-range.
// ---------------------------------------------------------------------

struct EffRow {
  KernelClass k;
  Efficiency v100;
  Efficiency t4;
  Efficiency a100;
};

// Columns: V100, T4, A100. Each entry {compute, dram, l2} fraction of
// peak. T4's dense-tc compute fraction is low (0.33): sustained T4
// tensor-core throughput is well documented to sit far below the 65T
// datasheet number under thermal limits, and this is what lets the
// paper's sparse kernel reach >4x there (its traffic-bound time is
// unaffected by the dense kernel's compute ceiling).
constexpr EffRow kEffTable[] = {
    {KernelClass::kDenseTensorCore,
     {0.55, 0.80, 0.80}, {0.33, 0.80, 0.80}, {0.55, 0.85, 0.85}},
    {KernelClass::kDenseCudaCore,
     {0.55, 0.80, 0.85}, {0.55, 0.80, 0.85}, {0.55, 0.80, 0.85}},
    {KernelClass::kCsrScalar,
     {0.10, 0.35, 0.60}, {0.10, 0.35, 0.60}, {0.10, 0.35, 0.60}},
    {KernelClass::kSputnik,
     {0.18, 0.62, 0.90}, {0.18, 0.62, 0.90}, {0.18, 0.62, 0.90}},
    {KernelClass::kBsrTensorCore,
     {0.62, 0.42, 0.75}, {0.75, 0.97, 0.50}, {0.60, 0.82, 0.85}},
    {KernelClass::kVectorWiseTensorCore,
     {0.62, 0.42, 0.75}, {0.75, 0.97, 0.50}, {0.60, 0.82, 0.85}},
    {KernelClass::kShflBwTensorCore,
     {0.62, 0.42, 0.75}, {0.75, 0.97, 0.50}, {0.60, 0.82, 0.85}},
    {KernelClass::kBalanced24,
     {0.45, 0.50, 0.80}, {0.45, 0.50, 0.80}, {0.45, 0.50, 0.80}},
    {KernelClass::kVectorSparse,
     {0.35, 0.47, 0.75}, {0.35, 0.70, 0.50}, {0.35, 0.75, 0.85}},
    {KernelClass::kTilewise,
     {0.45, 0.47, 0.75}, {0.45, 0.70, 0.50}, {0.45, 0.75, 0.85}},
};

}  // namespace

Efficiency EfficiencyFor(KernelClass k, GpuArch arch) {
  for (const auto& row : kEffTable) {
    if (row.k != k) continue;
    switch (arch) {
      case GpuArch::kV100: return row.v100;
      case GpuArch::kT4: return row.t4;
      case GpuArch::kA100: return row.a100;
      case GpuArch::kCdna1:
      case GpuArch::kAmx:
        // Extension targets have no published library anchors; assume
        // V100-maturity software (docs/REPRODUCTION.md §4).
        return row.v100;
    }
  }
  throw Error("no efficiency entry for kernel class " + KernelClassName(k));
}

double CusparseBsrInstability(GpuArch arch, int block_size) {
  // §6.2: "Shfl-BW is in average 2.88x cusparse block-wise on T4 GPU at
  // V=64, but only 0.83x on V100 at V=32" — i.e. cuSPARSE BSR is *faster*
  // than ours on V100 at small blocks and far slower on T4 at large ones.
  switch (arch) {
    case GpuArch::kV100: return block_size <= 32 ? 0.80 : 1.35;
    case GpuArch::kT4: return block_size <= 32 ? 1.80 : 2.80;
    case GpuArch::kA100: return block_size <= 32 ? 1.25 : 1.60;
    case GpuArch::kCdna1:
    case GpuArch::kAmx:
      return 1.0;  // no cuSPARSE on non-NVIDIA targets
  }
  return 1.0;
}

TimeBreakdown CostModel::Estimate(const KernelStats& s) const {
  const Efficiency eff = EfficiencyFor(s.kernel_class, spec_.arch);

  const double peak_flops =
      s.tensor_core ? spec_.tensor_core_flops : spec_.cuda_core_flops;

  TimeBreakdown t;
  t.compute_s = (2.0 * s.issued_macs) / (peak_flops * eff.compute);
  t.dram_s = (s.dram_read_bytes + s.dram_write_bytes) /
             (spec_.dram_bandwidth * eff.dram);
  t.l2_s = s.l2_read_bytes / (spec_.l2_bandwidth * eff.l2);

  // Fixed costs. Multi-stream baselines (Tilewise) launch many small
  // kernels spread over a stream pool: launches overlap across streams,
  // but each stream adds a synchronization cost at the end — the
  // overhead the paper observes "when the number of streams grows".
  const int launches = std::max(1, s.num_kernel_launches);
  const int streams = std::max(1, s.num_streams);
  if (streams > 1) {
    t.launch_s = spec_.kernel_launch_overhead *
                 (static_cast<double>(launches) / streams + streams);
  } else {
    t.launch_s = spec_.kernel_launch_overhead * launches;
  }
  if (s.pipeline_stages > 0 && s.main_loop_iters > 0) {
    // Prologue iterations before the MMA loop reaches steady state. On
    // real hardware the fill cost is bounded by load latency, not by a
    // full iteration's bandwidth share, so cap it at 10% of the roof.
    const double roof_est = std::max({t.compute_s, t.dram_s, t.l2_s});
    t.pipeline_fill_s = std::min(
        roof_est / s.main_loop_iters * s.pipeline_stages, 0.1 * roof_est);
  }

  const double roof = std::max({t.compute_s, t.dram_s, t.l2_s});
  t.total_s = roof + t.launch_s + t.pipeline_fill_s;

  if (roof == t.compute_s) t.bound = Bound::kCompute;
  else if (roof == t.dram_s) t.bound = Bound::kDram;
  else t.bound = Bound::kL2;
  if (t.launch_s + t.pipeline_fill_s > roof) t.bound = Bound::kOverhead;

  // cuSPARSE BSR erratic-performance multiplier (see efficiency.h).
  if (s.kernel_class == KernelClass::kBsrTensorCore && s.block_size > 0) {
    t.total_s *= CusparseBsrInstability(spec_.arch, s.block_size);
  }
  return t;
}

}  // namespace shflbw
