#include "runtime/format.h"

#include <cmath>
#include <cstdio>
#include <iterator>

#include "common/check.h"
#include "kernels/gemm_dense.h"
#include "kernels/spmm_balanced24.h"
#include "kernels/spmm_bsr.h"
#include "kernels/spmm_csr.h"
#include "kernels/spmm_shfl_bw.h"
#include "kernels/spmm_vector_wise.h"
#include "prune/balanced24_prune.h"
#include "prune/block_wise.h"
#include "prune/shfl_bw_search.h"
#include "prune/unstructured.h"
#include "prune/vector_wise_prune.h"

namespace shflbw {
namespace runtime {
namespace {

constexpr const char* kVNotDividingM = "m not divisible by V";
constexpr const char* kVNotDividingOutC = "out_c not divisible by V";

// Indexed by Format; AllFormats() is this order.
constexpr FormatOps kOps[] = {
    {
        .format = Format::kDense,
        .name = "dense",
        .fixed_density = 0,
        .mask = [](const Matrix<float>& scores, double, int) {
          return FormatMask{
              Matrix<float>(scores.rows(), scores.cols(), 1.0f), {}};
        },
        // Kernels round operands through fp16 per call; rounding the
        // weight once here keeps the execution path conversion-free.
        .pack = [](const Matrix<float>& pruned, int, const std::vector<int>&,
                   PackedWeight& out) {
          out.dense = RoundThroughFp16(pruned);
        },
        .gemm = [](const PackedWeight& w, const Matrix<float>& act) {
          return GemmReference(w.dense, act);
        },
        .gemm_model = [](int m, int n, int k, double, int,
                         const GpuSpec& spec) {
          return LayerModel{GemmTensorCoreStats(m, n, k, spec)};
        },
        .conv = [](const PackedWeight& w, const ConvShape& shape,
                   const Tensor4& input) {
          return Conv2dDense(input, w.dense, shape);
        },
        .conv_model = [](const ConvShape& shape, double, int,
                         const GpuSpec& spec) {
          return LayerModel{Conv2dDenseStats(shape, spec)};
        },
    },
    {
        .format = Format::kCsr,
        .name = "csr",
        .fixed_density = 0,
        .mask = [](const Matrix<float>& scores, double density, int) {
          return FormatMask{UnstructuredMask(scores, density), {}};
        },
        .pack = [](const Matrix<float>& pruned, int, const std::vector<int>&,
                   PackedWeight& out) {
          out.csr = CsrMatrix::FromDense(pruned);
        },
        .gemm = [](const PackedWeight& w, const Matrix<float>& act) {
          return SpmmCsr(w.csr, act);
        },
        .gemm_model = [](int m, int n, int k, double density, int,
                         const GpuSpec& spec) {
          return LayerModel{SpmmSputnikStats(m, n, k, density * m * k, spec)};
        },
        .conv = nullptr,
        .conv_model = nullptr,
    },
    {
        .format = Format::kBsr,
        .name = "bsr",
        .fixed_density = 0,
        .mask = [](const Matrix<float>& scores, double density, int v) {
          return FormatMask{BlockWiseMask(scores, density, v), {}};
        },
        .pack = [](const Matrix<float>& pruned, int v, const std::vector<int>&,
                   PackedWeight& out) {
          out.bsr = BsrMatrix::FromDense(pruned, v);
        },
        .gemm = [](const PackedWeight& w, const Matrix<float>& act) {
          return SpmmBsr(w.bsr, act);
        },
        .gemm_model = [](int m, int n, int k, double density, int v,
                         const GpuSpec& spec) {
          if (m % v != 0 || k % v != 0) {
            return LayerModel{std::nullopt, "m or k not divisible by V"};
          }
          const double nnz_blocks = density * (static_cast<double>(m) / v) *
                                    (static_cast<double>(k) / v);
          return LayerModel{SpmmBsrStats(m, n, k, nnz_blocks, v, spec)};
        },
        .conv = nullptr,
        .conv_model = nullptr,
    },
    {
        .format = Format::kBalanced24,
        .name = "2:4",
        .fixed_density = 0.5,
        .mask = [](const Matrix<float>& scores, double density, int) {
          const FormatOps& ops = Ops(Format::kBalanced24);
          SHFLBW_CHECK_MSG(ops.HoldsDensity(density),
                           ops.FixedDensityRule() << ", got " << density);
          return FormatMask{Balanced24Mask(scores), {}};
        },
        .pack = [](const Matrix<float>& pruned, int, const std::vector<int>&,
                   PackedWeight& out) {
          out.balanced24 = Balanced24Matrix::FromDense(pruned);
        },
        .gemm = [](const PackedWeight& w, const Matrix<float>& act) {
          return SpmmBalanced24(w.balanced24, act);
        },
        .gemm_model = [](int m, int n, int k, double, int,
                         const GpuSpec& spec) {
          if (spec.arch != GpuArch::kA100) {
            return LayerModel{std::nullopt, "sparse tensor-core is A100-only"};
          }
          if (k % 4 != 0) {
            return LayerModel{std::nullopt, "k not divisible by 4"};
          }
          return LayerModel{SpmmBalanced24Stats(m, n, k, spec)};
        },
        .conv = nullptr,
        .conv_model = nullptr,
    },
    {
        .format = Format::kVectorWise,
        .name = "vw",
        .fixed_density = 0,
        .mask = [](const Matrix<float>& scores, double density, int v) {
          return FormatMask{VectorWiseMask(scores, density, v), {}};
        },
        .pack = [](const Matrix<float>& pruned, int v, const std::vector<int>&,
                   PackedWeight& out) {
          out.vw = VectorWiseMatrix::FromDense(pruned, v);
        },
        .gemm = [](const PackedWeight& w, const Matrix<float>& act) {
          return SpmmVectorWise(w.vw, act);
        },
        .gemm_model = [](int m, int n, int k, double density, int v,
                         const GpuSpec& spec) {
          if (m % v != 0) return LayerModel{std::nullopt, kVNotDividingM};
          return LayerModel{SpmmVectorWiseStats(m, n, k, density, v, spec)};
        },
        // Implicit GEMM with the VW kernel: Conv2dShflBw minus the row
        // shuffle (the unfold is shared with Conv2dDense).
        .conv = [](const PackedWeight& w, const ConvShape& shape,
                   const Tensor4& input) {
          SHFLBW_CHECK_MSG(
              w.vw.rows == shape.out_c && w.vw.cols == shape.GemmK(),
              "sparse weights do not match conv shape");
          return SpmmVectorWise(w.vw, Im2Col(input, shape));
        },
        .conv_model = [](const ConvShape& shape, double density, int v,
                         const GpuSpec& spec) {
          if (shape.GemmM() % v != 0) {
            return LayerModel{std::nullopt, kVNotDividingOutC};
          }
          return LayerModel{Conv2dVectorWiseStats(shape, density, v, spec)};
        },
    },
    {
        .format = Format::kShflBw,
        .name = "shfl-bw",
        .fixed_density = 0,
        .mask = [](const Matrix<float>& scores, double density, int v) {
          ShflBwSearchResult search = ShflBwSearch(scores, density, v);
          return FormatMask{std::move(search.mask),
                            std::move(search.storage_to_original)};
        },
        .pack = [](const Matrix<float>& pruned, int v,
                   const std::vector<int>& storage_to_original,
                   PackedWeight& out) {
          out.shflbw = ShflBwMatrix::FromDense(pruned, v, storage_to_original);
        },
        .gemm = [](const PackedWeight& w, const Matrix<float>& act) {
          return SpmmShflBw(w.shflbw, act);
        },
        .gemm_model = [](int m, int n, int k, double density, int v,
                         const GpuSpec& spec) {
          if (m % v != 0) return LayerModel{std::nullopt, kVNotDividingM};
          return LayerModel{SpmmShflBwStats(m, n, k, density, v, spec)};
        },
        .conv = [](const PackedWeight& w, const ConvShape& shape,
                   const Tensor4& input) {
          return Conv2dShflBw(input, w.shflbw, shape);
        },
        .conv_model = [](const ConvShape& shape, double density, int v,
                         const GpuSpec& spec) {
          if (shape.GemmM() % v != 0) {
            return LayerModel{std::nullopt, kVNotDividingOutC};
          }
          return LayerModel{Conv2dShflBwStats(shape, density, v, spec)};
        },
    },
};

constexpr bool InFormatOrder() {
  for (std::size_t i = 0; i < std::size(kOps); ++i) {
    if (static_cast<std::size_t>(kOps[i].format) != i) return false;
  }
  return true;
}
static_assert(InFormatOrder(), "kOps must be indexed by Format");

}  // namespace

double PackedWeight::StoredValues() const {
  // Only the member matching `format` is populated; the others hold no
  // values.
  return static_cast<double>(dense.size() + csr.values.size() +
                             bsr.values.size() + balanced24.values.size() +
                             vw.values.size() + shflbw.vw.values.size());
}

const FormatOps& Ops(Format f) {
  const auto i = static_cast<std::size_t>(f);
  SHFLBW_CHECK_MSG(i < std::size(kOps), "unknown Format " << i);
  return kOps[i];
}

bool FormatOps::HoldsDensity(double density) const {
  return fixed_density == 0 || std::abs(density - fixed_density) <= 1e-9;
}

std::string FormatOps::FixedDensityRule() const {
  // snprintf, not a stream: every plan whose ladder lacks 0.5 asks for
  // this reason, and a process's first stream initializes the iostream
  // locale (about 0.9 MB resident with libstdc++). %g prints what
  // operator<< prints for a double.
  char rule[64];
  std::snprintf(rule, sizeof rule, "%s fixes density at %g", name,
                fixed_density);
  return rule;
}

const std::vector<Format>& AllFormats() {
  static const std::vector<Format> kAll = [] {
    std::vector<Format> all;
    for (const FormatOps& ops : kOps) all.push_back(ops.format);
    return all;
  }();
  return kAll;
}

std::string FormatName(Format f) { return Ops(f).name; }

Format ParseFormat(const std::string& name) {
  for (const FormatOps& ops : kOps) {
    if (ops.name == name) return ops.format;
  }
  throw Error("unknown format name: " + name);
}

}  // namespace runtime
}  // namespace shflbw
