// 2D convolution via the implicit-GEMM algorithm (§4.1: "the input
// feature map is unfolded into a matrix form temporally in on-chip
// buffers"). Dense baseline models cuDNN; the sparse variant runs the
// Shfl-BW SpMM over the unfolded input. Used for the ResNet50 column of
// Fig. 6.
#pragma once

#include <vector>

#include "arch/gpu_spec.h"
#include "common/check.h"
#include "format/shfl_bw.h"
#include "kernels/kernel_api.h"

namespace shflbw {

/// NCHW activation tensor.
struct Tensor4 {
  int n = 0, c = 0, h = 0, w = 0;
  std::vector<float> data;  // n*c*h*w, NCHW

  Tensor4() = default;
  Tensor4(int n_, int c_, int h_, int w_)
      : n(n_), c(c_), h(h_), w(w_),
        data(static_cast<std::size_t>(n_) * c_ * h_ * w_, 0.0f) {}

  float& at(int ni, int ci, int hi, int wi) {
    return data[Index(ni, ci, hi, wi)];
  }
  float at(int ni, int ci, int hi, int wi) const {
    return data[Index(ni, ci, hi, wi)];
  }

  /// Re-shapes in place, reusing storage capacity. Exact-extent like
  /// Matrix<T>::Reshape: shrinking (e.g. a narrower fused batch after a
  /// wide one) drops the tail instead of leaving stale activations
  /// reachable. Contents are unspecified after a shape change.
  void Reshape(int n_, int c_, int h_, int w_) {
    SHFLBW_CHECK_MSG(n_ >= 0 && c_ >= 0 && h_ >= 0 && w_ >= 0,
                     "negative shape " << n_ << "x" << c_ << "x" << h_
                                       << "x" << w_);
    n = n_;
    c = c_;
    h = h_;
    w = w_;
    data.resize(static_cast<std::size_t>(n_) * c_ * h_ * w_);
  }

 private:
  std::size_t Index(int ni, int ci, int hi, int wi) const {
    return ((static_cast<std::size_t>(ni) * c + ci) * h + hi) * w + wi;
  }
};

/// Convolution problem description.
struct ConvShape {
  int batch = 1;
  int in_c = 0, in_h = 0, in_w = 0;
  int out_c = 0;
  int kh = 1, kw = 1;
  int stride = 1;
  int pad = 0;

  int OutH() const { return (in_h + 2 * pad - kh) / stride + 1; }
  int OutW() const { return (in_w + 2 * pad - kw) / stride + 1; }
  /// Implicit-GEMM dims: M = out_c, K = in_c*kh*kw, N = batch*OutH*OutW.
  int GemmM() const { return out_c; }
  int GemmK() const { return in_c * kh * kw; }
  int GemmN() const { return batch * OutH() * OutW(); }
};

/// Unfolds the input into the implicit-GEMM operand: row (ci*kh+r)*kw+s,
/// column ((b*OutH+y)*OutW+x), zero-padded at the borders. Columns are
/// batch-major, so concatenating K inputs along the batch dimension
/// concatenates their unfolded matrices column-block-wise — which is
/// what lets the runtime fuse K requests into one conv launch under the
/// kernel_api.h wide-batch contract (each request's output occupies a
/// contiguous GemmN-wide column block, bit-identical to its own narrow
/// launch).
Matrix<float> Im2Col(const Tensor4& input, const ConvShape& shape);

/// Filter tensor [out_c][in_c][kh][kw] flattened to the GEMM weight
/// matrix out_c x (in_c*kh*kw).
Matrix<float> FilterToMatrix(const std::vector<float>& filter,
                             const ConvShape& shape);

/// Dense cuDNN-style implicit-GEMM convolution on tensor-cores.
/// Output layout: M x N matrix (out channel x (batch*oh*ow)).
Matrix<float> Conv2dDense(const Tensor4& input, const Matrix<float>& weights,
                          const ConvShape& shape);

/// Execute plus Conv2dDenseStats.
KernelResult Conv2dDense(const Tensor4& input, const Matrix<float>& weights,
                         const ConvShape& shape, const GpuSpec& spec);

/// Shfl-BW sparse implicit-GEMM convolution.
Matrix<float> Conv2dShflBw(const Tensor4& input, const ShflBwMatrix& weights,
                           const ConvShape& shape);

/// Stats-only models (used by the ResNet50 layer sweeps): the implicit-
/// GEMM traffic equals the GEMM traffic except the dense operand's DRAM
/// footprint is the (un-duplicated) feature map — the kh*kw overlap is
/// served from L2/shared memory.
KernelStats Conv2dDenseStats(const ConvShape& shape, const GpuSpec& spec);
KernelStats Conv2dShflBwStats(const ConvShape& shape, double alpha, int v,
                              const GpuSpec& spec, const TileConfig& cfg = {});

/// Stats-only model for the vector-wise kernel on conv: identical
/// engine to Shfl-BW minus the row-index metadata of the reordered
/// write-back. Shared by the Fig. 6 evaluator and the runtime planner.
KernelStats Conv2dVectorWiseStats(const ConvShape& shape, double alpha, int v,
                                  const GpuSpec& spec,
                                  const TileConfig& cfg = {});

}  // namespace shflbw
