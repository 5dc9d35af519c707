#include "kernels/conv2d.h"

#include "common/check.h"
#include "common/hot_path.h"
#include "common/thread_pool.h"
#include "kernels/gemm_dense.h"
#include "kernels/spmm_shfl_bw.h"

namespace shflbw {

Matrix<float> Im2Col(const Tensor4& input, const ConvShape& shape) {
  SHFLBW_CHECK_MSG(input.n == shape.batch && input.c == shape.in_c &&
                       input.h == shape.in_h && input.w == shape.in_w,
                   "input tensor does not match conv shape");
  const int oh = shape.OutH();
  const int ow = shape.OutW();
  Matrix<float> b(shape.GemmK(), shape.GemmN());
  // Input channels write disjoint row bands of the unfolded matrix, so
  // the unfold runs channel-parallel.
  auto unfold_channel = [&](int ci) {
    SHFLBW_HOT_BEGIN;
    for (int r = 0; r < shape.kh; ++r) {
      for (int s = 0; s < shape.kw; ++s) {
        const int row = (ci * shape.kh + r) * shape.kw + s;
        for (int bi = 0; bi < shape.batch; ++bi) {
          for (int y = 0; y < oh; ++y) {
            const int hy = y * shape.stride - shape.pad + r;
            for (int x = 0; x < ow; ++x) {
              const int wx = x * shape.stride - shape.pad + s;
              const int col = (bi * oh + y) * ow + x;
              const bool in_bounds =
                  hy >= 0 && hy < shape.in_h && wx >= 0 && wx < shape.in_w;
              b(row, col) = in_bounds ? input.at(bi, ci, hy, wx) : 0.0f;
            }
          }
        }
      }
    }
    SHFLBW_HOT_END;
  };
  ParallelFor(0, shape.in_c, /*grain=*/1,
              [&](std::int64_t lo, std::int64_t hi) {
                for (std::int64_t ci = lo; ci < hi; ++ci) {
                  unfold_channel(static_cast<int>(ci));
                }
              });
  return b;
}

Matrix<float> FilterToMatrix(const std::vector<float>& filter,
                             const ConvShape& shape) {
  const std::size_t expected = static_cast<std::size_t>(shape.out_c) *
                               shape.in_c * shape.kh * shape.kw;
  SHFLBW_CHECK_MSG(filter.size() == expected,
                   "filter size " << filter.size() << " != " << expected);
  // [out_c][in_c][kh][kw] is already row-major out_c x (in_c*kh*kw).
  return Matrix<float>(shape.out_c, shape.GemmK(),
                       std::vector<float>(filter));
}

namespace {

/// Adjusts a GEMM stats object for implicit-GEMM convolution: the dense
/// operand's unique DRAM footprint is the feature map itself, not the
/// kh*kw-duplicated unfolded matrix (duplication is materialized only in
/// on-chip buffers, §4.1).
void DeduplicateActivationTraffic(KernelStats& s, const ConvShape& shape,
                                  const GpuSpec& spec) {
  const double unfolded =
      static_cast<double>(shape.GemmK()) * shape.GemmN() * kHalfBytes;
  const double feature_map = static_cast<double>(shape.batch) * shape.in_c *
                             shape.in_h * shape.in_w * kHalfBytes;
  // Replace the unfolded-B contribution with the feature map, using the
  // same slice-resident reload rule the GEMM stats applied (a K x 128
  // column slice of B held in L2 across row passes).
  const double passes =
      std::max(1.0, static_cast<double>(shape.GemmM()) / 128.0);
  const double slice = static_cast<double>(shape.GemmK()) * 128 * kHalfBytes;
  const double old_b =
      unfolded * ReloadFactor(slice, spec.l2_capacity, passes);
  const double new_b =
      feature_map * ReloadFactor(slice, spec.l2_capacity, passes);
  s.dram_read_bytes = std::max(0.0, s.dram_read_bytes - old_b) + new_b;
}

}  // namespace

KernelStats Conv2dDenseStats(const ConvShape& shape, const GpuSpec& spec) {
  KernelStats s =
      GemmTensorCoreStats(shape.GemmM(), shape.GemmN(), shape.GemmK(), spec);
  s.kernel_name = "cudnn-implicit-gemm";
  DeduplicateActivationTraffic(s, shape, spec);
  return s;
}

KernelStats Conv2dShflBwStats(const ConvShape& shape, double alpha, int v,
                              const GpuSpec& spec, const TileConfig& cfg) {
  KernelStats s = SpmmShflBwStats(shape.GemmM(), shape.GemmN(), shape.GemmK(),
                                  alpha, v, spec, cfg);
  s.kernel_name = "shflbw-implicit-gemm";
  DeduplicateActivationTraffic(s, shape, spec);
  return s;
}

KernelStats Conv2dVectorWiseStats(const ConvShape& shape, double alpha, int v,
                                  const GpuSpec& spec,
                                  const TileConfig& cfg) {
  KernelStats s = Conv2dShflBwStats(shape, alpha, v, spec, cfg);
  s.kernel_name = "vw-implicit-gemm";
  s.kernel_class = KernelClass::kVectorWiseTensorCore;
  s.metadata_bytes -= 4.0 * shape.GemmM();
  s.dram_read_bytes -= 4.0 * shape.GemmM();
  return s;
}

Matrix<float> Conv2dDense(const Tensor4& input, const Matrix<float>& weights,
                          const ConvShape& shape) {
  SHFLBW_CHECK_MSG(weights.rows() == shape.out_c &&
                       weights.cols() == shape.GemmK(),
                   "weights " << weights.rows() << "x" << weights.cols()
                              << " do not match conv shape");
  return GemmReference(weights, Im2Col(input, shape));
}

KernelResult Conv2dDense(const Tensor4& input, const Matrix<float>& weights,
                         const ConvShape& shape, const GpuSpec& spec) {
  return {Conv2dDense(input, weights, shape), Conv2dDenseStats(shape, spec)};
}

Matrix<float> Conv2dShflBw(const Tensor4& input, const ShflBwMatrix& weights,
                           const ConvShape& shape) {
  SHFLBW_CHECK_MSG(weights.rows() == shape.out_c &&
                       weights.cols() == shape.GemmK(),
                   "sparse weights do not match conv shape");
  return SpmmShflBw(weights, Im2Col(input, shape));
}

}  // namespace shflbw
