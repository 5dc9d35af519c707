// Parameterized convolution sweeps: implicit GEMM must match the direct
// convolution definition across strides, paddings, kernel sizes and
// batch sizes, for both the dense and the Shfl-BW sparse kernels.
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "kernels/conv2d.h"
#include "kernels/gemm_dense.h"
#include "prune/shfl_bw_search.h"

namespace shflbw {
namespace {

// (kh/kw, stride, pad, batch)
using ConvCase = std::tuple<int, int, int, int>;

class ConvSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvSweep, ImplicitGemmMatchesDirectConvolution) {
  const auto [ksize, stride, pad, batch] = GetParam();
  ConvShape s;
  s.batch = batch;
  s.in_c = 3;
  s.in_h = s.in_w = 9;
  s.out_c = 4;
  s.kh = s.kw = ksize;
  s.stride = stride;
  s.pad = pad;
  if (s.OutH() <= 0 || s.OutW() <= 0) GTEST_SKIP();

  Rng rng(900 + ksize * 100 + stride * 10 + pad);
  Tensor4 input(s.batch, s.in_c, s.in_h, s.in_w);
  for (auto& v : input.data) v = static_cast<float>(rng.Normal());
  const Matrix<float> w = rng.NormalMatrix(s.out_c, s.GemmK());

  const Matrix<float> out = Conv2dDense(input, w, s);
  ASSERT_EQ(out.rows(), s.out_c);
  ASSERT_EQ(out.cols(), s.GemmN());

  // Direct convolution in the same fp16/fp32 arithmetic and (ci,r,s)
  // accumulation order.
  for (int oc = 0; oc < s.out_c; ++oc) {
    for (int b = 0; b < s.batch; ++b) {
      for (int y = 0; y < s.OutH(); ++y) {
        for (int x = 0; x < s.OutW(); ++x) {
          float acc = 0.0f;
          for (int ci = 0; ci < s.in_c; ++ci) {
            for (int r = 0; r < s.kh; ++r) {
              for (int ss = 0; ss < s.kw; ++ss) {
                const int hy = y * s.stride - s.pad + r;
                const int wx = x * s.stride - s.pad + ss;
                float iv = 0.0f;
                if (hy >= 0 && hy < s.in_h && wx >= 0 && wx < s.in_w) {
                  iv = input.at(b, ci, hy, wx);
                }
                acc = FmaF16F32(Fp16(w(oc, (ci * s.kh + r) * s.kw + ss)),
                                Fp16(iv), acc);
              }
            }
          }
          const int col = (b * s.OutH() + y) * s.OutW() + x;
          ASSERT_EQ(out(oc, col), Fp16(acc).ToFloat())
              << "oc=" << oc << " b=" << b << " y=" << y << " x=" << x;
        }
      }
    }
  }
}

TEST_P(ConvSweep, SparseConvMatchesDenseOnPrunedFilters) {
  const auto [ksize, stride, pad, batch] = GetParam();
  ConvShape s;
  s.batch = batch;
  s.in_c = 3;
  s.in_h = s.in_w = 9;
  s.out_c = 4;
  s.kh = s.kw = ksize;
  s.stride = stride;
  s.pad = pad;
  if (s.OutH() <= 0 || s.OutW() <= 0) GTEST_SKIP();

  Rng rng(950 + ksize * 100 + stride * 10 + pad);
  Tensor4 input(s.batch, s.in_c, s.in_h, s.in_w);
  for (auto& v : input.data) v = static_cast<float>(rng.Normal());
  const Matrix<float> w = rng.NormalMatrix(s.out_c, s.GemmK());
  const ShflBwMatrix sparse = PruneToShflBw(w, 0.5, 2);

  EXPECT_EQ(Conv2dShflBw(input, sparse, s),
            Conv2dDense(input, sparse.ToDense(), s));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConvSweep,
    ::testing::Combine(::testing::Values(1, 3, 5),   // kernel size
                       ::testing::Values(1, 2),      // stride
                       ::testing::Values(0, 1, 2),   // pad
                       ::testing::Values(1, 2)));    // batch

}  // namespace
}  // namespace shflbw
