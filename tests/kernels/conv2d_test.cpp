#include "kernels/conv2d.h"

#include <gtest/gtest.h>

#include "arch/cost_model.h"
#include "common/rng.h"
#include "kernels/gemm_dense.h"
#include "prune/shfl_bw_search.h"

namespace shflbw {
namespace {

const GpuSpec& Spec() { return GetGpuSpec(GpuArch::kV100); }

ConvShape SmallShape() {
  ConvShape s;
  s.batch = 2;
  s.in_c = 4;
  s.in_h = 6;
  s.in_w = 6;
  s.out_c = 8;
  s.kh = 3;
  s.kw = 3;
  s.stride = 1;
  s.pad = 1;
  return s;
}

Tensor4 RandomInput(const ConvShape& s, std::uint64_t seed) {
  Rng rng(seed);
  Tensor4 t(s.batch, s.in_c, s.in_h, s.in_w);
  for (auto& v : t.data) v = static_cast<float>(rng.Normal());
  return t;
}

TEST(Conv2d, ShapeArithmetic) {
  const ConvShape s = SmallShape();
  EXPECT_EQ(s.OutH(), 6);
  EXPECT_EQ(s.OutW(), 6);
  EXPECT_EQ(s.GemmM(), 8);
  EXPECT_EQ(s.GemmK(), 36);
  EXPECT_EQ(s.GemmN(), 72);
  ConvShape strided = s;
  strided.stride = 2;
  EXPECT_EQ(strided.OutH(), 3);
}

TEST(Conv2d, Im2ColMatchesDirectConvolution) {
  const ConvShape s = SmallShape();
  const Tensor4 input = RandomInput(s, 113);
  Rng rng(127);
  const Matrix<float> w = rng.NormalMatrix(s.out_c, s.GemmK());
  const Matrix<float> out = Conv2dDense(input, w, s);

  // Direct NCHW convolution in fp16-operand/fp32-accumulate arithmetic,
  // accumulating in the same (ci, r, s) order as the im2col rows.
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
                acc = FmaF16F32(
                    Fp16(w(oc, (ci * s.kh + r) * s.kw + ss)), Fp16(iv), acc);
              }
            }
          }
          const int col = (b * s.OutH() + y) * s.OutW() + x;
          EXPECT_EQ(out(oc, col), Fp16(acc).ToFloat())
              << "oc=" << oc << " col=" << col;
        }
      }
    }
  }
}

TEST(Conv2d, ZeroPaddingBordersAreZeroInIm2Col) {
  ConvShape s = SmallShape();
  Tensor4 input(s.batch, s.in_c, s.in_h, s.in_w);
  for (auto& v : input.data) v = 1.0f;
  const Matrix<float> b = Im2Col(input, s);
  // Row 0 = (ci=0, r=0, s=0): for output (0,0) it reads input(-1,-1) = 0.
  EXPECT_EQ(b(0, 0), 0.0f);
  // Center outputs read in-bounds ones.
  const int center = (0 * s.OutH() + 3) * s.OutW() + 3;
  EXPECT_EQ(b(0, center), 1.0f);
}

TEST(Conv2d, ShflBwConvMatchesDenseOnPrunedWeights) {
  const ConvShape s = SmallShape();
  const Tensor4 input = RandomInput(s, 131);
  Rng rng(137);
  const Matrix<float> w = rng.NormalMatrix(s.out_c, s.GemmK());
  const ShflBwMatrix sparse = PruneToShflBw(w, 0.25, 4);
  const Matrix<float> sparse_out = Conv2dShflBw(input, sparse, s);
  const Matrix<float> ref = Conv2dDense(input, sparse.ToDense(), s);
  EXPECT_EQ(sparse_out, ref);
}

TEST(Conv2d, FilterToMatrixLayout) {
  ConvShape s;
  s.out_c = 2;
  s.in_c = 1;
  s.kh = 2;
  s.kw = 2;
  s.in_h = s.in_w = 4;
  const std::vector<float> filter{1, 2, 3, 4, 5, 6, 7, 8};
  const Matrix<float> m = FilterToMatrix(filter, s);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m(0, 0), 1.0f);
  EXPECT_EQ(m(1, 3), 8.0f);
  EXPECT_THROW(FilterToMatrix({1, 2}, s), Error);
}

TEST(Conv2dStats, ActivationTrafficDeduplicated) {
  // Implicit GEMM reads the feature map from DRAM, not the kh*kw-times
  // duplicated unfolded matrix.
  ConvShape s;
  s.batch = 32;
  s.in_c = 128;
  s.in_h = s.in_w = 28;
  s.out_c = 128;
  s.kh = s.kw = 3;
  s.pad = 1;
  const KernelStats conv = Conv2dDenseStats(s, Spec());
  const KernelStats gemm =
      GemmTensorCoreStats(s.GemmM(), s.GemmN(), s.GemmK(), Spec());
  EXPECT_LT(conv.dram_read_bytes, gemm.dram_read_bytes);
  // Compute is identical.
  EXPECT_DOUBLE_EQ(conv.issued_macs, gemm.issued_macs);
}

TEST(Conv2dStats, SparseConvFasterThanDenseInModel) {
  ConvShape s;
  s.batch = 32;
  s.in_c = 256;
  s.in_h = s.in_w = 14;
  s.out_c = 256;
  s.kh = s.kw = 3;
  s.pad = 1;
  const CostModel model(Spec());
  const double dense = model.Seconds(Conv2dDenseStats(s, Spec()));
  const double sparse =
      model.Seconds(Conv2dShflBwStats(s, 0.25, 32, Spec()));
  EXPECT_GT(dense / sparse, 1.0);
}

}  // namespace
}  // namespace shflbw
