#include "core/sparse_conv2d.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace shflbw {
namespace {

using runtime::Format;

const GpuSpec& V100() { return GetGpuSpec(GpuArch::kV100); }

ConvShape TinyShape() {
  ConvShape s;
  s.batch = 1;
  s.in_c = 4;
  s.in_h = s.in_w = 5;
  s.out_c = 8;
  s.kh = s.kw = 3;
  s.pad = 1;
  return s;
}

Tensor4 RandomInput(const ConvShape& s, std::uint64_t seed) {
  Rng rng(seed);
  Tensor4 t(s.batch, s.in_c, s.in_h, s.in_w);
  for (auto& v : t.data) v = static_cast<float>(rng.Normal());
  return t;
}

TEST(SparseConv2d, DenseModeMatchesConvKernel) {
  const ConvShape s = TinyShape();
  Rng rng(347);
  const Matrix<float> w = rng.NormalMatrix(s.out_c, s.GemmK());
  SparseConv2d::Options opt;
  opt.format = Format::kDense;
  const SparseConv2d conv(w, s, opt);
  const Tensor4 input = RandomInput(s, 349);
  EXPECT_EQ(conv.Forward(input), Conv2dDense(input, w, s));
}

TEST(SparseConv2d, ShflBwForwardMatchesDenseOnPrunedFilters) {
  const ConvShape s = TinyShape();
  Rng rng(353);
  const Matrix<float> w = rng.NormalMatrix(s.out_c, s.GemmK());
  SparseConv2d::Options opt;
  opt.format = Format::kShflBw;
  opt.density = 0.25;
  opt.v = 4;
  const SparseConv2d conv(w, s, opt);
  const Tensor4 input = RandomInput(s, 359);
  EXPECT_EQ(conv.Forward(input), Conv2dDense(input, conv.pruned_weights(), s));
}

TEST(SparseConv2d, RejectsUnsupportedPatterns) {
  const ConvShape s = TinyShape();
  Matrix<float> w(s.out_c, s.GemmK());
  SparseConv2d::Options opt;
  opt.format = Format::kBsr;
  EXPECT_THROW(SparseConv2d(w, s, opt), Error);
}

TEST(SparseConv2d, RejectsMismatchedFilterShape) {
  const ConvShape s = TinyShape();
  SparseConv2d::Options opt;
  opt.format = Format::kDense;
  EXPECT_THROW(SparseConv2d(Matrix<float>(3, 3), s, opt), Error);
}

TEST(SparseConv2d, ModelTimeAndSpeedup) {
  ConvShape s;
  s.batch = 32;
  s.in_c = 256;
  s.in_h = s.in_w = 14;
  s.out_c = 256;
  s.kh = s.kw = 3;
  s.pad = 1;
  Rng rng(367);
  const Matrix<float> w = rng.NormalMatrix(s.out_c, s.GemmK());
  SparseConv2d::Options opt;
  opt.format = Format::kShflBw;
  opt.density = 0.25;
  opt.v = 32;
  const SparseConv2d conv(w, s, opt);
  EXPECT_GT(conv.ModelTime(V100()).total_s, 0.0);
  EXPECT_GT(conv.SpeedupOverDense(V100()), 1.0);
}

}  // namespace
}  // namespace shflbw
