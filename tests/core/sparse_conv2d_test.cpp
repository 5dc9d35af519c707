// A pruned convolution layer on the runtime surface: only dense,
// vector-wise and Shfl-BW have a conv kernel and a conv model ("the
// baselines all lack implementation for convolution", §6.2), a conv
// kernel rejects filters that do not match the layer shape, and
// ModeledLayerSeconds puts Shfl-BW above dense on a ResNet50 conv.
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "runtime/planner.h"
#include "runtime/weight_cache.h"

namespace shflbw {
namespace runtime {
namespace {

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

TEST(SparseConv2d, BaselinesCannotRunOrTimeAConv) {
  LayerDesc l;
  l.kind = LayerKind::kConv;
  l.conv = {"conv", 1, 4, 5, 5, 8, 3, 3, 1, 1, 1};
  PlannerOptions opts;
  opts.arch = GpuArch::kA100;
  opts.v = 4;
  for (Format f : AllFormats()) {
    const bool has_conv = f == Format::kDense || f == Format::kVectorWise ||
                          f == Format::kShflBw;
    EXPECT_EQ(Ops(f).conv != nullptr, has_conv) << FormatName(f);
    EXPECT_EQ(Ops(f).conv_model != nullptr, has_conv) << FormatName(f);
    opts.density = Ops(f).fixed_density > 0 ? Ops(f).fixed_density : 0.25;
    std::string why;
    EXPECT_EQ(ModeledLayerSeconds(l, f, opts, &why).has_value(), has_conv)
        << FormatName(f);
    if (!has_conv) {
      EXPECT_EQ(why, "no conv implementation") << FormatName(f);
    }
  }
}

TEST(SparseConv2d, RejectsMismatchedFilterShape) {
  const ConvShape s = TinyShape();
  const Tensor4 input = RandomInput(s, 349);
  Rng rng(347);
  // Four output channels where the layer has eight.
  const Matrix<float> filters = rng.NormalMatrix(4, s.GemmK());
  for (Format f : {Format::kDense, Format::kVectorWise, Format::kShflBw}) {
    const double density = f == Format::kDense ? 1.0 : 0.25;
    const PackedWeight packed = PackWeight(f, filters, density, 4);
    EXPECT_THROW((void)Ops(f).conv(packed, s, input), Error) << FormatName(f);
  }
}

TEST(SparseConv2d, ShflBwSpeedsUpAResNetConv) {
  LayerDesc l;
  l.kind = LayerKind::kConv;
  l.conv = {"conv", 32, 256, 14, 14, 256, 3, 3, 1, 1, 1};
  PlannerOptions opts;
  opts.density = 0.25;
  opts.v = 32;
  const auto dense_s = ModeledLayerSeconds(l, Format::kDense, opts);
  const auto sparse_s = ModeledLayerSeconds(l, Format::kShflBw, opts);
  ASSERT_TRUE(dense_s && sparse_s);
  EXPECT_GT(*sparse_s, 0.0);
  EXPECT_GT(*dense_s / *sparse_s, 1.0);
}

}  // namespace
}  // namespace runtime
}  // namespace shflbw
