#include "kernels/gemm_dense.h"

#include <gtest/gtest.h>

#include "arch/cost_model.h"
#include "common/rng.h"

namespace shflbw {
namespace {

Matrix<float> QuantizeForTest(const Matrix<float>& m) {
  Matrix<float> out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.size(); ++i) {
    out.storage()[i] = Fp16(m.storage()[i]).ToFloat();
  }
  return out;
}

TEST(GemmReference, IdentityTimesMatrix) {
  Matrix<float> eye(3, 3);
  for (int i = 0; i < 3; ++i) eye(i, i) = 1.0f;
  Rng rng(3);
  // Use fp16-representable inputs so identity multiply is exact.
  Matrix<float> b = QuantizeForTest(rng.NormalMatrix(3, 5));
  EXPECT_EQ(GemmReference(eye, b), b);
}

TEST(GemmReference, KnownSmallProduct) {
  Matrix<float> a(2, 2, {1, 2, 3, 4});
  Matrix<float> b(2, 2, {5, 6, 7, 8});
  EXPECT_EQ(GemmReference(a, b), Matrix<float>(2, 2, {19, 22, 43, 50}));
}

TEST(GemmReference, ShapeMismatchThrows) {
  EXPECT_THROW(GemmReference(Matrix<float>(2, 3), Matrix<float>(4, 2)),
               Error);
}

TEST(GemmReference, Fp16OperandsRounded) {
  // 1.0003 rounds to 1.0 in fp16 (below the 1.000488 midpoint), so the
  // product must be exactly 2.0.
  Matrix<float> a(1, 1, {1.0003f});
  Matrix<float> b(1, 1, {2.0f});
  EXPECT_EQ(GemmReference(a, b)(0, 0), 2.0f);
}

TEST(GemmReference, Fp32Accumulation) {
  // Summing 4096 ones would saturate in fp16 (max step at 2048); with
  // fp32 accumulation and a final fp16 round it lands at 4096 exactly.
  Matrix<float> a(1, 4096, std::vector<float>(4096, 1.0f));
  Matrix<float> b(4096, 1, std::vector<float>(4096, 1.0f));
  EXPECT_EQ(GemmReference(a, b)(0, 0), 4096.0f);
}

TEST(GemmDenseStats, FlopsAndTraffic) {
  const GpuSpec& spec = GetGpuSpec(GpuArch::kV100);
  const KernelStats s = GemmTensorCoreStats(2048, 128, 2048, spec);
  EXPECT_DOUBLE_EQ(s.useful_flops, 2.0 * 2048 * 128 * 2048);
  EXPECT_TRUE(s.tensor_core);
  // A (8MB) + B (0.5MB) with A exceeding L2 -> reloads; write = C.
  EXPECT_GE(s.dram_read_bytes, (2048.0 * 2048 + 2048.0 * 128) * 2);
  EXPECT_DOUBLE_EQ(s.dram_write_bytes, 2048.0 * 128 * 2);
  EXPECT_GT(s.l2_read_bytes, 0.0);
}

TEST(GemmDenseStats, PaddingWastesMacs) {
  const GpuSpec& spec = GetGpuSpec(GpuArch::kV100);
  // M=100 pads to 128: issued > useful.
  const KernelStats s = GemmTensorCoreStats(100, 128, 256, spec);
  EXPECT_GT(s.issued_macs, s.useful_flops / 2.0);
}

TEST(GemmDenseStats, TensorCoreModeledFasterThanCudaCore) {
  // Fig. 1: the TC dense line sits ~4x above the CUDA-core dense line.
  const GpuSpec& spec = GetGpuSpec(GpuArch::kV100);
  const CostModel model(spec);
  const double tc = model.Seconds(GemmTensorCoreStats(2048, 128, 2048, spec));
  const double cc = model.Seconds(GemmCudaCoreStats(2048, 128, 2048, spec));
  EXPECT_GT(cc / tc, 2.5);
  EXPECT_LT(cc / tc, 5.0);
}

}  // namespace
}  // namespace shflbw
