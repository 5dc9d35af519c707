// Every VW-family kernel tier the host supports gives the baseline
// tier's bits, on the fuzz and sweep shapes of each format that runs the
// VW-family execute: VW, Shfl-BW, Tilewise (V=128), VectorSparse (V=8)
// and the implicit-GEMM convs (VW and Shfl-BW). The x86-64-v3 and
// x86-64-v4 builds contract the MAC into FMA and vectorize across 8 or
// 16 output columns; the product of two fp16-rounded values is exact in
// fp32, so neither may move a bit. Tiers the host lacks are skipped by
// name.
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "kernels/conv2d.h"
#include "kernels/spmm_tilewise.h"
#include "kernels/spmm_vector_sparse.h"
#include "kernels/spmm_vector_wise.h"
#include "prune/shfl_bw_search.h"
#include "prune/vector_wise_prune.h"

namespace shflbw {
namespace {

std::vector<int> Identity(int rows) {
  std::vector<int> map(static_cast<std::size_t>(rows));
  std::iota(map.begin(), map.end(), 0);
  return map;
}

class VwTier : public ::testing::TestWithParam<KernelTier> {
 protected:
  void SetUp() override {
    if (!KernelTierSupported(GetParam())) {
      GTEST_SKIP() << KernelTierName(GetParam())
                   << " is not supported on this host";
    }
  }

  /// The tier's output equals the baseline tier's, bit for bit.
  void ExpectBaselineBits(const VectorWiseMatrix& a,
                          const std::vector<int>& row_map,
                          const Matrix<float>& b, const std::string& what) {
    EXPECT_EQ(detail::RunVwFamilyKernelAt(GetParam(), a, row_map, b),
              detail::RunVwFamilyKernelAt(KernelTier::kBaseline, a, row_map, b))
        << what << " at " << KernelTierName(GetParam());
  }
  void ExpectBaselineBits(const VectorWiseMatrix& a, const Matrix<float>& b,
                          const std::string& what) {
    ExpectBaselineBits(a, Identity(a.rows), b, what);
  }
  void ExpectBaselineBits(const ShflBwMatrix& a, const Matrix<float>& b,
                          const std::string& what) {
    ExpectBaselineBits(a.vw, a.storage_to_original, b, what);
  }
};

TEST_P(VwTier, FuzzShapes) {
  // The KernelFuzz generator (fuzz_test.cpp): v in {2,4,8,16}, m a
  // multiple of 4v, k a multiple of 4, n in [1, 40].
  for (int seed = 0; seed < 24; ++seed) {
    Rng rng(static_cast<std::uint64_t>(10000 + seed));
    const int v = 1 << rng.UniformInt(1, 4);
    const int m = v * rng.UniformInt(2, 6) * 4;
    const int k = 4 * rng.UniformInt(3, 24);
    const int n = rng.UniformInt(1, 40);
    const double density = rng.Uniform(0.05, 0.95);
    const Matrix<float> w = rng.NormalMatrix(m, k);
    const Matrix<float> b = rng.NormalMatrix(k, n);
    const std::string what = "fuzz seed " + std::to_string(seed);
    ExpectBaselineBits(
        VectorWiseMatrix::FromDense(PruneVectorWise(w, density, v), v), b,
        what + " vw");
    ExpectBaselineBits(PruneToShflBw(w, density, v), b, what + " shfl-bw");
  }
}

TEST_P(VwTier, SweepShapes) {
  // The SpmmCorrectness and SpmmParallelDeterminism shapes (m, n, k,
  // density), at V=8 for VW and Shfl-BW and at VectorSparse's V=8.
  const std::tuple<int, int, int, double> shapes[] = {
      {16, 8, 16, 0.5},   {32, 16, 32, 0.25}, {64, 24, 48, 0.25},
      {64, 33, 64, 0.1},  {128, 7, 96, 0.15}, {40, 12, 20, 0.5},
      {64, 128, 64, 0.05}, {96, 17, 128, 0.75}, {8, 130, 44, 0.3},
      {256, 64, 64, 0.05}, {64, 128, 52, 0.2}};
  for (const auto& [m, n, k, density] : shapes) {
    Rng rng(static_cast<std::uint64_t>(1000 + m + n + k));
    const Matrix<float> w = rng.NormalMatrix(m, k);
    const Matrix<float> b = rng.NormalMatrix(k, n);
    const std::string what = "m=" + std::to_string(m) +
                             " n=" + std::to_string(n) +
                             " k=" + std::to_string(k);
    const VectorWiseMatrix vw =
        VectorWiseMatrix::FromDense(PruneVectorWise(w, density, 8), 8);
    ExpectBaselineBits(vw, b, what + " vw");
    ExpectBaselineBits(PruneToShflBw(w, density, 8), b, what + " shfl-bw");
    const VectorWiseMatrix vs = VectorWiseMatrix::FromDense(
        PruneVectorWise(w, density, kVectorSparseV), kVectorSparseV);
    ExpectBaselineBits(vs, b, what + " vector-sparse");
  }
}

TEST_P(VwTier, TilewiseShapes) {
  // The Tilewise correctness and determinism shapes (V=128).
  const std::tuple<int, int, int, std::uint64_t> shapes[] = {
      {256, 16, 64, 71}, {256, 40, 96, 411}};
  for (const auto& [m, n, k, seed] : shapes) {
    Rng rng(seed);
    const Matrix<float> w = rng.NormalMatrix(m, k);
    const Matrix<float> b = rng.NormalMatrix(k, n);
    ExpectBaselineBits(
        VectorWiseMatrix::FromDense(PruneVectorWise(w, 0.25, kTilewiseV),
                                    kTilewiseV),
        b, "tilewise n=" + std::to_string(n));
  }
}

TEST_P(VwTier, ConvSweepShapes) {
  // The ConvSweep grid (conv_sweep_test.cpp) through implicit GEMM, with
  // VW and Shfl-BW filters.
  for (int ksize : {1, 3, 5}) {
    for (int stride : {1, 2}) {
      for (int pad : {0, 1, 2}) {
        for (int batch : {1, 2}) {
          ConvShape s;
          s.batch = batch;
          s.in_c = 3;
          s.in_h = s.in_w = 9;
          s.out_c = 4;
          s.kh = s.kw = ksize;
          s.stride = stride;
          s.pad = pad;
          if (s.OutH() <= 0 || s.OutW() <= 0) continue;
          Rng rng(static_cast<std::uint64_t>(950 + ksize * 100 +
                                             stride * 10 + pad));
          Tensor4 input(s.batch, s.in_c, s.in_h, s.in_w);
          for (float& x : input.data) x = static_cast<float>(rng.Normal());
          const Matrix<float> w = rng.NormalMatrix(s.out_c, s.GemmK());
          const Matrix<float> cols = Im2Col(input, s);
          const std::string what =
              "conv k=" + std::to_string(ksize) + " s=" +
              std::to_string(stride) + " p=" + std::to_string(pad) +
              " b=" + std::to_string(batch);
          ExpectBaselineBits(
              VectorWiseMatrix::FromDense(PruneVectorWise(w, 0.5, 2), 2),
              cols, what + " vw");
          ExpectBaselineBits(PruneToShflBw(w, 0.5, 2), cols,
                             what + " shfl-bw");
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, VwTier,
    ::testing::Values(KernelTier::kX86_64_V3, KernelTier::kX86_64_V4),
    [](const ::testing::TestParamInfo<KernelTier>& info) {
      std::string name = KernelTierName(info.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace shflbw
