// The VW-family execute's numeric contract, pinned against a scalar
// oracle: every output element is the fp32 sum, in ascending kept-vector
// order, of (fp16-rounded weight) x (fp16-rounded B entry) over the
// group's kept vectors whose weight is nonzero, rounded through fp16 and
// written to row row_map[g*v + r]. The inputs reach the edges a
// register-blocked or vectorized execute could get wrong: explicit zero
// weights (+0 and -0) inside kept vectors against +-inf, NaN and
// fp16-overflowing (>= 65520) B entries, ragged column counts around the
// SIMD widths, every power-of-two V up to 128, and identity and shuffled
// row maps. Bits must match exactly, except that where the oracle gives
// NaN the output only has to be NaN (the NaN's sign and payload follow
// the order a contracted FMA picks its operands). Runs at every kernel
// tier the host supports.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fp16.h"
#include "common/rng.h"
#include "kernels/spmm_vector_wise.h"
#include "prune/vector_wise_prune.h"

namespace shflbw {
namespace {

Matrix<float> Oracle(const VectorWiseMatrix& a, const std::vector<int>& row_map,
                     const Matrix<float>& b) {
  Matrix<float> c(a.rows, b.cols());
  for (int g = 0; g < a.Groups(); ++g) {
    for (int r = 0; r < a.v; ++r) {
      for (int j = 0; j < b.cols(); ++j) {
        float acc = 0.0f;
        for (int vec = a.group_col_ptr[g]; vec < a.group_col_ptr[g + 1];
             ++vec) {
          const float av = RoundToFp16(a.ValueAt(vec, r));
          if (av == 0.0f) continue;
          acc += av * RoundToFp16(b(a.col_idx[vec], j));
        }
        c(row_map[static_cast<std::size_t>(g) * a.v + r], j) =
            RoundToFp16(acc);
      }
    }
  }
  return c;
}

/// Number of elements whose bits differ, NaN matching any NaN.
int Mismatches(const Matrix<float>& got, const Matrix<float>& want) {
  int bad = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const float w = want.data()[i];
    const float g = got.data()[i];
    const bool ok = std::isnan(w) ? std::isnan(g)
                                  : std::bit_cast<std::uint32_t>(g) ==
                                        std::bit_cast<std::uint32_t>(w);
    if (!ok) ++bad;
  }
  return bad;
}

/// A VW matrix with explicit +0 / -0 weights inside its kept vectors.
VectorWiseMatrix WithZeroWeights(int m, int k, int v, Rng& rng) {
  VectorWiseMatrix a =
      VectorWiseMatrix::FromDense(PruneVectorWise(rng.NormalMatrix(m, k),
                                                  0.4, v),
                                  v);
  for (float& x : a.values) {
    const double u = rng.Uniform(0.0, 1.0);
    if (u < 0.1) x = 0.0f;
    else if (u < 0.15) x = -0.0f;
  }
  return a;
}

/// B with +-inf, NaN and fp16-overflowing entries sprinkled in.
Matrix<float> WithNonFinite(int k, int n, Rng& rng) {
  Matrix<float> b = rng.NormalMatrix(k, n);
  const float specials[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            65520.0f, -70000.0f, 65504.0f};
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (rng.Uniform(0.0, 1.0) < 0.03) {
      b.data()[i] = specials[rng.UniformInt(0, 5)];
    }
  }
  return b;
}

class VwContract : public ::testing::TestWithParam<KernelTier> {
 protected:
  void SetUp() override {
    if (!KernelTierSupported(GetParam())) {
      GTEST_SKIP() << KernelTierName(GetParam())
                   << " is not supported on this host";
    }
  }
  Matrix<float> Run(const VectorWiseMatrix& a, const std::vector<int>& row_map,
                    const Matrix<float>& b) const {
    return detail::RunVwFamilyKernelAt(GetParam(), a, row_map, b);
  }
};

TEST_P(VwContract, MatchesScalarOracleAtEveryWidthAndV) {
  const int k = 40;
  for (int v : {2, 4, 8, 16, 32, 64, 128}) {
    for (int n : {1, 7, 8, 9, 63, 64, 65, 129}) {
      Rng rng(static_cast<std::uint64_t>(500 + v * 1000 + n));
      const int m = 2 * v;
      const VectorWiseMatrix a = WithZeroWeights(m, k, v, rng);
      std::vector<int> identity(static_cast<std::size_t>(m));
      std::iota(identity.begin(), identity.end(), 0);
      std::vector<int> shuffled = rng.Permutation(m);
      Matrix<float> finite = rng.NormalMatrix(k, n);
      Matrix<float> special = WithNonFinite(k, n, rng);
      for (const Matrix<float>* b : {&finite, &special}) {
        for (const std::vector<int>* row_map : {&identity, &shuffled}) {
          const Matrix<float> want = Oracle(a, *row_map, *b);
          EXPECT_EQ(Mismatches(Run(a, *row_map, *b), want), 0)
              << "v=" << v << " n=" << n
              << (b == &finite ? " finite B" : " non-finite B")
              << (row_map == &identity ? " identity" : " shuffled")
              << " row map";
        }
      }
    }
  }
}

TEST_P(VwContract, ZeroWeightAgainstInfinityContributesNothing) {
  // A kept vector whose weight is 0 in row 0 and 1 in row 1, against a B
  // row of +inf: row 0 must stay finite (0 x inf would be NaN), row 1
  // is +inf.
  Matrix<float> dense(2, 3);
  dense(0, 1) = 0.0f;
  dense(1, 1) = 1.0f;
  dense(0, 2) = 2.0f;
  dense(1, 2) = 0.0f;
  const VectorWiseMatrix a = VectorWiseMatrix::FromDense(dense, 2);
  Matrix<float> b(3, 1);
  b(1, 0) = std::numeric_limits<float>::infinity();
  b(2, 0) = 0.5f;
  const Matrix<float> c = Run(a, {0, 1}, b);
  EXPECT_EQ(c(0, 0), 1.0f);
  EXPECT_EQ(c(1, 0), std::numeric_limits<float>::infinity());
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, VwContract,
    ::testing::Values(KernelTier::kBaseline, KernelTier::kX86_64_V3,
                      KernelTier::kX86_64_V4),
    [](const ::testing::TestParamInfo<KernelTier>& info) {
      std::string name = KernelTierName(info.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace shflbw
