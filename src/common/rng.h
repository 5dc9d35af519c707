// Deterministic random number generation for reproducible experiments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "common/matrix.h"

namespace shflbw {

/// Thin wrapper over std::mt19937_64 with convenience samplers. All
/// experiments seed explicitly so every table/figure is reproducible.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eedULL) : gen_(seed) {}

  std::mt19937_64& engine() { return gen_; }

  /// Uniform integer in [lo, hi] inclusive.
  int UniformInt(int lo, int hi) {
    std::uniform_int_distribution<int> d(lo, hi);
    return d(gen_);
  }
  /// Uniform real in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    std::uniform_real_distribution<double> d(lo, hi);
    return d(gen_);
  }
  /// Normal with the given mean/stddev.
  double Normal(double mean = 0.0, double stddev = 1.0) {
    std::normal_distribution<double> d(mean, stddev);
    return d(gen_);
  }
  bool Bernoulli(double p) {
    std::bernoulli_distribution d(p);
    return d(gen_);
  }

  /// Dense matrix with iid N(mean, stddev) entries.
  Matrix<float> NormalMatrix(int rows, int cols, float mean = 0.0f,
                             float stddev = 1.0f) {
    Matrix<float> m(rows, cols);
    for (auto& v : m.storage()) {
      v = static_cast<float>(Normal(mean, stddev));
    }
    return m;
  }

  /// Dense matrix with iid U[lo, hi) entries.
  Matrix<float> UniformMatrix(int rows, int cols, float lo = -1.0f,
                              float hi = 1.0f) {
    Matrix<float> m(rows, cols);
    for (auto& v : m.storage()) {
      v = static_cast<float>(Uniform(lo, hi));
    }
    return m;
  }

  /// Random permutation of {0, ..., n-1}.
  std::vector<int> Permutation(int n);

  /// Matrix where each entry is kept (N(0,1)) with probability `density`
  /// and zero otherwise — an unstructured-sparse weight generator.
  Matrix<float> SparseMatrix(int rows, int cols, double density);

 private:
  std::mt19937_64 gen_;
};

/// Writes values [first, first + count) of the counter-based stream
/// keyed by `seed` to out[0, count). Value i is a pure function of
/// (seed, i): Philox4x32-10 (Salmon et al., SC'11) with key `seed` and
/// counter i / 2 yields 128 bits, and value i is the Irwin–Hall sum of
/// four of its 16-bit lanes (the low 64 bits for even i, the high 64
/// for odd i), centred and scaled to mean 0 and variance 1 - 2^-32.
/// So any slice equals the same slice of one long fill, and every value
/// lies in [-2*sqrt(3), 2*sqrt(3)]. The only floating-point steps are
/// an exact int -> float conversion and one multiply: no libm call or
/// standard-library distribution touches the bits, and FMA contraction
/// has nothing to fuse.
void PhiloxNormalFill(std::uint64_t seed, std::uint64_t first,
                      std::size_t count, float* out);

}  // namespace shflbw
