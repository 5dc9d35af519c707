#include "common/rng.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/hot_path.h"

namespace shflbw {

std::vector<int> Rng::Permutation(int n) {
  std::vector<int> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  std::shuffle(p.begin(), p.end(), gen_);
  return p;
}

Matrix<float> Rng::SparseMatrix(int rows, int cols, double density) {
  SHFLBW_CHECK_MSG(density >= 0.0 && density <= 1.0,
                   "density " << density << " outside [0,1]");
  Matrix<float> m(rows, cols);
  for (auto& v : m.storage()) {
    v = Bernoulli(density) ? static_cast<float>(Normal()) : 0.0f;
  }
  return m;
}

void PhiloxNormalFill(std::uint64_t seed, std::uint64_t first,
                      std::size_t count, float* out) {
  // Counters per chunk. Each lane runs all ten rounds on its own
  // counter, so GCC vectorizes the lane loop at the SSE2 baseline.
  constexpr int kLanes = 16;
  // Four 16-bit lanes sum to [0, 4 * 65535] with mean 2 * 65535 and
  // variance 4 * (65536^2 - 1) / 12; sqrt(3) / 65536 scales the centred
  // sum to variance 1 - 2^-32. Dividing by 65536 is exact.
  constexpr std::int32_t kCentre = 2 * 65535;
  constexpr float kScale = 1.7320508075688772f / 65536.0f;
  const auto irwin_hall = [](std::uint32_t a, std::uint32_t b) {
    return static_cast<std::int32_t>((a & 0xFFFFu) + (a >> 16) +
                                     (b & 0xFFFFu) + (b >> 16)) -
           kCentre;
  };
  const std::uint32_t key0 = static_cast<std::uint32_t>(seed);
  const std::uint32_t key1 = static_cast<std::uint32_t>(seed >> 32);
  std::uint64_t counter = first / 2;
  std::size_t skip = first % 2;  // an odd first starts mid-counter
  std::int32_t even[kLanes], odd[kLanes];
  float values[2 * kLanes];
  SHFLBW_HOT_BEGIN;
  while (count > 0) {
    const int lanes =
        static_cast<int>(std::min<std::size_t>(kLanes, (skip + count + 1) / 2));
    for (int l = 0; l < lanes; ++l) {
      const std::uint64_t c = counter + static_cast<std::uint64_t>(l);
      std::uint32_t c0 = static_cast<std::uint32_t>(c);
      std::uint32_t c1 = static_cast<std::uint32_t>(c >> 32);
      std::uint32_t c2 = 0, c3 = 0;
      std::uint32_t k0 = key0, k1 = key1;
      for (int round = 0; round < 10; ++round) {
        const std::uint64_t p0 = std::uint64_t{0xD2511F53u} * c0;
        const std::uint64_t p1 = std::uint64_t{0xCD9E8D57u} * c2;
        c0 = static_cast<std::uint32_t>(p1 >> 32) ^ c1 ^ k0;
        c1 = static_cast<std::uint32_t>(p1);
        c2 = static_cast<std::uint32_t>(p0 >> 32) ^ c3 ^ k1;
        c3 = static_cast<std::uint32_t>(p0);
        k0 += 0x9E3779B9u;
        k1 += 0xBB67AE85u;
      }
      even[l] = irwin_hall(c0, c1);
      odd[l] = irwin_hall(c2, c3);
    }
    for (int l = 0; l < lanes; ++l) {
      values[2 * l] = static_cast<float>(even[l]) * kScale;
      values[2 * l + 1] = static_cast<float>(odd[l]) * kScale;
    }
    const std::size_t n =
        std::min(count, static_cast<std::size_t>(2 * lanes) - skip);
    std::memcpy(out, values + skip, n * sizeof(float));
    out += n;
    count -= n;
    counter += static_cast<std::uint64_t>(lanes);
    skip = 0;
  }
  SHFLBW_HOT_END;
}

}  // namespace shflbw
