// Exhaustive proofs, compared as bit patterns (NaN != NaN as floats):
// the fp16 decode-table fast path is bit-for-bit identical to the
// arithmetic reference decoder over every one of the 65536 fp16 patterns,
// and the branch-free float rounding RoundToFp16 / RoundRows matches the
// encode/decode round trip over every one of the 2^32 float patterns —
// including subnormals, +-0, +-inf and every NaN payload.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/fp16.h"
#include "common/thread_pool.h"

namespace shflbw {
namespace {

std::uint32_t BitsOf(float f) { return std::bit_cast<std::uint32_t>(f); }

TEST(Fp16Table, MatchesReferenceDecoderOnAllBitPatterns) {
  for (std::uint32_t b = 0; b <= 0xFFFFu; ++b) {
    const std::uint16_t bits = static_cast<std::uint16_t>(b);
    const float fast = Fp16::FromBits(bits).ToFloat();
    const float ref = Fp16::DecodeReference(bits);
    ASSERT_EQ(BitsOf(fast), BitsOf(ref))
        << "fp16 bits=0x" << std::hex << b << " decode mismatch: table="
        << fast << " reference=" << ref;
  }
}

TEST(Fp16Table, CoversSpecialValueClasses) {
  // Spot-check that the table region test above really exercised the
  // interesting classes (guards against a future reference refactor
  // accidentally shrinking a class to nothing).
  EXPECT_TRUE(Fp16::FromBits(0x0001u).ToFloat() > 0.0f);   // min subnormal
  EXPECT_EQ(BitsOf(Fp16::FromBits(0x8000u).ToFloat()),
            BitsOf(-0.0f));                                // negative zero
  EXPECT_TRUE(Fp16::FromBits(0x7C00u).IsInf());            // +inf
  EXPECT_TRUE(Fp16::FromBits(0xFC00u).IsInf());            // -inf
  EXPECT_TRUE(Fp16::FromBits(0x7C01u).IsNan());            // signalling NaN
  EXPECT_TRUE(Fp16::FromBits(0xFE00u).IsNan());            // quiet NaN
}

TEST(Fp16Table, BatchHelpersRoundTripEveryFinitePattern) {
  // DecodeRows / EncodeRows over the full finite range: decode all
  // values in one batch, re-encode, and require identical bits.
  std::vector<Fp16> src;
  src.reserve(65536);
  for (std::uint32_t b = 0; b <= 0xFFFFu; ++b) {
    const Fp16 h = Fp16::FromBits(static_cast<std::uint16_t>(b));
    if (!h.IsNan()) src.push_back(h);
  }
  std::vector<float> decoded(src.size());
  DecodeRows(src.data(), decoded.data(), src.size());
  std::vector<Fp16> back(src.size());
  EncodeRows(decoded.data(), back.data(), decoded.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    ASSERT_EQ(back[i].bits(), src[i].bits()) << "index " << i;
  }
}

TEST(Fp16Table, RoundRowsMatchesScalarRoundTrip) {
  // Every one of the 2^32 float bit patterns, NaN payloads included:
  // RoundRows and scalar RoundToFp16 must both return exactly the bits of
  // the encode/decode round trip Fp16(f).ToFloat(). The chunk length is
  // not a multiple of any vector width, so every RoundRows call runs both
  // its vectorized body and its scalar tail.
  constexpr std::uint64_t kPatterns = std::uint64_t{1} << 32;
  constexpr std::uint64_t kChunk = 4099;
  constexpr std::uint64_t kNone = ~std::uint64_t{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> first_bad{kNone};
  ParallelFor(0, static_cast<std::int64_t>((kPatterns + kChunk - 1) / kChunk),
              /*grain=*/64, [&](std::int64_t lo, std::int64_t hi) {
                std::vector<float> in(kChunk), out(kChunk);
                std::uint64_t bad = 0, first = kNone;
                for (std::int64_t c = lo; c < hi; ++c) {
                  const std::uint64_t base =
                      static_cast<std::uint64_t>(c) * kChunk;
                  const std::size_t n = static_cast<std::size_t>(
                      std::min(kChunk, kPatterns - base));
                  for (std::size_t i = 0; i < n; ++i) {
                    in[i] = std::bit_cast<float>(
                        static_cast<std::uint32_t>(base + i));
                  }
                  RoundRows(in.data(), out.data(), n);
                  for (std::size_t i = 0; i < n; ++i) {
                    const std::uint32_t want = BitsOf(Fp16(in[i]).ToFloat());
                    if (BitsOf(out[i]) != want ||
                        BitsOf(RoundToFp16(in[i])) != want) {
                      ++bad;
                      first = std::min(first, base + i);
                    }
                  }
                }
                mismatches += bad;
                std::uint64_t seen = first_bad.load();
                while (first < seen &&
                       !first_bad.compare_exchange_weak(seen, first)) {
                }
              });
  const float f =
      std::bit_cast<float>(static_cast<std::uint32_t>(first_bad.load()));
  EXPECT_EQ(mismatches.load(), 0u)
      << "first mismatch: float bits=0x" << std::hex << BitsOf(f)
      << " RoundToFp16=0x" << BitsOf(RoundToFp16(f))
      << " reference=0x" << BitsOf(Fp16(f).ToFloat());
}

}  // namespace
}  // namespace shflbw
