// IEEE 754 binary16 (half precision) software emulation.
//
// The paper's kernels run in half precision on tensor-cores (fp16 inputs,
// fp32 accumulation, as the NVIDIA mma.sync instruction does). Since this
// build targets CPUs without native _Float16 guarantees, we emulate fp16
// with explicit bit-level conversion. Arithmetic is performed in float and
// rounded back through the fp16 format, matching the value semantics of
// loading an fp16 operand into a tensor-core fragment.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iosfwd>

// RoundToFp16 relies on IEEE float addition: fast-math lets the compiler
// fold (x + 0.5f) - 0.5f to x, which silently breaks subnormal rounding.
#if defined(__FAST_MATH__)
#error "common/fp16.h requires IEEE float semantics: build without -ffast-math"
#endif

namespace shflbw {

namespace detail {
/// 65536-entry fp16 -> fp32 decode table. Constant-initialized (the
/// initializer is a constexpr call), so it is valid before any dynamic
/// initialization runs and Fp16::ToFloat() is a single indexed load.
extern const std::array<float, 65536> kFp16DecodeTable;
}  // namespace detail

/// Half-precision float stored as its 16-bit pattern. Round-to-nearest-even
/// on conversion from float. Supports subnormals, infinities and NaN.
class Fp16 {
 public:
  constexpr Fp16() = default;
  /// Converts from float with round-to-nearest-even.
  explicit Fp16(float f) : bits_(FromFloat(f)) {}

  /// Reinterprets a raw 16-bit pattern as an Fp16.
  static constexpr Fp16 FromBits(std::uint16_t bits) {
    Fp16 h;
    h.bits_ = bits;
    return h;
  }

  /// Widens to float (exact: every fp16 value is representable in fp32).
  /// Table lookup — the hot-path decode used inside kernel loops.
  float ToFloat() const { return detail::kFp16DecodeTable[bits_]; }
  explicit operator float() const { return ToFloat(); }

  /// Arithmetic (bit-manipulation) decoder the table is built from.
  /// Slow path; exists so tests can prove the table matches it
  /// bit-for-bit over every pattern, and so benchmarks can replicate
  /// the pre-table hot path.
  static constexpr float DecodeReference(std::uint16_t bits) {
    const std::uint32_t sign = static_cast<std::uint32_t>(bits & 0x8000u)
                               << 16;
    const std::uint32_t exp = (bits >> 10) & 0x1Fu;
    const std::uint32_t mant = bits & 0x3FFu;

    if (exp == 0x1Fu) {  // Inf / NaN
      return std::bit_cast<float>(sign | 0x7F800000u | (mant << 13));
    }
    if (exp == 0) {
      if (mant == 0) return std::bit_cast<float>(sign);  // +-0
      // Subnormal: value = mant * 2^-24. Normalize into fp32.
      int e = -1;
      std::uint32_t m = mant;
      do {
        ++e;
        m <<= 1;
      } while ((m & 0x400u) == 0);
      const std::uint32_t exp32 = (127 - 15 - e) << 23;
      return std::bit_cast<float>(sign | exp32 | ((m & 0x3FFu) << 13));
    }
    const std::uint32_t exp32 = (exp - 15 + 127) << 23;
    return std::bit_cast<float>(sign | exp32 | (mant << 13));
  }

  constexpr std::uint16_t bits() const { return bits_; }

  bool IsNan() const {
    return (bits_ & 0x7C00u) == 0x7C00u && (bits_ & 0x03FFu) != 0;
  }
  bool IsInf() const {
    return (bits_ & 0x7C00u) == 0x7C00u && (bits_ & 0x03FFu) == 0;
  }
  bool IsZero() const { return (bits_ & 0x7FFFu) == 0; }

  /// Bit-exact comparison except that +0 == -0 and NaN != NaN.
  friend bool operator==(Fp16 a, Fp16 b) {
    if (a.IsNan() || b.IsNan()) return false;
    if (a.IsZero() && b.IsZero()) return true;
    return a.bits_ == b.bits_;
  }
  friend bool operator!=(Fp16 a, Fp16 b) { return !(a == b); }

  friend Fp16 operator+(Fp16 a, Fp16 b) {
    return Fp16(a.ToFloat() + b.ToFloat());
  }
  friend Fp16 operator-(Fp16 a, Fp16 b) {
    return Fp16(a.ToFloat() - b.ToFloat());
  }
  friend Fp16 operator*(Fp16 a, Fp16 b) {
    return Fp16(a.ToFloat() * b.ToFloat());
  }
  friend Fp16 operator/(Fp16 a, Fp16 b) {
    return Fp16(a.ToFloat() / b.ToFloat());
  }
  Fp16 operator-() const { return FromBits(bits_ ^ 0x8000u); }

 private:
  static std::uint16_t FromFloat(float f);

  std::uint16_t bits_ = 0;
};

std::ostream& operator<<(std::ostream& os, Fp16 h);

/// Fused multiply-accumulate in fp32, as tensor-core MMA accumulates:
/// fp16 operands are widened exactly, the product and sum are fp32.
inline float FmaF16F32(Fp16 a, Fp16 b, float acc) {
  return acc + a.ToFloat() * b.ToFloat();
}

/// Batch decode: widens n fp16 values into a contiguous float array
/// (table lookups). Used to hoist operand decoding out of MMA loops.
inline void DecodeRows(const Fp16* src, float* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i].ToFloat();
}

/// Batch encode: rounds n floats to fp16 (round-to-nearest-even).
inline void EncodeRows(const float* src, Fp16* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = Fp16(src[i]);
}

/// The value a tensor-core fragment load observes for a float operand:
/// rounded to fp16, then widened exactly. Returns exactly the bits of
/// Fp16(f).ToFloat() for every float, NaNs included (an exhaustive test
/// proves it), without leaving float registers:
///   - normal range: round-to-nearest-even at mantissa bit 13, one
///     integer add (a carry into the exponent is the correct result);
///   - |f| < 2^-14 (fp16 subnormal): adding 0.5f puts the value where the
///     float ulp is 2^-24, the fp16 subnormal step, so the hardware add
///     rounds it to nearest even and subtracting 0.5f is exact;
///   - |f| >= 65520: +-inf;  NaN: sign | quiet NaN (0x7FC00000).
/// Every case is computed and the result chosen with all-ones masks, not
/// branches or ?:, so loops over it contain no control flow and the
/// compiler vectorizes them (RoundRows and the kernels' write-backs).
inline float RoundToFp16(float f) {
  const std::uint32_t x = std::bit_cast<std::uint32_t>(f);
  const std::uint32_t sign = x & 0x80000000u;
  const std::uint32_t a = x & 0x7FFFFFFFu;
  const std::uint32_t normal = (a + 0x0FFFu + ((a >> 13) & 1u)) & ~0x1FFFu;
  const std::uint32_t subnormal =
      std::bit_cast<std::uint32_t>((std::bit_cast<float>(a) + 0.5f) - 0.5f);
  // a has its sign bit clear, so signed compares order it correctly and
  // map to single SIMD compares; -(bool) is the all-ones mask.
  const std::int32_t sa = static_cast<std::int32_t>(a);
  const std::uint32_t is_subnormal = 0u - std::uint32_t{sa < 0x38800000};
  const std::uint32_t is_inf = 0u - std::uint32_t{sa >= 0x477FF000};
  const std::uint32_t is_nan = 0u - std::uint32_t{sa > 0x7F800000};
  std::uint32_t r = (normal & ~is_subnormal) | (subnormal & is_subnormal);
  r = (r & ~is_inf) | (0x7F800000u & is_inf);
  r |= 0x7FC00000u & is_nan;
  return std::bit_cast<float>(sign | r);
}

/// Batch fused round-trip (EncodeRows + DecodeRows without the staging
/// array): fp16-rounds n floats in place of the fragment load.
inline void RoundRows(const float* src, float* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = RoundToFp16(src[i]);
}

}  // namespace shflbw
