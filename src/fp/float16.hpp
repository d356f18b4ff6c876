#pragma once

/// \file float16.hpp
/// Software IEEE-754 binary16 with Julia's operational semantics.
///
/// Every arithmetic operation extends the operands to binary32 (exact),
/// computes there, and rounds the result back to binary16 — the exact
/// `fpext` / `fptrunc` scheme Julia emits for software Float16 (paper
/// § II and § IV-C). For + - * / and sqrt this is bit-identical to
/// native binary16 hardware (2p+2 theorem), so numerical results match
/// what the paper measured on A64FX.
///
/// The result of each operation passes through `canonicalize()`, which
/// applies the thread's flush-to-zero mode and maintains the event
/// counters used by the A64FX performance model (see fpenv.hpp). Only
/// subnormal, infinite and NaN results reach the thread-local state.
///
/// The widen and narrow are `f16_to_f32` / `f32_to_f16_bits` below:
/// the F16C instructions (vcvtph2ps / vcvtps2ph, round to nearest even)
/// when the build compiles F16C, the constexpr bit routines of
/// rounding.hpp otherwise. The bit routines stay the oracle
/// (tests/fp_f16c_test checks F16C against them over every input).
/// These scalar operators are in turn the oracle for the vector form
/// of the same definition, fp::lanes<float16> (lanes.hpp), which the
/// SWM row kernels and sweeps run on an AVX2 + F16C build.

#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <type_traits>

#include "fp/fpenv.hpp"
#include "fp/rounding.hpp"

#if defined(__F16C__)
#include <immintrin.h>
#endif

namespace tfx::fp {

/// binary32 -> binary16 bits, round to nearest even.
inline std::uint16_t f32_to_f16_bits(float f) {
#if defined(__F16C__)
  return static_cast<std::uint16_t>(_cvtss_sh(f, _MM_FROUND_TO_NEAREST_INT));
#else
  return f32_bits_to_f16_bits(std::bit_cast<std::uint32_t>(f));
#endif
}

/// binary16 bits -> binary32 (exact).
inline float f16_to_f32(std::uint16_t h) {
#if defined(__F16C__)
  return _cvtsh_ss(h);
#else
  return std::bit_cast<float>(f16_bits_to_f32_bits(h));
#endif
}

class float16 {
 public:
  /// Value-initializes to +0.0.
  constexpr float16() = default;

  /// Rounding conversions from the built-in floating types.
  explicit float16(float f) : bits_(f32_to_f16_bits(f)) { canonicalize(); }
  /// binary64 -> binary32 with round-to-odd, then one binary16 round:
  /// a single correct rounding (rounding.hpp, f64_to_f16_bits).
  explicit float16(double d)
      : bits_(f32_to_f16_bits(f64_to_f32_round_to_odd(d))) {
    canonicalize();
  }

  /// Conversion from integers (exact for |i| <= 2048, rounded above).
  template <typename Int, typename = std::enable_if_t<std::is_integral_v<Int>>>
  explicit float16(Int i) : float16(static_cast<double>(i)) {}

  /// Reconstitute from raw storage bits.
  static constexpr float16 from_bits(std::uint16_t bits) {
    float16 h;
    h.bits_ = bits;
    return h;
  }

  /// Raw storage bits (sign | exponent | mantissa).
  [[nodiscard]] constexpr std::uint16_t bits() const { return bits_; }

  /// Exact widening conversions.
  explicit operator float() const { return f16_to_f32(bits_); }
  explicit operator double() const { return static_cast<float>(*this); }

  // -- classification ------------------------------------------------

  [[nodiscard]] constexpr bool isnan() const {
    return (bits_ & 0x7fffu) > 0x7c00u;
  }
  [[nodiscard]] constexpr bool isinf() const {
    return (bits_ & 0x7fffu) == 0x7c00u;
  }
  [[nodiscard]] constexpr bool isfinite() const {
    return (bits_ & 0x7c00u) != 0x7c00u;
  }
  [[nodiscard]] constexpr bool iszero() const {
    return (bits_ & 0x7fffu) == 0;
  }
  [[nodiscard]] constexpr bool is_subnormal() const {
    return (bits_ & 0x7c00u) == 0 && (bits_ & 0x3ffu) != 0;
  }
  [[nodiscard]] constexpr bool signbit() const { return (bits_ & 0x8000u) != 0; }

  // -- arithmetic (binary32 compute, binary16 round, FTZ policy) ------

  friend float16 operator+(float16 a, float16 b) {
    return float16(static_cast<float>(a) + static_cast<float>(b));
  }
  friend float16 operator-(float16 a, float16 b) {
    return float16(static_cast<float>(a) - static_cast<float>(b));
  }
  friend float16 operator*(float16 a, float16 b) {
    return float16(static_cast<float>(a) * static_cast<float>(b));
  }
  friend float16 operator/(float16 a, float16 b) {
    return float16(static_cast<float>(a) / static_cast<float>(b));
  }
  friend constexpr float16 operator-(float16 a) {
    return from_bits(static_cast<std::uint16_t>(a.bits_ ^ 0x8000u));
  }
  friend constexpr float16 operator+(float16 a) { return a; }

  float16& operator+=(float16 o) { return *this = *this + o; }
  float16& operator-=(float16 o) { return *this = *this - o; }
  float16& operator*=(float16 o) { return *this = *this * o; }
  float16& operator/=(float16 o) { return *this = *this / o; }

  // -- comparisons (IEEE: NaN compares false, -0 == +0) ---------------

  friend bool operator==(float16 a, float16 b) {
    return static_cast<float>(a) == static_cast<float>(b);
  }
  friend bool operator!=(float16 a, float16 b) { return !(a == b); }
  friend bool operator<(float16 a, float16 b) {
    return static_cast<float>(a) < static_cast<float>(b);
  }
  friend bool operator>(float16 a, float16 b) { return b < a; }
  friend bool operator<=(float16 a, float16 b) {
    return static_cast<float>(a) <= static_cast<float>(b);
  }
  friend bool operator>=(float16 a, float16 b) { return b <= a; }

 private:
  /// Apply the thread FTZ policy and update event counters. Called on
  /// every freshly rounded result (i.e., from the converting
  /// constructors, which every arithmetic operator funnels through).
  void canonicalize() {
    if (is_subnormal()) {
      auto& c = counters();
      ++c.f16_subnormal_results;
      if (current_ftz_mode() == ftz_mode::flush) {
        ++c.f16_flushed_results;
        bits_ &= 0x8000u;  // signed zero
      }
    } else if (isinf()) {
      ++counters().f16_overflows;
    } else if (isnan()) {
      ++counters().f16_nans;
    }
  }

  std::uint16_t bits_ = 0;
};

static_assert(sizeof(float16) == 2);
static_assert(std::is_trivially_copyable_v<float16>);

// -- math functions ---------------------------------------------------

/// Julia-semantics muladd: round after the multiply AND after the add
/// (two fptrunc steps). This is what Julia emits for software Float16
/// (the exact IR is quoted in § IV-C of the paper).
inline float16 muladd(float16 x, float16 y, float16 z) {
  const float16 prod = x * y;
  return prod + z;
}

/// Hardware-semantics fused multiply-add: a single rounding, matching
/// the A64FX FMLA instruction. Computed exactly via binary64 fma +
/// round-to-odd narrowing (correct by the 2p+2 theorem).
inline float16 fma(float16 x, float16 y, float16 z) {
  const double exact = std::fma(static_cast<double>(x),
                                static_cast<double>(y),
                                static_cast<double>(z));
  return float16(exact);
}

inline float16 abs(float16 x) {
  return float16::from_bits(static_cast<std::uint16_t>(x.bits() & 0x7fffu));
}
inline float16 sqrt(float16 x) {
  return float16(std::sqrt(static_cast<float>(x)));
}
inline float16 exp(float16 x) { return float16(std::exp(static_cast<float>(x))); }
inline float16 log(float16 x) { return float16(std::log(static_cast<float>(x))); }
inline float16 sin(float16 x) { return float16(std::sin(static_cast<float>(x))); }
inline float16 cos(float16 x) { return float16(std::cos(static_cast<float>(x))); }
inline float16 tanh(float16 x) {
  return float16(std::tanh(static_cast<float>(x)));
}
inline float16 pow(float16 x, float16 y) {
  return float16(std::pow(static_cast<float>(x), static_cast<float>(y)));
}
inline float16 min(float16 a, float16 b) { return b < a ? b : a; }
inline float16 max(float16 a, float16 b) { return a < b ? b : a; }
inline bool isnan(float16 x) { return x.isnan(); }
inline bool isinf(float16 x) { return x.isinf(); }
inline bool isfinite(float16 x) { return x.isfinite(); }
inline bool signbit(float16 x) { return x.signbit(); }

/// The next representable binary16 value after `x` toward `dir`
/// (IEEE nextafter semantics: gradual through subnormals and zero,
/// saturating into infinity).
float16 nextafter(float16 x, float16 dir);

/// Distance between two finite binary16 values in units in the last
/// place (number of representable values strictly between them, plus
/// one if distinct). Useful for tight accuracy assertions.
std::int64_t ulp_distance(float16 a, float16 b);

std::ostream& operator<<(std::ostream& os, float16 h);

}  // namespace tfx::fp

/// numeric_limits so that generic numerical code (swm, kernels, tests)
/// can query epsilon/min/max exactly as it would for float or double.
template <>
class std::numeric_limits<tfx::fp::float16> {
 public:
  static constexpr bool is_specialized = true;
  static constexpr bool is_signed = true;
  static constexpr bool is_integer = false;
  static constexpr bool is_exact = false;
  static constexpr bool has_infinity = true;
  static constexpr bool has_quiet_NaN = true;
  static constexpr bool has_denorm_loss = false;
  static constexpr bool is_iec559 = true;
  static constexpr bool is_bounded = true;
  static constexpr bool is_modulo = false;
  static constexpr int digits = 11;
  static constexpr int digits10 = 3;
  static constexpr int max_digits10 = 5;
  static constexpr int radix = 2;
  static constexpr int min_exponent = -13;
  static constexpr int min_exponent10 = -4;
  static constexpr int max_exponent = 16;
  static constexpr int max_exponent10 = 4;
  static constexpr bool traps = false;

  /// Smallest positive normal: 2^-14 ~= 6.10e-5.
  static constexpr tfx::fp::float16 min() noexcept {
    return tfx::fp::float16::from_bits(0x0400);
  }
  /// Largest finite: 65504.
  static constexpr tfx::fp::float16 max() noexcept {
    return tfx::fp::float16::from_bits(0x7bff);
  }
  static constexpr tfx::fp::float16 lowest() noexcept {
    return tfx::fp::float16::from_bits(0xfbff);
  }
  /// 2^-10 ~= 9.77e-4.
  static constexpr tfx::fp::float16 epsilon() noexcept {
    return tfx::fp::float16::from_bits(0x1400);
  }
  static constexpr tfx::fp::float16 round_error() noexcept {
    return tfx::fp::float16::from_bits(0x3800);  // 0.5
  }
  static constexpr tfx::fp::float16 infinity() noexcept {
    return tfx::fp::float16::from_bits(0x7c00);
  }
  static constexpr tfx::fp::float16 quiet_NaN() noexcept {
    return tfx::fp::float16::from_bits(0x7e00);
  }
  /// Smallest positive subnormal: 2^-24 ~= 5.96e-8.
  static constexpr tfx::fp::float16 denorm_min() noexcept {
    return tfx::fp::float16::from_bits(0x0001);
  }
};
