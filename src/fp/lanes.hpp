#pragma once

/// \file lanes.hpp
/// Soft-float in SIMD lanes: a block of binary32 vector lanes, each
/// holding an exact `float16` or `bfloat16` value.
///
/// The scalar operators (float16.hpp, bfloat16.hpp) are defined as
/// exact widen, binary32 op, one rounding narrow - Julia's
/// fpext -> op -> fptrunc (paper § IV-C), which A64FX runs as native
/// FP16 SIMD. `lanes<T>` runs that definition on a whole vector: every
/// `+ - *` does the lane op in binary32 and rounds to T's grid
/// in-register, so it is bit-identical to the scalar loop by
/// construction:
///
///  * binary16: vcvtps2ph -> vcvtph2ps (F16C, round to nearest even);
///  * bfloat16: the integer round-to-nearest-even on the bit pattern
///    that f32_bits_to_bf16_bits uses, NaN quieting included;
///  * `lanes<float>` does not round; it is the binary32 side of the
///    mixed Float16/32 member and of the casts between them.
///
/// Exceptional results. After each binary16 round three integer
/// compares and one vptest find the lanes that hold a binary16
/// subnormal, +-inf or NaN. Only when there is one does a cold,
/// out-of-line path run the scalar canonicalization (float16's
/// converting constructor: FTZ flush and fp::counters()) on exactly
/// those lanes. The loop driver never pads a block; a final partial
/// block is shifted back to overlap its predecessor, and its overlapped
/// (`dead`) lanes are neither canonicalized nor stored. So each
/// element-op reaches the counters once, exactly as in the scalar loop,
/// and the hot path touches no thread_local. bfloat16 has no FTZ policy
/// or counters, so its round has no cold path.
///
/// Element cursors. A loop body written once as `body(at)` reads
/// `at(p)` (element i of row p), `at.im(p)` / `at.ip(p)` (its i-1 and
/// i+1 neighbours) and writes `at.put(p, value)`. `at_scalar` makes
/// those scalar T, `at_lanes` makes them `lanes<T>` blocks starting at
/// i; the per-element formula is the same text either way.
///
/// The lane forms exist when the build compiles AVX2 and F16C
/// (`lanes_compiled`, chosen at configure time, src/CMakeLists.txt).
/// Without them `use_lanes` is false everywhere and every loop runs
/// the scalar cursor - the scalar operators are the oracle the lanes
/// are tested against (tests/fp_lanes_test).

#include <cstddef>
#include <type_traits>

#include "fp/bfloat16.hpp"
#include "fp/float16.hpp"
#include "fp/traits.hpp"

#if defined(__AVX2__) && defined(__F16C__)
#include <immintrin.h>
#define TFX_FP_LANES 1
#else
#define TFX_FP_LANES 0
#endif

namespace tfx::fp {

/// True when this build compiled the lane forms (AVX2 + F16C).
inline constexpr bool lanes_compiled = TFX_FP_LANES != 0;

/// A block of `lane_width` consecutive T elements in binary32
/// vector lanes. Defined for float, float16 and bfloat16 when
/// lanes_compiled.
template <typename T>
struct lanes;

/// T has a lane form on this build.
template <typename T>
inline constexpr bool lane_element =
    lanes_compiled &&
    (std::is_same_v<T, float> || std::is_same_v<T, float16> ||
     std::is_same_v<T, bfloat16>);

/// A loop over element types Ts runs in lanes: every type has a lane
/// form and at least one is a widened soft float (loops over native
/// types alone vectorize without help).
template <typename... Ts>
inline constexpr bool use_lanes =
    (lane_element<Ts> && ...) &&
    ((vec_traits<Ts>::kind == vectorizability::widened) || ...);

/// Scalar element cursor: element i, with x-neighbours `left`/`right`.
struct at_scalar {
  std::ptrdiff_t i, left, right;

  template <typename E>
  E operator()(const E* p) const {
    return p[i];
  }
  template <typename E>
  E im(const E* p) const {
    return p[left];
  }
  template <typename E>
  E ip(const E* p) const {
    return p[right];
  }
  template <typename E>
  void put(E* p, E x) const {
    p[i] = x;
  }
};

#if TFX_FP_LANES

/// Elements per lane block: one AVX register of binary32.
inline constexpr std::ptrdiff_t lane_width = 8;

namespace lane_detail {

/// Cold path of the binary16 round: run float16's canonicalization
/// (FTZ flush + event counters) on each lane flagged in `exceptional`,
/// except the first `dead` lanes (see lanes::dead). Out of line, so the
/// hot loop carries only the compare and a branch.
[[gnu::cold, gnu::noinline]] inline __m256 canonicalize_f16(
    __m256 r, __m256i exceptional, int dead) {
  alignas(32) float v[8];
  _mm256_store_ps(v, r);
  auto mask = static_cast<unsigned>(_mm256_movemask_ps(
                  _mm256_castsi256_ps(exceptional))) &
              (0xffu << dead);
  for (; mask != 0; mask &= mask - 1) {
    float& x = v[__builtin_ctz(mask)];
    x = static_cast<float>(float16(x));  // exact narrow, then canonicalize
  }
  return _mm256_load_ps(v);
}

/// Round binary32 lanes to binary16 values (RNE), canonicalizing the
/// subnormal, infinite and NaN lanes like the scalar constructor.
inline __m256 round_f16(__m256 x, int dead) {
  const __m256 r =
      _mm256_cvtph_ps(_mm256_cvtps_ph(x, _MM_FROUND_TO_NEAREST_INT));
  // |r| as bits. On the binary16 grid: 0, subnormals below 2^-14
  // (0x38800000), normals up to 65504 (0x477fe000), then inf/NaN.
  const __m256i b = _mm256_and_si256(_mm256_castps_si256(r),
                                     _mm256_set1_epi32(0x7fffffff));
  const __m256i below_normal =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(0x38800000), b);
  const __m256i nonzero = _mm256_cmpgt_epi32(b, _mm256_setzero_si256());
  const __m256i above_max =
      _mm256_cmpgt_epi32(b, _mm256_set1_epi32(0x477fe000));
  const __m256i exceptional = _mm256_or_si256(
      _mm256_and_si256(below_normal, nonzero), above_max);
  if (!_mm256_testz_si256(exceptional, exceptional)) [[unlikely]] {
    return canonicalize_f16(r, exceptional, dead);
  }
  return r;
}

/// Round binary32 lanes to bfloat16 values: f32_bits_to_bf16_bits per
/// lane (RNE on the low 16 bits; NaN keeps sign and top payload and is
/// forced quiet), left in the high half of each lane.
inline __m256 round_bf16(__m256 x) {
  const __m256i b = _mm256_castps_si256(x);
  const __m256i lsb = _mm256_and_si256(_mm256_srli_epi32(b, 16),
                                       _mm256_set1_epi32(1));
  const __m256i rne = _mm256_add_epi32(
      _mm256_add_epi32(b, _mm256_set1_epi32(0x7fff)), lsb);
  const __m256i quiet = _mm256_or_si256(b, _mm256_set1_epi32(0x00400000));
  const __m256i nan =
      _mm256_castps_si256(_mm256_cmp_ps(x, x, _CMP_UNORD_Q));
  return _mm256_castsi256_ps(
      _mm256_and_si256(_mm256_blendv_epi8(rne, quiet, nan),
                       _mm256_set1_epi32(static_cast<int>(0xffff0000u))));
}

template <typename T>
inline __m256 round(__m256 x, int dead) {
  if constexpr (std::is_same_v<T, float16>) {
    return round_f16(x, dead);
  } else if constexpr (std::is_same_v<T, bfloat16>) {
    return round_bf16(x);
  } else {
    return x;
  }
}

inline __m256 load(const float* p) { return _mm256_loadu_ps(p); }
inline __m256 load(const float16* p) {
  return _mm256_cvtph_ps(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}
inline __m256 load(const bfloat16* p) {
  const __m128i h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  return _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_cvtepu16_epi32(h), 16));
}

// The stores narrow exactly: every lane already holds a value of the
// element type. The first `dead` lanes keep the memory they overlap.
inline void store(float* p, __m256 v, int dead = 0) {
  if (dead > 0) {
    const __m256i keep = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(dead), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    v = _mm256_blendv_ps(v, _mm256_loadu_ps(p), _mm256_castsi256_ps(keep));
  }
  _mm256_storeu_ps(p, v);
}
inline void store16(void* p, __m128i h, int dead) {
  auto* q = static_cast<__m128i*>(p);
  if (dead > 0) {
    const __m128i keep = _mm_cmpgt_epi16(
        _mm_set1_epi16(static_cast<short>(dead)),
        _mm_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7));
    h = _mm_blendv_epi8(h, _mm_loadu_si128(q), keep);
  }
  _mm_storeu_si128(q, h);
}
inline void store(float16* p, __m256 v, int dead = 0) {
  store16(p, _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT), dead);
}
inline void store(bfloat16* p, __m256 v, int dead = 0) {
  const __m256i hi = _mm256_srli_epi32(_mm256_castps_si256(v), 16);
  store16(p,
          _mm_packus_epi32(_mm256_castsi256_si128(hi),
                           _mm256_extracti128_si256(hi, 1)),
          dead);
}

}  // namespace lane_detail

template <typename T>
struct lanes {
  static_assert(lane_element<T>);

  __m256 v;
  /// Leading lanes of a final block that overlaps the block before it
  /// (fp::for_each_element): they recompute elements that are already
  /// done, so they skip the canonicalization (no counter sees them
  /// twice) and their stores keep the memory they overlap. 0 for every
  /// other block.
  int dead = 0;

  [[nodiscard]] static lanes load(const T* p, int dead = 0) {
    return {lane_detail::load(p), dead};
  }
  void store(T* p) const { lane_detail::store(p, v, dead); }
  [[nodiscard]] static lanes broadcast(T s) {
    return {_mm256_set1_ps(static_cast<float>(s))};
  }
  /// The cast To(double(x)) per lane: exact when widening, one
  /// rounding (with T's canonicalization) when narrowing.
  template <typename From>
  [[nodiscard]] static lanes from(lanes<From> x) {
    if constexpr (std::is_same_v<From, T>) {
      return x;
    } else {
      return {lane_detail::round<T>(x.v, x.dead), x.dead};
    }
  }

  friend lanes operator+(lanes a, lanes b) {
    return rounded(_mm256_add_ps(a.v, b.v), a, b);
  }
  friend lanes operator-(lanes a, lanes b) {
    return rounded(_mm256_sub_ps(a.v, b.v), a, b);
  }
  friend lanes operator*(lanes a, lanes b) {
    return rounded(_mm256_mul_ps(a.v, b.v), a, b);
  }
  /// Sign flip, exact (the scalar operator flips the sign bit).
  friend lanes operator-(lanes a) {
    return {_mm256_xor_ps(a.v, _mm256_set1_ps(-0.0f)), a.dead};
  }

  // A scalar operand is broadcast (exact) to every lane.
  friend lanes operator+(T a, lanes b) { return broadcast(a) + b; }
  friend lanes operator+(lanes a, T b) { return a + broadcast(b); }
  friend lanes operator-(T a, lanes b) { return broadcast(a) - b; }
  friend lanes operator-(lanes a, T b) { return a - broadcast(b); }
  friend lanes operator*(T a, lanes b) { return broadcast(a) * b; }
  friend lanes operator*(lanes a, T b) { return a * broadcast(b); }

 private:
  static lanes rounded(__m256 x, lanes a, lanes b) {
    const int dead = a.dead > b.dead ? a.dead : b.dead;
    return {lane_detail::round<T>(x, dead), dead};
  }
};

/// Lane element cursor: the block of lane_width elements from i, of
/// which the first `dead` were computed by the block before.
struct at_lanes {
  std::ptrdiff_t i;
  int dead = 0;

  template <typename E>
  lanes<E> operator()(const E* p) const {
    return lanes<E>::load(p + i, dead);
  }
  template <typename E>
  lanes<E> im(const E* p) const {
    return lanes<E>::load(p + i - 1, dead);
  }
  template <typename E>
  lanes<E> ip(const E* p) const {
    return lanes<E>::load(p + i + 1, dead);
  }
  template <typename E>
  void put(E* p, lanes<E> x) const {
    x.store(p + i);
  }
};

#endif  // TFX_FP_LANES

/// body(at) for every element of [lo, hi), in order. With `Lanes` and
/// at least one whole block: lane blocks, the last one shifted back to
/// end at hi and overlapping its predecessor (its overlapped lanes are
/// `dead`: neither counted nor stored, so every element-op is counted
/// and written once, and nothing outside [lo, hi) is touched).
/// Otherwise the scalar cursor. Elements must be independent, and a
/// block may re-read the inputs of elements it overlaps.
template <bool Lanes, typename Body>
inline void for_each_element(std::size_t lo, std::size_t hi, Body&& body) {
  auto i = static_cast<std::ptrdiff_t>(lo);
  const auto n = static_cast<std::ptrdiff_t>(hi);
#if TFX_FP_LANES
  if constexpr (Lanes) {
    if (n - i >= lane_width) {
      for (; i + lane_width <= n; i += lane_width) body(at_lanes{i});
      if (i < n) {
        body(at_lanes{n - lane_width, static_cast<int>(lane_width - (n - i))});
      }
      return;
    }
  }
#endif
  for (; i < n; ++i) body(at_scalar{i, i - 1, i + 1});
}

}  // namespace tfx::fp
