#pragma once

/// \file traits.hpp
/// Compile-time descriptions of the number formats the library sweeps
/// over. This is the C++ analogue of what the paper gets from Julia's
/// type hierarchy (`Float16 <: AbstractFloat`, § II): generic code asks
/// `precision_traits<T>` instead of dispatching on concrete methods.

#include <cstddef>
#include <string_view>

#include "fp/bfloat16.hpp"
#include "fp/float16.hpp"

namespace tfx::fp {

/// Marker for how an operation on T executes on the modeled machine.
enum class hardware_support {
  native,   ///< full-width SVE arithmetic at this element size (A64FX: all three IEEE widths)
  widened,  ///< computed at the next-wider format (pre-1.6-Julia style)
  software, ///< scalar soft-float (no SIMD credit in the machine model)
};

template <typename T>
struct precision_traits;

template <>
struct precision_traits<double> {
  static constexpr std::string_view name = "Float64";
  static constexpr std::size_t bytes = 8;
  static constexpr int significand_bits = 53;
  static constexpr hardware_support a64fx = hardware_support::native;
};

template <>
struct precision_traits<float> {
  static constexpr std::string_view name = "Float32";
  static constexpr std::size_t bytes = 4;
  static constexpr int significand_bits = 24;
  static constexpr hardware_support a64fx = hardware_support::native;
};

template <>
struct precision_traits<float16> {
  static constexpr std::string_view name = "Float16";
  static constexpr std::size_t bytes = 2;
  static constexpr int significand_bits = 11;
  // The experiments in the paper's § III-B explicitly enable native
  // Float16 lowering (their footnote 3); the machine model follows.
  static constexpr hardware_support a64fx = hardware_support::native;
};

template <>
struct precision_traits<bfloat16> {
  static constexpr std::string_view name = "BFloat16";
  static constexpr std::size_t bytes = 2;
  static constexpr int significand_bits = 8;
  // A64FX has no bfloat16 arithmetic; it would execute as software.
  static constexpr hardware_support a64fx = hardware_support::software;
};

/// How the *host* vector layer (kernels/simd.hpp) may execute element
/// type T. Orthogonal to `hardware_support` above, which describes the
/// modeled A64FX: e.g. float16 is `native` on the modeled machine but
/// only `widened` on an x86 build host.
enum class vectorizability {
  native,   ///< lanes of T itself (double, float)
  widened,  ///< binary32 lanes (fp::lanes); every widen is exact and
            ///< every narrowing round matches the type's scalar operator
            ///< semantics, so the widened path is bit-identical to the
            ///< scalar soft-float loop (float16, bfloat16)
  scalar,   ///< per-type fallback: side effects (sherlog's logging),
            ///< non-power-of-two semantics (minifloat saturation modes)
            ///< or carried state (compensated accumulators) make lane
            ///< execution either unfaithful or unprofitable
};

template <typename T>
struct vec_traits {
  static constexpr vectorizability kind = vectorizability::scalar;
};

template <>
struct vec_traits<double> {
  static constexpr vectorizability kind = vectorizability::native;
};

template <>
struct vec_traits<float> {
  static constexpr vectorizability kind = vectorizability::native;
};

/// float16 arithmetic is *defined* (float16.hpp) as exact widening to
/// binary32, a binary32 op, and a rounding narrow with FTZ/counter
/// canonicalization. The widened vector path (fp::lanes, lanes.hpp)
/// performs exactly those steps - binary32 lanes for the op, an
/// in-register round, the scalar canonicalization on exceptional
/// lanes - so it is bit-identical to the scalar loop, subnormal
/// counters included.
template <>
struct vec_traits<float16> {
  static constexpr vectorizability kind = vectorizability::widened;
};

/// Same operational definition as float16 (bfloat16.hpp).
template <>
struct vec_traits<bfloat16> {
  static constexpr vectorizability kind = vectorizability::widened;
};

}  // namespace tfx::fp
