#pragma once

/// \file features.hpp
/// Runtime CPU-feature detection for the kernel dispatcher.
///
/// The paper's performance story needs two width notions kept apart:
///
///  * the *modeled* width — the A64FX's 512-bit SVE lanes that
///    arch::a64fx_params and the roofline charge for (what the paper's
///    Fig. 1 measures), and
///  * the *host* width — whatever the build machine actually executes,
///    which decides which fixed-width kernel backend
///    (kernels/simd.hpp) is profitable to run for wall-clock numbers.
///
/// This header answers the second question, twice: what the CPU
/// advertises (`host_features`, detected at run time) and what this
/// build was compiled to use without asking (`compiled_features`, from
/// the compiler's predefined macros). The build only compiles an ISA
/// the configuring host executes (src/CMakeLists.txt), so compiled is a
/// subset of detected on that host. Detection is done once
/// (first call), is thread-safe, and degrades gracefully: on an
/// unrecognized architecture the answer is the portable 128-bit
/// minimum, which every fixed-width backend can execute because the
/// compiler synthesizes wide vector operations from narrower ones.

#include <cstddef>
#include <string_view>

namespace tfx::arch {

/// What the host CPU advertises, reduced to the decisions the kernel
/// layer actually takes.
struct cpu_features {
  bool sse2 = false;     ///< x86-64 baseline (always true there)
  bool avx2 = false;     ///< 256-bit integer+FP vectors
  bool f16c = false;     ///< binary16 <-> binary32 vector conversions
  bool avx512f = false;  ///< 512-bit vectors
  bool neon = false;     ///< AArch64 baseline ASIMD
  bool sve = false;      ///< scalable vectors (the A64FX's ISA)

  /// Widest vector width (bits) the host can execute natively. One of
  /// 128 / 256 / 512. The fixed-width backends remain *runnable* above
  /// this (synthesized from narrower ops); this is the width at which
  /// the lanes are real.
  std::size_t max_vector_bits = 128;

  /// Short human-readable ISA summary ("avx512f", "avx2", "neon", ...).
  std::string_view isa = "portable";
};

/// The host's features, detected once and cached (thread-safe).
const cpu_features& host_features();

/// The x86 vector extensions this build compiled in unconditionally
/// (__AVX2__, __F16C__, __AVX512F__): the ISA the kernels actually
/// run, as opposed to the widths the dispatcher labels.
struct compiled_isa {
  bool avx2 = false;
  bool f16c = false;
  bool avx512f = false;
};

inline constexpr compiled_isa compiled_features() {
  compiled_isa c;
#if defined(__AVX2__)
  c.avx2 = true;
#endif
#if defined(__F16C__)
  c.f16c = true;
#endif
#if defined(__AVX512F__)
  c.avx512f = true;
#endif
  return c;
}

/// The widest fixed-width kernel backend worth selecting on this host:
/// host_features().max_vector_bits clamped to the widths the simd layer
/// instantiates (128/256/512).
std::size_t preferred_vector_bits();

}  // namespace tfx::arch
