#pragma once

/// \file timestep.hpp
/// Time-integration building blocks: element-wise field updates in a
/// chosen accumulation precision, with or without compensation.
///
/// The paper's three configurations of Fig. 5 map onto these:
///  * Float64 / Float32:        standard accumulation, Tprog == T
///  * Float16 (default):        compensated (Kahan) accumulation in T;
///                              "a compensated summation that
///                              compensates for the rounding error of
///                              the previous time step" (~5 % runtime)
///  * Float16/32 mixed:         RHS in Float16, accumulation in Float32
///                              (Tprog = float), no compensation

#include <span>
#include <type_traits>

#include "core/contracts.hpp"
#include "fp/lanes.hpp"
#include "fp/traits.hpp"
#include "kernels/sweeps.hpp"
#include "swm/field.hpp"
#include "swm/rhs.hpp"

namespace tfx::swm {

/// How the prognostic update y_{n+1} = y_n + dt*F is accumulated.
enum class integration_scheme {
  standard,     ///< plain += in Tprog
  compensated,  ///< Kahan-compensated += in Tprog
};

/// Which sweep structure model<T, Tprog>::step runs. Both produce
/// bit-identical trajectories (tests/swm_fused_test); `unfused` keeps
/// the reference element-wise kernels alive for the fusion ablation
/// (bench/ablation_fusion) and as the comparison oracle.
///
/// The fused sweeps route native element types (double / float with
/// T == Tprog, per fp::vec_traits) through the dispatched vector
/// kernels in kernels/sweeps.hpp — explicitly vectorized at the runtime
/// width policy, bit-identical to the scalar loops at every width
/// (docs/KERNELS.md). Float16/BFloat16 (and the mixed Float16/32 pair)
/// run the same per-element text in fp::lanes blocks (fp/lanes.hpp);
/// analysis types keep the scalar loops. The unfused sweeps stay
/// scalar: they are the oracle.
enum class update_pipeline {
  fused,    ///< combine/down-cast/RHS as one region per stage; one
            ///< increment+apply sweep per field, no increment arrays
  unfused,  ///< separate serial sweeps: stage_combine x3, rk4_increment,
            ///< apply_increment[_compensated]
};

/// Lossless-where-possible precision cast (via double, exact for all
/// library formats).
template <typename To, typename From>
constexpr To fpcast(const From& v) {
  if constexpr (std::is_same_v<To, From>) {
    return v;
  } else {
    return To(static_cast<double>(v));
  }
}

/// The same cast on a lane block (fp/lanes.hpp), lane by lane.
template <typename To, typename From>
fp::lanes<To> fpcast(const fp::lanes<From>& v) {
  return fp::lanes<To>::from(v);
}

/// out = y + a * k, element-wise, computed in Tprog (k cast up/down as
/// needed). Used to form the RK stage states.
template <typename Tprog, typename T>
void stage_combine(field2d<Tprog>& out, const field2d<Tprog>& y,
                   const field2d<T>& k, Tprog a) {
  auto o = out.flat();
  auto yy = y.flat();
  auto kk = k.flat();
  TFX_EXPECTS(o.size() == yy.size() && o.size() == kk.size());
  for (std::size_t idx = 0; idx < o.size(); ++idx) {
    o[idx] = yy[idx] + a * fpcast<Tprog>(kk[idx]);
  }
}

/// The RK4 combination (k1 + 2 k2 + 2 k3 + k4) / 6, in Tprog.
template <typename Tprog, typename T>
void rk4_increment(field2d<Tprog>& inc, const field2d<T>& k1,
                   const field2d<T>& k2, const field2d<T>& k3,
                   const field2d<T>& k4) {
  auto o = inc.flat();
  auto a = k1.flat();
  auto b = k2.flat();
  auto cc = k3.flat();
  auto d = k4.flat();
  const Tprog two{2};
  const Tprog sixth = Tprog(1.0 / 6.0);
  for (std::size_t idx = 0; idx < o.size(); ++idx) {
    const Tprog sum = fpcast<Tprog>(a[idx]) + two * fpcast<Tprog>(b[idx]) +
                      two * fpcast<Tprog>(cc[idx]) + fpcast<Tprog>(d[idx]);
    o[idx] = sixth * sum;
  }
}

/// y += inc, plain.
template <typename Tprog>
void apply_increment(field2d<Tprog>& y, const field2d<Tprog>& inc) {
  auto yy = y.flat();
  auto ii = inc.flat();
  for (std::size_t idx = 0; idx < yy.size(); ++idx) yy[idx] += ii[idx];
}

/// y += inc with Kahan compensation carried in `comp` across steps -
/// the compensated time integration of § III-B / Fig. 4's caption.
template <typename Tprog>
void apply_increment_compensated(field2d<Tprog>& y, const field2d<Tprog>& inc,
                                 field2d<Tprog>& comp) {
  auto yy = y.flat();
  auto ii = inc.flat();
  auto cc = comp.flat();
  for (std::size_t idx = 0; idx < yy.size(); ++idx) {
    const Tprog adjusted = ii[idx] - cc[idx];
    const Tprog t = yy[idx] + adjusted;
    cc[idx] = (t - yy[idx]) - adjusted;
    yy[idx] = t;
  }
}

// ---------------------------------------------------------------------------
// Fused update pipeline. The rk4_increment + apply_increment pair above
// costs two sweeps per field and a full increment array of traffic (one
// write, one read). Because the per-element arithmetic chains are
// independent, both can run in ONE sweep that never materializes the
// increment: the element value
//
//   inc = (k1 + 2 k2 + 2 k3 + k4) / 6        (evaluated in Tprog,
//                                              left-to-right, exactly as
//                                              rk4_increment writes it)
//
// feeds straight into y += inc (or the Kahan update), so the fused
// kernels are bit-identical to the unfused pair at every precision -
// tests/swm_fused_test pins this against the unfused path.
// ---------------------------------------------------------------------------

/// One element range of the fused standard update: y += rk4(k1..k4).
template <typename Tprog, typename T>
void fused_rk4_update_range(std::span<Tprog> y, std::span<const T> k1,
                            std::span<const T> k2, std::span<const T> k3,
                            std::span<const T> k4, std::size_t lo,
                            std::size_t hi) {
  if constexpr (std::is_same_v<T, Tprog> &&
                fp::vec_traits<Tprog>::kind == fp::vectorizability::native) {
    kernels::sweeps::rk4_update<Tprog>(y, k1, k2, k3, k4, lo, hi);
    return;
  }
  const Tprog two{2};
  const Tprog sixth = Tprog(1.0 / 6.0);
  Tprog* const yp = y.data();
  const T* const a = k1.data();
  const T* const b = k2.data();
  const T* const c = k3.data();
  const T* const d = k4.data();
  fp::for_each_element<fp::use_lanes<Tprog, T>>(lo, hi, [&](auto at) {
    const auto sum = fpcast<Tprog>(at(a)) + two * fpcast<Tprog>(at(b)) +
                     two * fpcast<Tprog>(at(c)) + fpcast<Tprog>(at(d));
    at.put(yp, at(yp) + sixth * sum);
  });
}

/// One element range of the fused compensated update: the Kahan
/// recurrence of apply_increment_compensated with the increment formed
/// in registers.
template <typename Tprog, typename T>
void fused_rk4_update_compensated_range(std::span<Tprog> y,
                                        std::span<Tprog> comp,
                                        std::span<const T> k1,
                                        std::span<const T> k2,
                                        std::span<const T> k3,
                                        std::span<const T> k4, std::size_t lo,
                                        std::size_t hi) {
  if constexpr (std::is_same_v<T, Tprog> &&
                fp::vec_traits<Tprog>::kind == fp::vectorizability::native) {
    kernels::sweeps::rk4_update_kahan<Tprog>(y, comp, k1, k2, k3, k4, lo, hi);
    return;
  }
  const Tprog two{2};
  const Tprog sixth = Tprog(1.0 / 6.0);
  Tprog* const yp = y.data();
  Tprog* const cp = comp.data();
  const T* const a = k1.data();
  const T* const b = k2.data();
  const T* const c = k3.data();
  const T* const d = k4.data();
  fp::for_each_element<fp::use_lanes<Tprog, T>>(lo, hi, [&](auto at) {
    const auto sum = fpcast<Tprog>(at(a)) + two * fpcast<Tprog>(at(b)) +
                     two * fpcast<Tprog>(at(c)) + fpcast<Tprog>(at(d));
    const auto inc = sixth * sum;
    const auto y0 = at(yp);
    const auto adjusted = inc - at(cp);
    const auto t = y0 + adjusted;
    at.put(cp, (t - y0) - adjusted);
    at.put(yp, t);
  });
}

/// Whole-field fused update, standard accumulation.
template <typename Tprog, typename T>
void fused_rk4_update(field2d<Tprog>& y, const field2d<T>& k1,
                      const field2d<T>& k2, const field2d<T>& k3,
                      const field2d<T>& k4) {
  TFX_EXPECTS(y.size() == k1.size());
  fused_rk4_update_range<Tprog, T>(y.flat(), k1.flat(), k2.flat(), k3.flat(),
                                   k4.flat(), 0, y.size());
}

/// Whole-field fused update, Kahan-compensated accumulation.
template <typename Tprog, typename T>
void fused_rk4_update_compensated(field2d<Tprog>& y, field2d<Tprog>& comp,
                                  const field2d<T>& k1, const field2d<T>& k2,
                                  const field2d<T>& k3,
                                  const field2d<T>& k4) {
  TFX_EXPECTS(y.size() == k1.size() && y.size() == comp.size());
  fused_rk4_update_compensated_range<Tprog, T>(y.flat(), comp.flat(),
                                               k1.flat(), k2.flat(), k3.flat(),
                                               k4.flat(), 0, y.size());
}

/// One element range of the fused stage combine: out = y + a*k for all
/// three prognostic fields in a single loop (one element-wise sweep
/// instead of three; per-field arithmetic identical to stage_combine).
template <typename Tprog, typename T>
void fused_stage_combine_range(state<Tprog>& out, const state<Tprog>& y,
                               const tendencies<T>& k, Tprog a, std::size_t lo,
                               std::size_t hi) {
  auto ou = out.u.flat();
  auto ov = out.v.flat();
  auto oe = out.eta.flat();
  auto yu = y.u.flat();
  auto yv = y.v.flat();
  auto ye = y.eta.flat();
  auto ku = k.du.flat();
  auto kv = k.dv.flat();
  auto ke = k.deta.flat();
  // Elements are independent, so the interleaved three-field loop and
  // three per-field sweeps compute identical values; the per-field form
  // is what the vector kernels and the lane blocks want.
  if constexpr (std::is_same_v<T, Tprog> &&
                fp::vec_traits<Tprog>::kind == fp::vectorizability::native) {
    kernels::sweeps::combine<Tprog>(ou, yu, ku, a, lo, hi);
    kernels::sweeps::combine<Tprog>(ov, yv, kv, a, lo, hi);
    kernels::sweeps::combine<Tprog>(oe, ye, ke, a, lo, hi);
    return;
  }
  const auto combine = [&](Tprog* o, const Tprog* yy, const T* kk) {
    fp::for_each_element<fp::use_lanes<Tprog, T>>(lo, hi, [&](auto at) {
      at.put(o, at(yy) + a * fpcast<Tprog>(at(kk)));
    });
  };
  combine(ou.data(), yu.data(), ku.data());
  combine(ov.data(), yv.data(), kv.data());
  combine(oe.data(), ye.data(), ke.data());
}

}  // namespace tfx::swm
