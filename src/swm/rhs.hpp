#pragma once

/// \file rhs.hpp
/// Right-hand side of the shallow-water equations on the C-grid.
///
/// Vector-invariant form (the ShallowWaters.jl discretization family):
///
///   u_t = +(f + zeta) vbar - d/dx (g eta + KE) + Fx - r u + nu4 lap^2 u
///   v_t = -(f + zeta) ubar - d/dy (g eta + KE)      - r v + nu4 lap^2 v
///   eta_t = -d/dx (u h) - d/dy (v h),   h = h0 + eta
///
/// discretized with centered differences, 4-point stagger averages, a
/// corner-point relative vorticity, and biharmonic diffusion. The
/// evaluator produces per-step *increments* (dt folded into every
/// coefficient) of the *scaled* prognostic variables U = s u, V = s v,
/// H = s eta; see params.hpp for why both devices matter at Float16.
///
/// Requires square cells (dx == dy), which the default configurations
/// guarantee; the constructor checks it.
///
/// Boundary conditions: doubly periodic by default; the channel option
/// (params.hpp) places free-slip solid walls at y = 0 and y = Ly. On
/// this C-grid layout the north-wall v-points coincide with the wrapped
/// v(i, 0) row, so keeping that row at zero enforces no-flux through
/// BOTH walls with the periodic index arithmetic intact; the remaining
/// wall handling is (a) mirroring u across the walls (free slip:
/// du/dy = 0, which also zeroes the wall vorticity), (b) an
/// antisymmetric v ghost making lap_v vanish on the wall row, and (c)
/// forcing dv = 0 on the wall row.
///
/// Layout: each pass is a row kernel (namespace rhs_row) over raw row
/// pointers. The caller picks the neighbour rows once per row - the
/// evaluator below its wrapped or wall-mirrored rows, the distributed
/// model its halo rows - and the kernel peels the periodic wrap
/// columns i = 0 and i = nx-1, so the interior loop indexes i-1/i+1
/// with no branch and the compiler vectorizes it. Each per-element
/// formula is written once against an element cursor (fp/lanes.hpp):
/// native types get the scalar cursor, Float16/BFloat16 get lane
/// blocks in the interior. Every per-element expression keeps its
/// operand order, and the tree builds with -ffp-contract=off, so the
/// vector lanes round exactly like the scalar code
/// (tests/swm_golden_test pins the trajectories, tests/fp_lanes_test
/// each kernel against its scalar-cursor instantiation).

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/contracts.hpp"
#include "core/threadpool.hpp"
#include "fp/fpenv.hpp"
#include "fp/lanes.hpp"
#include "swm/field.hpp"
#include "swm/params.hpp"
#include "swm/sweep.hpp"

namespace tfx::swm {

/// Per-step increments of the three prognostic fields.
template <typename T>
struct tendencies {
  field2d<T> du, dv, deta;

  tendencies() = default;
  tendencies(int nx, int ny) : du(nx, ny), dv(nx, ny), deta(nx, ny) {}
};

/// The per-row scalars of the momentum passes at global row `j`: the
/// Coriolis increments at the u-point (cell centre row) and the
/// v-point (face row), and the double-gyre wind-stress increment.
/// Formed in double and rounded once into T.
template <typename T>
struct row_forcing {
  T dt_cor_u{}, dt_cor_v{}, wind_u{};

  static row_forcing at(const swm_params& p, int j) {
    const double dt = p.dt();
    const double dy = p.dy();
    const double s = std::ldexp(1.0, p.log2_scale);
    const double y_center = (j + 0.5) * dy - 0.5 * p.Ly;
    const double y_face = j * dy - 0.5 * p.Ly;
    row_forcing f;
    f.dt_cor_u = T(dt * (p.coriolis_f0 + p.coriolis_beta * y_center));
    f.dt_cor_v = T(dt * (p.coriolis_f0 + p.coriolis_beta * y_face));
    // Double-gyre wind profile, periodic-compatible.
    f.wind_u = T(-dt * s * p.wind_stress / (p.rho * p.depth) *
                 std::cos(2.0 * M_PI * (j + 0.5) / p.ny));
    return f;
  }
};

/// The five RHS passes as kernels over one grid row. Arguments are the
/// row's output(s), then the input rows: `x` is row j of field x,
/// `x_below`/`x_above` the rows the caller chose as its j-1/j+1
/// neighbours. All rows are nx long and no output aliases an input.
/// The coefficients come by value, so no output store can alias them
/// and the compiler keeps them in registers across the row.
namespace rhs_row {

/// Call cell(at) for i = 0..nx-1, with `at` the element cursor
/// (fp/lanes.hpp) at column i and its periodic x-neighbours: the two
/// wrap columns peeled, the interior with plain i-1/i+1. For native T
/// the interior is a branch-free scalar loop the compiler vectorizes;
/// for a widened T with lanes (`Lanes`) it runs lane blocks
/// (fp::for_each_element; a last partial block overlaps the one before
/// it). Each cell is counted and written once.
template <typename T, bool Lanes = fp::use_lanes<T>, typename Cell>
inline void peeled(int nx, Cell&& cell) {
  if (nx == 1) {
    cell(fp::at_scalar{0, 0, 0});
    return;
  }
  cell(fp::at_scalar{0, nx - 1, 1});
  fp::for_each_element<Lanes>(1, static_cast<std::size_t>(nx - 1), cell);
  cell(fp::at_scalar{nx - 1, nx - 2, 0});
}

// Pass 1: relative vorticity (grid units, scale s) at corner points
// and kinetic energy at centres. The KE is kept at scale s (not s^2):
// one factor of each square is pre-multiplied by the exact inv_s so no
// intermediate overflows Float16 at large s.
template <typename T, bool Lanes = fp::use_lanes<T>>
void vorticity_ke(T* __restrict zeta, T* __restrict ke,
                  const T* __restrict u, const T* __restrict u_below,
                  const T* __restrict v, const T* __restrict v_above,
                  int nx, const coefficients<T> c) {
  peeled<T, Lanes>(nx, [&](auto at) {
    at.put(zeta, (at(v) - at.im(v)) - (at(u) - at(u_below)));
    const auto ubar = c.half * (at(u) + at.ip(u));
    const auto vbar = c.half * (at(v) + at(v_above));
    at.put(ke, c.half * (ubar * (c.inv_s * ubar) + vbar * (c.inv_s * vbar)));
  });
}

// Pass 2: five-point Laplacian (grid units) of one velocity component.
template <typename T, bool Lanes = fp::use_lanes<T>>
void laplacian(T* __restrict lap, const T* __restrict f,
               const T* __restrict f_below, const T* __restrict f_above,
               int nx) {
  const T four = T(4);
  peeled<T, Lanes>(nx, [&](auto at) {
    at.put(lap, at.ip(f) + at.im(f) + at(f_above) + at(f_below) -
                    four * at(f));
  });
}

// Pass 3: u-momentum increment.
template <typename T, bool Lanes = fp::use_lanes<T>>
void u_momentum(T* __restrict du, const T* __restrict u,
                const T* __restrict v, const T* __restrict v_above,
                const T* __restrict zeta, const T* __restrict zeta_above,
                const T* __restrict lap, const T* __restrict lap_below,
                const T* __restrict lap_above, const T* __restrict h,
                const T* __restrict ke, int nx, const coefficients<T> c,
                const row_forcing<T>& row) {
  const T dtf = row.dt_cor_u;
  const T wind = row.wind_u;
  const T four = T(4);
  peeled<T, Lanes>(nx, [&](auto at) {
    // v averaged to the u-point; vorticity averaged to the u-point.
    const auto vbar =
        c.quarter * (at.im(v) + at(v) + at.im(v_above) + at(v_above));
    // De-scale the vorticity factor (exact) before the product so
    // zbar*vbar carries scale s, not s^2.
    const auto zbar = c.inv_s * (c.half * (at(zeta) + at(zeta_above)));
    const auto biharm = at.ip(lap) + at.im(lap) + at(lap_above) +
                        at(lap_below) - four * at(lap);
    at.put(du, dtf * vbar                         // linear Coriolis
                   + c.dtdx * (zbar * vbar)       // vorticity advection
                   - c.g_dtdx * (at(h) - at.im(h))   // pressure gradient
                   - c.dtdx * (at(ke) - at.im(ke))   // KE gradient
                   + wind                         // wind stress
                   - c.dt_drag * at(u)            // bottom drag
                   - c.dt_visc * biharm);         // biharmonic
  });
}

// Pass 4: v-momentum increment.
template <typename T, bool Lanes = fp::use_lanes<T>>
void v_momentum(T* __restrict dv, const T* __restrict v,
                const T* __restrict u, const T* __restrict u_below,
                const T* __restrict zeta, const T* __restrict lap,
                const T* __restrict lap_below, const T* __restrict lap_above,
                const T* __restrict h, const T* __restrict h_below,
                const T* __restrict ke, const T* __restrict ke_below, int nx,
                const coefficients<T> c, const row_forcing<T>& row) {
  const T dtf = row.dt_cor_v;
  const T four = T(4);
  peeled<T, Lanes>(nx, [&](auto at) {
    const auto ubar =
        c.quarter * (at(u_below) + at(u) + at.ip(u_below) + at.ip(u));
    const auto zbar = c.inv_s * (c.half * (at(zeta) + at.ip(zeta)));
    const auto biharm = at.ip(lap) + at.im(lap) + at(lap_above) +
                        at(lap_below) - four * at(lap);
    at.put(dv, -dtf * ubar
                   - c.dtdx * (zbar * ubar)
                   - c.g_dtdy * (at(h) - at(h_below))
                   - c.dtdy * (at(ke) - at(ke_below))
                   - c.dt_drag * at(v)
                   - c.dt_visc * biharm);
  });
}

// Pass 5: continuity. Linear part with h0, nonlinear flux with the
// scaled surface displacement (one exact /s via the coefficient).
template <typename T, bool Lanes = fp::use_lanes<T>>
void continuity(T* __restrict deta, const T* __restrict u,
                const T* __restrict v, const T* __restrict v_above,
                const T* __restrict h, const T* __restrict h_below,
                const T* __restrict h_above, int nx,
                const coefficients<T> c) {
  peeled<T, Lanes>(nx, [&](auto at) {
    const auto div = c.h0_dtdx * (at.ip(u) - at(u)) +
                     c.h0_dtdy * (at(v_above) - at(v));
    // Fluxes u*eta at faces: de-scale the interpolated eta (exact) so
    // U * etabar carries scale s, not s^2.
    const auto fx_e = at.ip(u) * (c.inv_s * (c.half * (at(h) + at.ip(h))));
    const auto fx_w = at(u) * (c.inv_s * (c.half * (at.im(h) + at(h))));
    const auto fy_n =
        at(v_above) * (c.inv_s * (c.half * (at(h) + at(h_above))));
    const auto fy_s = at(v) * (c.inv_s * (c.half * (at(h_below) + at(h))));
    at.put(deta, -div - c.dtdx * (fx_e - fx_w) - c.dtdy * (fy_n - fy_s));
  });
}

}  // namespace rhs_row

template <typename T>
class rhs_evaluator {
 public:
  explicit rhs_evaluator(const swm_params& p)
      : coeffs_(coefficients<T>::make(p)),
        channel_(p.bc == boundary::channel),
        zeta_(p.nx, p.ny),
        ke_(p.nx, p.ny),
        lap_u_(p.nx, p.ny),
        lap_v_(p.nx, p.ny) {
    TFX_EXPECTS(std::abs(p.dx() - p.dy()) < 1e-9 * p.dx());
    forcing_.reserve(static_cast<std::size_t>(p.ny));
    for (int j = 0; j < p.ny; ++j) {
      forcing_.push_back(row_forcing<T>::at(p, j));
    }
  }

  [[nodiscard]] const coefficients<T>& coeffs() const { return coeffs_; }

  /// Attach a thread pool: the evaluation then partitions each pass's
  /// rows over the workers, all five passes under one worker wake
  /// (thread_pool::parallel_region, with a barrier between passes).
  /// Row partitioning writes disjoint rows, so the result is
  /// bit-identical to the serial evaluation (tests/swm_parallel_test
  /// pins this).
  void attach_pool(thread_pool* pool) { pool_ = pool; }
  [[nodiscard]] thread_pool* pool() const { return pool_; }

  /// True when an attached pool will actually be used for `ny` rows
  /// (below two rows per worker the wake costs more than it saves -
  /// the same bound as thread_pool::serial_grain).
  [[nodiscard]] bool parallel_for_rows(int ny) const {
    return pool_ != nullptr && ny >= 2 * pool_->size();
  }

  /// Evaluate the increments for state `st` into `out`.
  void operator()(const state<T>& st, tendencies<T>& out) {
    if (parallel_for_rows(st.ny())) {
      thread_pool::task tasks[pass_count];
      append_region_tasks(tasks, st, out);
      ftz_worker_scope scope;
      pool_->parallel_region({tasks, pass_count}, &scope);
    } else {
      evaluate_serial(st, out);
    }
  }

  /// The five passes, serially, in dependency order.
  void evaluate_serial(const state<T>& st, tendencies<T>& out) {
    const int ny = st.ny();
    pass_vorticity_ke(st, 0, ny);
    pass_laplacians(st, 0, ny);
    pass_u_momentum(st, out, 0, ny);
    pass_v_momentum(st, out, 0, ny);
    pass_continuity(st, out, 0, ny);
  }

  /// Number of region tasks append_region_tasks emits.
  static constexpr std::size_t pass_count = 5;

  /// Append the five passes as parallel-region tasks (row-partitioned,
  /// a barrier between consecutive tasks orders the writes). The task
  /// contexts live in this evaluator: one evaluation in flight at a
  /// time, and `st`/`out` must outlive the region call. Returns the
  /// number of tasks written. This is how the model fuses the stage
  /// combine + down-cast + RHS into ONE worker wake per RK4 stage.
  std::size_t append_region_tasks(thread_pool::task* tasks,
                                  const state<T>& st, tendencies<T>& out) {
    ctx_ = pass_ctx{this, &st, &out};
    const auto n = static_cast<std::size_t>(st.ny());
    tasks[0] = {n, &run_pass<&rhs_evaluator::pass_vorticity_ke>, &ctx_};
    tasks[1] = {n, &run_pass<&rhs_evaluator::pass_laplacians>, &ctx_};
    tasks[2] = {n, &run_pass_out<&rhs_evaluator::pass_u_momentum>, &ctx_};
    tasks[3] = {n, &run_pass_out<&rhs_evaluator::pass_v_momentum>, &ctx_};
    tasks[4] = {n, &run_pass_out<&rhs_evaluator::pass_continuity>, &ctx_};
    return pass_count;
  }

  /// Array sweeps per evaluation (reads + writes of full fields), used
  /// by the performance model's traffic accounting (perfmodel.cpp).
  /// Counted from the five passes, reads 2 + 2 + 6 + 6 + 3 and writes
  /// 2 + 2 + 1 + 1 + 1 (a row kernel re-reading a neighbour row of a
  /// field it already streams is not a new sweep).
  static constexpr double array_reads = 19.0;
  static constexpr double array_writes = 7.0;

 private:
  struct pass_ctx {
    rhs_evaluator* self = nullptr;
    const state<T>* st = nullptr;
    tendencies<T>* out = nullptr;
  };

  template <void (rhs_evaluator::*Pass)(const state<T>&, int, int)>
  static void run_pass(const void* c, int, std::size_t lo, std::size_t hi) {
    const auto& ctx = *static_cast<const pass_ctx*>(c);
    (ctx.self->*Pass)(*ctx.st, static_cast<int>(lo), static_cast<int>(hi));
  }

  template <void (rhs_evaluator::*Pass)(const state<T>&, tendencies<T>&, int,
                                        int)>
  static void run_pass_out(const void* c, int, std::size_t lo,
                           std::size_t hi) {
    const auto& ctx = *static_cast<const pass_ctx*>(c);
    (ctx.self->*Pass)(*ctx.st, *ctx.out, static_cast<int>(lo),
                      static_cast<int>(hi));
  }

  // The passes below pick each row's y-neighbours (periodic wrap, or
  // the channel's wall mirror) and hand the rows to rhs_row.

  // Pass 1. In the channel, u mirrors across the south wall.
  void pass_vorticity_ke(const state<T>& st, int j0, int j1) {
    const auto& U = st.u;
    const auto& V = st.v;
    for (int j = j0; j < j1; ++j) {
      const int jm = channel_ && j == 0 ? 0 : U.jm(j);
      rhs_row::vorticity_ke(&zeta_(0, j), &ke_(0, j), &U(0, j), &U(0, jm),
                            &V(0, j), &V(0, V.jp(j)), st.nx(), coeffs_);
    }
  }

  // Pass 2. In the channel, u mirrors across the walls (free slip) and
  // the antisymmetric v ghost plus v = 0 on the wall row make lap_v
  // vanish there.
  void pass_laplacians(const state<T>& st, int j0, int j1) {
    const int nx = st.nx();
    const int ny = st.ny();
    const auto& U = st.u;
    const auto& V = st.v;
    for (int j = j0; j < j1; ++j) {
      const int jm = U.jm(j);
      const int jp = U.jp(j);
      const int jm_u = channel_ && j == 0 ? 0 : jm;
      const int jp_u = channel_ && j == ny - 1 ? j : jp;
      rhs_row::laplacian(&lap_u_(0, j), &U(0, j), &U(0, jm_u), &U(0, jp_u),
                         nx);
      if (channel_ && j == 0) {
        std::fill_n(&lap_v_(0, j), nx, T{});
      } else {
        rhs_row::laplacian(&lap_v_(0, j), &V(0, j), &V(0, jm), &V(0, jp),
                           nx);
      }
    }
  }

  // Pass 3. In the channel, lap_u mirrors across the walls.
  void pass_u_momentum(const state<T>& st, tendencies<T>& out, int j0,
                       int j1) {
    const int ny = st.ny();
    const auto& U = st.u;
    const auto& V = st.v;
    for (int j = j0; j < j1; ++j) {
      const int jp = U.jp(j);
      const int jm = channel_ && j == 0 ? 0 : U.jm(j);
      const int jp_u = channel_ && j == ny - 1 ? j : jp;
      rhs_row::u_momentum(&out.du(0, j), &U(0, j), &V(0, j), &V(0, jp),
                          &zeta_(0, j), &zeta_(0, jp), &lap_u_(0, j),
                          &lap_u_(0, jm), &lap_u_(0, jp_u), &st.eta(0, j),
                          &ke_(0, j), st.nx(), coeffs_,
                          forcing_[static_cast<std::size_t>(j)]);
    }
  }

  // Pass 4. In the channel the j = 0 row IS the wall (and, via the
  // wrap, the north wall too): no flow ever.
  void pass_v_momentum(const state<T>& st, tendencies<T>& out, int j0,
                       int j1) {
    const int nx = st.nx();
    const auto& U = st.u;
    const auto& V = st.v;
    const auto& H = st.eta;
    for (int j = j0; j < j1; ++j) {
      if (channel_ && j == 0) {
        std::fill_n(&out.dv(0, j), nx, T{});
        continue;
      }
      const int jm = V.jm(j);
      rhs_row::v_momentum(&out.dv(0, j), &V(0, j), &U(0, j), &U(0, jm),
                          &zeta_(0, j), &lap_v_(0, j), &lap_v_(0, jm),
                          &lap_v_(0, V.jp(j)), &H(0, j), &H(0, jm),
                          &ke_(0, j), &ke_(0, jm), nx, coeffs_,
                          forcing_[static_cast<std::size_t>(j)]);
    }
  }

  // Pass 5.
  void pass_continuity(const state<T>& st, tendencies<T>& out, int j0,
                       int j1) {
    const auto& H = st.eta;
    for (int j = j0; j < j1; ++j) {
      const int jp = H.jp(j);
      rhs_row::continuity(&out.deta(0, j), &st.u(0, j), &st.v(0, j),
                          &st.v(0, jp), &H(0, j), &H(0, H.jm(j)), &H(0, jp),
                          st.nx(), coeffs_);
    }
  }

  thread_pool* pool_ = nullptr;
  pass_ctx ctx_;
  coefficients<T> coeffs_;
  bool channel_ = false;
  std::vector<row_forcing<T>> forcing_;
  field2d<T> zeta_, ke_, lap_u_, lap_v_;
};

}  // namespace tfx::swm
