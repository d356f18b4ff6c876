#pragma once

/// \file distributed.hpp
/// Domain-decomposed shallow-water model over the simulated MPI.
///
/// The paper's § III-A measures MPI overheads and § III-B a
/// single-node application; a production weather model combines them.
/// This header does exactly that on the library's own substrates: the
/// grid is split into y-slabs across mpisim ranks, each step exchanges
/// halo rows (width 1, twice per RHS evaluation - once for the
/// prognostic fields, once for the derived zeta/KE/Laplacian fields
/// that the tendency stencils read at +-1), and the physics is the
/// serial rhs_evaluator's own row kernels (rhs.hpp, namespace rhs_row)
/// called on the slab rows with the halo rows as their y-neighbours -
/// tests/swm_distributed_test pins the two trajectories bit-for-bit at
/// Float64.
///
/// Halo engines (swm/halo.hpp, selected by set_halo_mode): the default
/// aggregated_overlap path packs all fields of a phase into one
/// message per neighbour and computes the halo-independent interior
/// rows while the payloads are in flight; halo_mode::per_field keeps
/// the legacy one-message-per-row-per-field exchange as the
/// bit-equality oracle. Both modes produce bit-identical trajectories
/// (tests/swm_halo_test pins this); they differ only in message count
/// and virtual time. docs/COMM.md has the full story.
///
/// Restrictions: every rank's slab must be at least 2 rows tall
/// (ny / ranks >= 2; uneven decompositions spread the remainder over
/// the first ny % ranks ranks); standard or compensated integration
/// (mixed precision is a single-rank feature).

#include <vector>

#include "core/contracts.hpp"
#include "mpisim/collectives.hpp"
#include "mpisim/runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "swm/diagnostics.hpp"
#include "swm/field.hpp"
#include "swm/halo.hpp"
#include "swm/health.hpp"
#include "swm/params.hpp"
#include "swm/perfmodel.hpp"
#include "swm/rhs.hpp"
#include "swm/tags.hpp"
#include "swm/timestep.hpp"

namespace tfx::swm {

/// Rows of the y-slab owned by `rank` when `ny` rows are split over
/// `p` ranks: ny/p everywhere, plus one extra row on each of the first
/// ny % p ranks.
[[nodiscard]] constexpr int slab_rows(int ny, int p, int rank) {
  return ny / p + (rank < ny % p ? 1 : 0);
}

/// Global index of the first row of `rank`'s slab (prefix sum of
/// slab_rows).
[[nodiscard]] constexpr int slab_offset(int ny, int p, int rank) {
  const int rem = ny % p;
  return rank * (ny / p) + (rank < rem ? rank : rem);
}

/// The distributed model: same template discipline as swm::model, with
/// an mpisim::communicator driving the halo exchanges.
template <typename T>
class distributed_model {
 public:
  distributed_model(mpisim::communicator& comm, swm_params params,
                    integration_scheme scheme = integration_scheme::standard)
      : comm_(comm), params_(params), scheme_(scheme),
        coeffs_(coefficients<T>::make(params)) {
    TFX_EXPECTS(params.bc == boundary::periodic &&
                "distributed_model supports periodic boundaries");
    TFX_EXPECTS(params.ny / comm.size() >= 2 &&
                "every rank needs a slab at least 2 rows tall");
    local_ny_ = slab_rows(params.ny, comm.size(), comm.rank());
    j0_ = slab_offset(params.ny, comm.size(), comm.rank());

    const int nx = params.nx;
    prog_ = slab_state<T>(nx, local_ny_);
    comp_ = slab_state<T>(nx, local_ny_);
    stage_ = slab_state<T>(nx, local_ny_);
    zeta_ = slab<T>(nx, local_ny_);
    ke_ = slab<T>(nx, local_ny_);
    lap_u_ = slab<T>(nx, local_ny_);
    lap_v_ = slab<T>(nx, local_ny_);
    for (auto* k : {&k1_, &k2_, &k3_, &k4_}) {
      k->u = slab<T>(nx, local_ny_);
      k->v = slab<T>(nx, local_ny_);
      k->eta = slab<T>(nx, local_ny_);
    }
    inc_ = slab_state<T>(nx, local_ny_);
    prog_.fill(T{});
    comp_.fill(T{});
    halo_ = halo_exchanger<T>(comm, nx);

    forcing_.reserve(static_cast<std::size_t>(local_ny_));
    for (int j = 0; j < local_ny_; ++j) {
      forcing_.push_back(row_forcing<T>::at(params, j0_ + j));
    }
  }

  [[nodiscard]] int local_ny() const { return local_ny_; }
  [[nodiscard]] int global_j0() const { return j0_; }
  [[nodiscard]] const swm_params& params() const { return params_; }

  /// Select the halo engine for subsequent steps (not mid-step). Both
  /// modes are bit-identical in the produced trajectory; per_field is
  /// the legacy oracle, aggregated_overlap (the default) the fast one.
  void set_halo_mode(halo_mode mode) { mode_ = mode; }
  [[nodiscard]] halo_mode mode() const { return mode_; }

  /// Charge `seconds` of modeled compute per RHS evaluation onto the
  /// rank's virtual clock, split across the two exchange windows by
  /// split_rhs_compute. 0 (the default) keeps the step loop's virtual
  /// time comm-only, exactly as before. With a charge set, the
  /// aggregated_overlap engine pays the interior share while the halo
  /// payloads are in flight - which is what makes overlap visible in
  /// virtual time (bench/ablation_halo prices it).
  void set_modeled_rhs_seconds(double seconds) {
    modeled_rhs_seconds_ = seconds;
    rhs_split_ = split_rhs_compute(seconds, local_ny_);
  }

  /// Adopt the rank's slab of a global state (e.g. produced by the
  /// serial model's seeding, for reproducible comparisons).
  void set_from_global(const state<T>& global) {
    TFX_EXPECTS(global.nx() == params_.nx && global.ny() == params_.ny);
    for (int j = 0; j < local_ny_; ++j) {
      for (int i = 0; i < params_.nx; ++i) {
        prog_.u(i, j) = global.u(i, j0_ + j);
        prog_.v(i, j) = global.v(i, j0_ + j);
        prog_.eta(i, j) = global.eta(i, j0_ + j);
      }
    }
    comp_.fill(T{});
  }

  /// Gather the full state to every rank: the historical ring
  /// allgather when the decomposition is uniform (preserving that
  /// path's virtual clocks bit-for-bit), gatherv to rank 0 plus a
  /// bcast when slab heights differ.
  [[nodiscard]] state<T> gather_global() {
    state<T> out(params_.nx, params_.ny);
    const int p = comm_.size();
    const std::size_t chunk = static_cast<std::size_t>(params_.nx) *
                              static_cast<std::size_t>(local_ny_);
    std::vector<T> mine(chunk);
    const bool uniform = params_.ny % p == 0;
    std::vector<std::size_t> counts;
    if (!uniform) {
      counts.resize(static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        counts[static_cast<std::size_t>(r)] =
            static_cast<std::size_t>(params_.nx) *
            static_cast<std::size_t>(slab_rows(params_.ny, p, r));
      }
    }
    auto pack = [&](slab<T>& s, field2d<T>& dst) {
      std::copy(s.interior().begin(), s.interior().end(), mine.begin());
      std::vector<T> all(static_cast<std::size_t>(params_.nx) *
                         static_cast<std::size_t>(params_.ny));
      if (uniform) {
        mpisim::allgather(comm_, std::span<const T>(mine), std::span<T>(all));
      } else {
        mpisim::gatherv(comm_, std::span<const T>(mine),
                        std::span<const std::size_t>(counts),
                        std::span<T>(all), 0);
        mpisim::bcast(comm_, std::span<T>(all), 0);
      }
      std::copy(all.begin(), all.end(), dst.flat().begin());
    };
    pack(prog_.u, out.u);
    pack(prog_.v, out.v);
    pack(prog_.eta, out.eta);
    return out;
  }

  /// One RK4 step (collective: every rank must call it). Traced as a
  /// swm.step span on the rank's *virtual* clock (track = rank), so a
  /// threaded run and its DES twin produce identical step timelines;
  /// the span closes during unwinding too, keeping B/E pairs balanced
  /// when a fault plane kills the step mid-exchange.
  void step() {
    obs_halo_bytes_ = 0;
    obs_halo_msgs_ = 0;
    const obs::scoped_vspan span(
        obs::domain::swm, static_cast<std::uint16_t>(comm_.rank()),
        "swm.step", [this] { return comm_.now(); },
        static_cast<std::uint64_t>(steps_));
    const T half = T(0.5);
    const T one = T(1);
    eval_rhs(prog_, k1_);
    combine_stage(prog_, k1_, half);
    eval_rhs(stage_, k2_);
    combine_stage(prog_, k2_, half);
    eval_rhs(stage_, k3_);
    combine_stage(prog_, k3_, one);
    eval_rhs(stage_, k4_);

    rk4_combine(inc_.u, k1_.u, k2_.u, k3_.u, k4_.u);
    rk4_combine(inc_.v, k1_.v, k2_.v, k3_.v, k4_.v);
    rk4_combine(inc_.eta, k1_.eta, k2_.eta, k3_.eta, k4_.eta);

    if (scheme_ == integration_scheme::compensated) {
      apply_comp(prog_.u, inc_.u, comp_.u);
      apply_comp(prog_.v, inc_.v, comp_.v);
      apply_comp(prog_.eta, inc_.eta, comp_.eta);
    } else {
      apply_plain(prog_.u, inc_.u);
      apply_plain(prog_.v, inc_.v);
      apply_plain(prog_.eta, inc_.eta);
    }
    ++steps_;
    if (health_every_ > 0 && steps_ % health_every_ == 0) check_health();
    emit_step_obs();
  }

  void run(int steps) {
    for (int s = 0; s < steps; ++s) step();
  }

  [[nodiscard]] int steps_taken() const { return steps_; }

  /// Scan the surface height every `every` steps inside step() and
  /// raise numerical_error on the first non-finite value; 0 disables
  /// the sentinel (the default - the branch costs one integer modulo
  /// and no allocation, keeping the disabled step loop bit-identical).
  void set_health_interval(int every) { health_every_ = every; }

  /// The sentinel scan itself (swm/health.hpp); callable directly by
  /// the resilience layer, which orders it *before* checkpoint commits
  /// so a poisoned state can never enter a prepared checkpoint.
  void check_health() const {
    require_finite(prog_.eta.interior(), "eta", steps_, comm_.rank());
  }

  // -- checkpoint/rollback surface (swm/resilience.hpp) ---------------

  /// Elements in `rank`'s packed state image (slab heights differ
  /// under an uneven decomposition, so snapshot buffers must be sized
  /// by the image's *owner*, not the receiving rank).
  [[nodiscard]] std::size_t packed_size_of(int rank) const {
    return 6ull * static_cast<std::size_t>(params_.nx) *
           static_cast<std::size_t>(slab_rows(params_.ny, comm_.size(), rank));
  }

  /// Elements in this rank's packed state image: prognostic u,v,eta
  /// plus the Kahan compensation slabs, interiors only (halos are
  /// re-exchanged).
  [[nodiscard]] std::size_t packed_size() const {
    return packed_size_of(comm_.rank());
  }

  /// Serialize this rank's full integration state into `out`
  /// (packed_size() elements): the exact bits needed to resume
  /// bit-identically, including the compensation residuals.
  void pack_state(std::span<T> out) const {
    TFX_EXPECTS(out.size() == packed_size());
    std::size_t at = 0;
    for (const slab<T>* s : {&prog_.u, &prog_.v, &prog_.eta, &comp_.u,
                             &comp_.v, &comp_.eta}) {
      const auto src = s->interior();
      std::copy(src.begin(), src.end(), out.begin() + at);
      at += src.size();
    }
  }

  /// Inverse of pack_state: adopt a packed image and step counter.
  void restore_packed(std::span<const T> in, int steps) {
    TFX_EXPECTS(in.size() == packed_size());
    std::size_t at = 0;
    for (slab<T>* s : {&prog_.u, &prog_.v, &prog_.eta, &comp_.u, &comp_.v,
                       &comp_.eta}) {
      auto dst = s->interior();
      std::copy(in.begin() + at, in.begin() + at + dst.size(), dst.begin());
      at += dst.size();
    }
    steps_ = steps;
  }

  /// Direct access for recovery bookkeeping and fault injection.
  [[nodiscard]] slab_state<T>& prognostic_slabs() { return prog_; }
  [[nodiscard]] const slab_state<T>& prognostic_slabs() const {
    return prog_;
  }
  [[nodiscard]] slab_state<T>& compensation_slabs() { return comp_; }

  /// Global maximum speed via allreduce (a CFL monitor every rank
  /// obtains collectively).
  [[nodiscard]] double global_max_speed() {
    double local = 0;
    for (int j = 0; j < local_ny_; ++j) {
      for (int i = 0; i < params_.nx; ++i) {
        local = std::max({local,
                          std::abs(static_cast<double>(prog_.u(i, j))),
                          std::abs(static_cast<double>(prog_.v(i, j)))});
      }
    }
    local /= coeffs_.scale;
    std::vector<double> in{local}, out{0.0};
    mpisim::allreduce(comm_, std::span<const double>(in),
                      std::span<double>(out), mpisim::ops::max{},
                      mpisim::coll_algorithm::recursive_doubling);
    return out[0];
  }

 private:
  using engine_phase = typename halo_exchanger<T>::phase;

  /// The five RHS passes on slabs, with two halo-exchange phases: the
  /// rhs_row kernels of the serial evaluator, fed the halo rows j-1 and
  /// j+1 as y-neighbours. Under aggregated_overlap the interior rows
  /// (1..local_ny-2) of each window run while the packed halos are in
  /// flight and the boundary rows (0 and local_ny-1) after finish();
  /// per-point arithmetic and inputs are unchanged, so the reordering
  /// is bit-invisible.
  void eval_rhs(slab_state<T>& st, slab_state<T>& out) {
    const int nyl = local_ny_;
    auto& U = st.u;
    auto& V = st.v;
    auto& H = st.eta;
    const bool overlap = mode_ == halo_mode::aggregated_overlap;

    // -- phase 1: prognostic halos, vorticity/KE and Laplacian passes.
    if (!overlap) {
      const obs::scoped_vspan halo_span(
          obs::domain::swm, static_cast<std::uint16_t>(comm_.rank()),
          "halo.prognostic", [this] { return comm_.now(); });
      detail::exchange_halo(comm_, U, tags::halo_u);
      detail::exchange_halo(comm_, V, tags::halo_v);
      detail::exchange_halo(comm_, H, tags::halo_eta);
    } else {
      halo_.start(engine_phase::prognostic, {&U, &V, &H});
    }
    count_halo_traffic(3);

    if (overlap) {
      prognostic_rows(st, 1, nyl - 1);
      charge(rhs_split_.interior_prognostic);
      halo_.finish();
      prognostic_rows(st, 0, 1);
      prognostic_rows(st, nyl - 1, nyl);
      charge(rhs_split_.boundary_prognostic);
    } else {
      prognostic_rows(st, 0, nyl);
      charge(rhs_split_.interior_prognostic);
      charge(rhs_split_.boundary_prognostic);
    }

    // -- phase 2: derived halos, tendency passes.
    if (!overlap) {
      const obs::scoped_vspan halo_span(
          obs::domain::swm, static_cast<std::uint16_t>(comm_.rank()),
          "halo.derived", [this] { return comm_.now(); });
      detail::exchange_halo(comm_, zeta_, tags::halo_zeta);
      detail::exchange_halo(comm_, ke_, tags::halo_ke);
      detail::exchange_halo(comm_, lap_u_, tags::halo_lap_u);
      detail::exchange_halo(comm_, lap_v_, tags::halo_lap_v);
    } else {
      halo_.start(engine_phase::derived, {&zeta_, &ke_, &lap_u_, &lap_v_});
    }
    count_halo_traffic(4);

    if (overlap) {
      derived_rows(st, out, 1, nyl - 1);
      charge(rhs_split_.interior_derived);
      halo_.finish();
      derived_rows(st, out, 0, 1);
      derived_rows(st, out, nyl - 1, nyl);
      charge(rhs_split_.boundary_derived);
    } else {
      derived_rows(st, out, 0, nyl);
      charge(rhs_split_.interior_derived);
      charge(rhs_split_.boundary_derived);
    }
  }

  /// Passes 1-2 (vorticity/KE, both Laplacians) over rows [jb, je).
  /// They read U,V rows j-1..j+1, so rows 0 and local_ny-1 need the
  /// prognostic halos.
  void prognostic_rows(slab_state<T>& st, int jb, int je) {
    const int nx = params_.nx;
    auto& U = st.u;
    auto& V = st.v;
    for (int j = jb; j < je; ++j) {
      rhs_row::vorticity_ke(&zeta_(0, j), &ke_(0, j), &U(0, j), &U(0, j - 1),
                            &V(0, j), &V(0, j + 1), nx, coeffs_);
      rhs_row::laplacian(&lap_u_(0, j), &U(0, j), &U(0, j - 1), &U(0, j + 1),
                         nx);
      rhs_row::laplacian(&lap_v_(0, j), &V(0, j), &V(0, j - 1), &V(0, j + 1),
                         nx);
    }
  }

  /// Passes 3-5 (u, v and eta tendencies) over rows [jb, je); rows 0
  /// and local_ny-1 read the derived halos (zeta, KE, Laplacians at
  /// j±1). Continuity needs only prognostic halos, but runs in this
  /// window to keep the serial pass order.
  void derived_rows(slab_state<T>& st, slab_state<T>& out, int jb, int je) {
    const int nx = params_.nx;
    auto& U = st.u;
    auto& V = st.v;
    auto& H = st.eta;
    for (int j = jb; j < je; ++j) {
      const row_forcing<T>& row = forcing_[static_cast<std::size_t>(j)];
      rhs_row::u_momentum(&out.u(0, j), &U(0, j), &V(0, j), &V(0, j + 1),
                          &zeta_(0, j), &zeta_(0, j + 1), &lap_u_(0, j),
                          &lap_u_(0, j - 1), &lap_u_(0, j + 1), &H(0, j),
                          &ke_(0, j), nx, coeffs_, row);
      rhs_row::v_momentum(&out.v(0, j), &V(0, j), &U(0, j), &U(0, j - 1),
                          &zeta_(0, j), &lap_v_(0, j), &lap_v_(0, j - 1),
                          &lap_v_(0, j + 1), &H(0, j), &H(0, j - 1),
                          &ke_(0, j), &ke_(0, j - 1), nx, coeffs_, row);
      rhs_row::continuity(&out.eta(0, j), &U(0, j), &V(0, j), &V(0, j + 1),
                          &H(0, j), &H(0, j - 1), &H(0, j + 1), nx, coeffs_);
    }
  }

  /// Modeled compute charge (set_modeled_rhs_seconds); mirrors the
  /// DES program's `if (s > 0)` guard so the engines stay pinned.
  void charge(double seconds) {
    if (seconds > 0) comm_.advance(seconds);
  }

  void combine_stage(slab_state<T>& y, slab_state<T>& k, T a) {
    auto combine_one = [a](slab<T>& dst, slab<T>& yy, slab<T>& kk) {
      auto d = dst.interior();
      auto yv = yy.interior();
      auto kv = kk.interior();
      for (std::size_t idx = 0; idx < d.size(); ++idx) {
        d[idx] = yv[idx] + a * kv[idx];
      }
    };
    combine_one(stage_.u, y.u, k.u);
    combine_one(stage_.v, y.v, k.v);
    combine_one(stage_.eta, y.eta, k.eta);
  }

  void rk4_combine(slab<T>& inc, slab<T>& a, slab<T>& b, slab<T>& cc,
                   slab<T>& d) {
    auto o = inc.interior();
    auto k1 = a.interior();
    auto k2 = b.interior();
    auto k3 = cc.interior();
    auto k4 = d.interior();
    const T two{2};
    const T sixth = T(1.0 / 6.0);
    for (std::size_t idx = 0; idx < o.size(); ++idx) {
      o[idx] = sixth * (k1[idx] + two * k2[idx] + two * k3[idx] + k4[idx]);
    }
  }

  void apply_plain(slab<T>& y, slab<T>& inc) {
    auto yv = y.interior();
    auto iv = inc.interior();
    for (std::size_t idx = 0; idx < yv.size(); ++idx) yv[idx] += iv[idx];
  }

  /// Bytes one rank ships per halo exchange of one slab: two interior
  /// rows of nx elements (no sends at all on a single rank - the wrap
  /// is local). Identical across engines; aggregation repackages the
  /// same rows, it does not change their volume.
  [[nodiscard]] std::uint64_t bytes_per_exchange() const {
    if (comm_.size() == 1) return 0;
    return 2ull * static_cast<std::uint64_t>(params_.nx) * sizeof(T);
  }

  /// Accumulate one just-completed halo phase of `fields` slabs into
  /// this step's measured counters (tracing on only). Bytes are
  /// mode-independent; the message count is what aggregation changes:
  /// 2 sends per field per_field, 2 packed sends per phase otherwise.
  void count_halo_traffic(std::uint64_t fields) {
    if (!obs::active()) return;
    obs_halo_bytes_ += fields * bytes_per_exchange();
    if (comm_.size() > 1) {
      obs_halo_msgs_ += mode_ == halo_mode::per_field ? 2 * fields : 2;
    }
  }

  /// Per-step halo-traffic samples: value = what this rank measurably
  /// sent this step (accumulated phase by phase), aux = the perfmodel
  /// prediction (predict_halo) - the distributed counterpart of the
  /// serial model's swm.update_bytes counter. Measured and predicted
  /// agree exactly; tests/swm_halo_test pins it.
  void emit_step_obs() {
    if (!obs::active()) return;
    const halo_cost predicted =
        predict_halo(comm_.net(), params_.nx, sizeof(T), comm_.size(), mode_);
    obs::counter_at(obs::domain::swm, static_cast<std::uint16_t>(comm_.rank()),
                    "swm.halo_bytes", comm_.now(), obs_halo_bytes_,
                    predicted.bytes);
    obs::counter_at(obs::domain::swm, static_cast<std::uint16_t>(comm_.rank()),
                    "swm.halo_messages", comm_.now(), obs_halo_msgs_,
                    predicted.messages);
    obs::metric_add("swm.halo_bytes", obs_halo_bytes_);
    obs::metric_add("swm.halo_messages", obs_halo_msgs_);
    obs::metric_add("swm.dist_steps");
  }

  void apply_comp(slab<T>& y, slab<T>& inc, slab<T>& comp) {
    auto yv = y.interior();
    auto iv = inc.interior();
    auto cv = comp.interior();
    for (std::size_t idx = 0; idx < yv.size(); ++idx) {
      const T adjusted = iv[idx] - cv[idx];
      const T t = yv[idx] + adjusted;
      cv[idx] = (t - yv[idx]) - adjusted;
      yv[idx] = t;
    }
  }

  mpisim::communicator& comm_;
  swm_params params_;
  integration_scheme scheme_;
  coefficients<T> coeffs_;
  int local_ny_ = 0;
  int j0_ = 0;
  int steps_ = 0;
  int health_every_ = 0;  ///< 0: sentinel off (default)
  halo_mode mode_ = halo_mode::aggregated_overlap;
  double modeled_rhs_seconds_ = 0;    ///< 0: virtual time is comm-only
  rhs_compute_split rhs_split_{};
  std::uint64_t obs_halo_bytes_ = 0;  ///< this step's measured traffic
  std::uint64_t obs_halo_msgs_ = 0;   ///< this step's measured sends

  halo_exchanger<T> halo_;
  slab_state<T> prog_, comp_, stage_, inc_;
  slab_state<T> k1_, k2_, k3_, k4_;
  slab<T> zeta_, ke_, lap_u_, lap_v_;
  std::vector<row_forcing<T>> forcing_;
};

}  // namespace tfx::swm
