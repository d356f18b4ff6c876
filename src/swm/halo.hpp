#pragma once

/// \file halo.hpp
/// Slab storage and the halo engine of the distributed shallow-water
/// model: the legacy per-field blocking exchange (kept as the
/// bit-equality oracle) and the aggregated, overlappable
/// halo_exchanger.
///
/// The paper's § III-A (Figs. 2-3) shows per-message overhead only
/// vanishing once payloads reach the ≳1-2 KiB regime; shipping each
/// halo row of each field as its own message therefore prices 7 alpha
/// terms per RHS evaluation where one would do. The engine packs all
/// fields of a phase (3 prognostic / 4 derived) into one contiguous
/// buffer per neighbour direction - 28 sends per neighbour per RK4
/// step become 8 - and exposes start()/finish() so the caller can
/// compute halo-independent interior rows while the messages are in
/// flight. docs/COMM.md describes the packing layout, the overlap
/// window, and the virtual-time accounting.
///
/// Fault-plane compatibility is inherited wholesale: packed channels
/// go through the same send_bytes/recv_bytes paths as any message, so
/// they carry sequence numbers and checksums, retry with backoff, and
/// surface crashes as comm_error - which the engine re-annotates with
/// the phase name. Abandoning a phase mid-exchange (a comm_error
/// during a faulted run) leaves no runtime state behind, because
/// pending receive requests are lazy matchers; recovery replay simply
/// re-arms the engine on the next start().

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "core/contracts.hpp"
#include "mpisim/patterns.hpp"
#include "mpisim/runtime.hpp"
#include "obs/trace.hpp"
#include "swm/perfmodel.hpp"
#include "swm/tags.hpp"

namespace tfx::swm {

/// nx x local_ny slab with one halo row below (j = -1) and above
/// (j = local_ny). Periodic in x only; y neighbours come from MPI.
template <typename T>
class slab {
 public:
  slab() = default;
  slab(int nx, int local_ny)
      : nx_(nx), local_ny_(local_ny),
        data_(static_cast<std::size_t>(nx) *
              static_cast<std::size_t>(local_ny + 2)) {
    TFX_EXPECTS(nx > 0 && local_ny >= 2);
  }

  [[nodiscard]] int nx() const { return nx_; }
  [[nodiscard]] int local_ny() const { return local_ny_; }

  /// j in [-1, local_ny] (halo rows included).
  T& operator()(int i, int j) {
    return data_[static_cast<std::size_t>(j + 1) *
                     static_cast<std::size_t>(nx_) +
                 static_cast<std::size_t>(i)];
  }
  const T& operator()(int i, int j) const {
    return data_[static_cast<std::size_t>(j + 1) *
                     static_cast<std::size_t>(nx_) +
                 static_cast<std::size_t>(i)];
  }

  /// Interior row j as a span (for sends and bulk updates).
  [[nodiscard]] std::span<T> row(int j) {
    return {&(*this)(0, j), static_cast<std::size_t>(nx_)};
  }
  [[nodiscard]] std::span<const T> row(int j) const {
    return {&(*this)(0, j), static_cast<std::size_t>(nx_)};
  }

  /// All interior elements, row-major (halo rows excluded).
  [[nodiscard]] std::span<T> interior() {
    return {&(*this)(0, 0), static_cast<std::size_t>(nx_) *
                                static_cast<std::size_t>(local_ny_)};
  }
  [[nodiscard]] std::span<const T> interior() const {
    return {&(*this)(0, 0), static_cast<std::size_t>(nx_) *
                                static_cast<std::size_t>(local_ny_)};
  }

  void fill(T v) {
    for (auto& x : data_) x = v;
  }

 private:
  int nx_ = 0, local_ny_ = 0;
  std::vector<T> data_;
};

/// The three prognostic slabs of one rank.
template <typename T>
struct slab_state {
  slab<T> u, v, eta;

  slab_state() = default;
  slab_state(int nx, int local_ny)
      : u(nx, local_ny), v(nx, local_ny), eta(nx, local_ny) {}

  void fill(T value) {
    u.fill(value);
    v.fill(value);
    eta.fill(value);
  }
};

namespace detail {

/// Fill both halo rows from the slab's own interior (the p == 1 case
/// of a periodic-in-y exchange). Shared by the legacy per-field path
/// and the aggregated engine so the wrap is written exactly once.
template <typename T>
void wrap_halo_periodic(slab<T>& f) {
  const int top = f.local_ny() - 1;
  for (int i = 0; i < f.nx(); ++i) {
    f(i, -1) = f(i, top);
    f(i, f.local_ny()) = f(i, 0);
  }
}

/// Exchange one slab's halo rows with the y-neighbours (periodic).
/// The legacy per-field blocking path: one message per row per field.
/// Kept verbatim as the bit-equality oracle for the aggregated engine
/// (halo_mode::per_field selects it in the distributed model).
template <typename T>
void exchange_halo(mpisim::communicator& comm, slab<T>& f, int tag) {
  const int p = comm.size();
  const int r = comm.rank();
  const int up = (r + 1) % p;          // owns rows above mine
  const int down = (r - 1 + p) % p;    // owns rows below mine
  if (p == 1) {
    wrap_halo_periodic(f);
    return;
  }
  // Send my top row up and my bottom row down; receive symmetric.
  // Under a fault plane (mpisim/faultplane.hpp) a crashed neighbour or
  // an exhausted retry budget raises comm_error; annotate it with the
  // exchange context so the step loop fails loudly and debuggably
  // instead of hanging on a halo row that will never arrive.
  try {
    comm.send(std::span<const T>(f.row(f.local_ny() - 1)), up, tag);
    comm.send(std::span<const T>(f.row(0)), down, tag + 1);
    comm.recv(std::span<T>(&f(0, -1), static_cast<std::size_t>(f.nx())), down,
              tag);
    comm.recv(
        std::span<T>(&f(0, f.local_ny()), static_cast<std::size_t>(f.nx())),
        up, tag + 1);
  } catch (const mpisim::comm_error& e) {
    throw mpisim::comm_error(
        e.why(), e.peer(),
        "halo exchange (rank " + std::to_string(comm.rank()) + ", tag " +
            std::to_string(tag) + "): " + e.what());
  }
}

}  // namespace detail

/// Persistent aggregated halo engine: one packed message per neighbour
/// direction per phase, receives posted up front, completion split
/// into start()/finish() so interior computation can run while the
/// payloads are in flight.
///
/// Packing layout (field-major): the up-going buffer holds
/// [field0 top row | field1 top row | ...] and the down-going buffer
/// the bottom rows in the same order; the receive buffers mirror this,
/// so unpack offsets are a pure function of (field index, nx) for any
/// field count 1..max_fields. All four buffers are sized for the
/// widest phase at construction - start()/finish() never allocate.
template <typename T>
class halo_exchanger {
 public:
  /// Which of the two eval_rhs exchange phases a start() serves.
  enum class phase : std::uint8_t { prognostic = 0, derived = 1 };

  /// Widest phase the engine must carry (the derived fields).
  static constexpr std::size_t max_fields = 4;

  halo_exchanger() = default;
  halo_exchanger(mpisim::communicator& comm, int nx)
      : comm_(&comm), nx_(nx) {
    TFX_EXPECTS(nx > 0);
    const std::size_t cap = static_cast<std::size_t>(nx) * max_fields;
    send_up_.resize(cap);
    send_down_.resize(cap);
    recv_down_.resize(cap);
    recv_up_.resize(cap);
    fields_.reserve(max_fields);
  }

  /// Pack the top/bottom rows of `fields`, post both receives, then
  /// both sends (eager: never blocks). On a single rank this is a
  /// deferred periodic wrap (applied at finish(), after the caller's
  /// interior pass). Re-arming over a phase abandoned by a comm_error
  /// is safe: pending requests hold no mailbox state.
  void start(phase ph, std::initializer_list<slab<T>*> fields) {
    TFX_EXPECTS(fields.size() >= 1 && fields.size() <= max_fields);
    fields_.assign(fields.begin(), fields.end());
    phase_ = ph;
    in_flight_ = true;
    const int p = comm_->size();
    if (p == 1) return;
    const int r = comm_->rank();
    const int up = (r + 1) % p;
    const int down = (r - 1 + p) % p;
    const int tag = tag_of(ph);
    const std::size_t n =
        fields_.size() * static_cast<std::size_t>(nx_);
    const obs::scoped_vspan pack_span(
        obs::domain::swm, static_cast<std::uint16_t>(r), "halo.pack",
        [this] { return comm_->now(); },
        static_cast<std::uint64_t>(phase_), n * sizeof(T));
    // Receives first: from this instant the in-flight payloads can
    // land while the caller computes interior rows.
    rx_[0] = comm_->irecv(std::span<T>(recv_down_.data(), n), down, tag);
    rx_[1] = comm_->irecv(std::span<T>(recv_up_.data(), n), up, tag + 1);
    std::size_t at = 0;
    for (slab<T>* f : fields_) {
      const auto top = f->row(f->local_ny() - 1);
      const auto bottom = f->row(0);
      std::copy(top.begin(), top.end(), send_up_.begin() + at);
      std::copy(bottom.begin(), bottom.end(), send_down_.begin() + at);
      at += static_cast<std::size_t>(nx_);
    }
    try {
      comm_->send(std::span<const T>(send_up_.data(), n), up, tag);
      comm_->send(std::span<const T>(send_down_.data(), n), down, tag + 1);
    } catch (const mpisim::comm_error& e) {
      in_flight_ = false;
      throw annotated(e);
    }
    messages_ += 2;
    bytes_ += 2 * n * sizeof(T);
  }

  /// Complete the phase: wait for both packed payloads (down first,
  /// then up - the DES twin in make_halo_program mirrors this order)
  /// and scatter them into the halo rows of every field.
  void finish() {
    TFX_EXPECTS(in_flight_);
    const int p = comm_->size();
    if (p == 1) {
      for (slab<T>* f : fields_) detail::wrap_halo_periodic(*f);
      in_flight_ = false;
      return;
    }
    {
      const obs::scoped_vspan wait_span(
          obs::domain::swm, static_cast<std::uint16_t>(comm_->rank()),
          "halo.wait", [this] { return comm_->now(); },
          static_cast<std::uint64_t>(phase_));
      try {
        comm_->wait_all(std::span<mpisim::request>(rx_));
      } catch (const mpisim::comm_error& e) {
        in_flight_ = false;
        throw annotated(e);
      }
    }
    std::size_t at = 0;
    for (slab<T>* f : fields_) {
      for (int i = 0; i < nx_; ++i) {
        (*f)(i, -1) = recv_down_[at + static_cast<std::size_t>(i)];
        (*f)(i, f->local_ny()) = recv_up_[at + static_cast<std::size_t>(i)];
      }
      at += static_cast<std::size_t>(nx_);
    }
    in_flight_ = false;
  }

  [[nodiscard]] bool in_flight() const { return in_flight_; }

  /// Cumulative sends posted / payload bytes shipped by this engine.
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_; }

  [[nodiscard]] static int tag_of(phase ph) {
    return ph == phase::prognostic ? tags::halo_packed_prognostic
                                   : tags::halo_packed_derived;
  }
  [[nodiscard]] static const char* name_of(phase ph) {
    return ph == phase::prognostic ? "prognostic" : "derived";
  }

 private:
  [[nodiscard]] mpisim::comm_error annotated(
      const mpisim::comm_error& e) const {
    return mpisim::comm_error(
        e.why(), e.peer(),
        "halo exchange (rank " + std::to_string(comm_->rank()) +
            ", packed " + name_of(phase_) + " phase): " + e.what());
  }

  mpisim::communicator* comm_ = nullptr;
  int nx_ = 0;
  phase phase_ = phase::prognostic;
  bool in_flight_ = false;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
  std::vector<slab<T>*> fields_;
  std::vector<T> send_up_, send_down_, recv_down_, recv_up_;
  std::array<mpisim::request, 2> rx_;
};

/// Deterministic split of one RHS evaluation's modeled compute across
/// the two overlap windows: 2 of the 5 stencil passes (vorticity/KE
/// and the Laplacians) run inside the prognostic window, 3 (the
/// tendencies) inside the derived one, and each window's charge splits
/// into an interior part (rows 1..local_ny-2, charged while messages
/// fly) and a boundary part (rows 0 and local_ny-1, charged after
/// finish()). Shared by distributed_model and make_halo_program so the
/// DES cross-pin compares bit-identical doubles.
struct rhs_compute_split {
  double interior_prognostic = 0;
  double boundary_prognostic = 0;
  double interior_derived = 0;
  double boundary_derived = 0;
};
rhs_compute_split split_rhs_compute(double seconds_per_eval, int local_ny);

/// The distributed model's halo traffic restated as a DES event
/// program, operation for operation (mpisim/patterns.hpp discipline):
/// per RK4 stage, a 3-field prognostic phase then a 4-field derived
/// phase, with the modeled compute charges placed exactly where
/// distributed_model places its advance() calls for the given mode.
/// tests/swm_halo_test pins the threaded model's virtual clocks
/// against simulate() of this program. Requires a uniform
/// decomposition (every rank `local_ny` rows).
mpisim::sim_program make_halo_program(int p, int nx, std::size_t elem_bytes,
                                      halo_mode mode, int steps,
                                      double rhs_seconds_per_eval,
                                      int local_ny);

}  // namespace tfx::swm
