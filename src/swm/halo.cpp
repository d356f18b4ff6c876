#include "swm/halo.hpp"

namespace tfx::swm {

rhs_compute_split split_rhs_compute(double seconds_per_eval, int local_ny) {
  rhs_compute_split out;
  if (seconds_per_eval <= 0) return out;
  // All four terms are pure functions of (s, local_ny) evaluated only
  // here, so the threaded model and the DES program charge
  // bit-identical doubles (EXPECT_DOUBLE_EQ in the cross-pin test).
  const double interior_frac = static_cast<double>(local_ny - 2) /
                               static_cast<double>(local_ny);
  const double prognostic_share = 0.4 * seconds_per_eval;
  const double derived_share = 0.6 * seconds_per_eval;
  out.interior_prognostic = prognostic_share * interior_frac;
  out.boundary_prognostic = prognostic_share - out.interior_prognostic;
  out.interior_derived = derived_share * interior_frac;
  out.boundary_derived = derived_share - out.interior_derived;
  return out;
}

mpisim::sim_program make_halo_program(int p, int nx, std::size_t elem_bytes,
                                      halo_mode mode, int steps,
                                      double rhs_seconds_per_eval,
                                      int local_ny) {
  mpisim::sim_program prog(p);
  const rhs_compute_split cs =
      split_rhs_compute(rhs_seconds_per_eval, local_ny);
  const std::size_t row = static_cast<std::size_t>(nx) * elem_bytes;
  for (int r = 0; r < p; ++r) {
    auto& ops = prog.rank(r);
    const int up = (r + 1) % p;
    const int down = (r - 1 + p) % p;
    // Mirrors distributed_model::charge: a zero charge is not emitted
    // (and advance(0) does not move a clock), so the guards agree.
    auto charge = [&ops](double s) {
      if (s > 0) ops.push_back(mpisim::sim_op::compute_for(s));
    };
    auto blocking_exchange = [&](std::size_t bytes) {
      ops.push_back(mpisim::sim_op::send_to(up, bytes));
      ops.push_back(mpisim::sim_op::send_to(down, bytes));
      ops.push_back(mpisim::sim_op::recv_from(down, bytes));
      ops.push_back(mpisim::sim_op::recv_from(up, bytes));
    };
    auto phase = [&](std::size_t fields, double interior, double boundary) {
      const std::size_t packed = fields * row;
      if (p == 1) {  // local wrap: no messages, compute still charged
        charge(interior);
        charge(boundary);
        return;
      }
      switch (mode) {
        case halo_mode::per_field:
          for (std::size_t f = 0; f < fields; ++f) blocking_exchange(row);
          charge(interior);
          charge(boundary);
          break;
        case halo_mode::aggregated_overlap:
          // start(): sends post eagerly; the interior charge runs with
          // the payloads in flight; finish() waits down then up.
          ops.push_back(mpisim::sim_op::send_to(up, packed));
          ops.push_back(mpisim::sim_op::send_to(down, packed));
          charge(interior);
          ops.push_back(mpisim::sim_op::recv_from(down, packed));
          ops.push_back(mpisim::sim_op::recv_from(up, packed));
          charge(boundary);
          break;
      }
    };
    for (int s = 0; s < steps; ++s) {
      for (int stage = 0; stage < 4; ++stage) {
        phase(3, cs.interior_prognostic, cs.boundary_prognostic);
        phase(4, cs.interior_derived, cs.boundary_derived);
      }
    }
  }
  return prog;
}

}  // namespace tfx::swm
