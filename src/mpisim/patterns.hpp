#pragma once

/// \file patterns.hpp
/// Collectives as per-rank event programs for the discrete-event engine.
///
/// Running 1536 real threads (the paper's Fig. 3 configuration) is not
/// feasible, so the large-scale benchmarks time the collectives with a
/// discrete-event walk (des.hpp) over these programs. No algorithm is
/// restated here: each generator runs the template from collectives.hpp
/// (or hierarchical.hpp) once per rank on a recording communicator that
/// appends every send, recv and modeled combine charge to the rank's op
/// list. Payloads are opaque elements of `elem_bytes` bytes (1, 2, 4 or
/// 8) that are never read, combined or copied. tests/mpisim_des_test
/// pins the programs' structure and their clocks against the threaded
/// runtime.

#include <cstddef>
#include <vector>

#include "mpisim/collectives.hpp"
#include "mpisim/network.hpp"

namespace tfx::mpisim {

/// One step of a rank's program.
struct sim_op {
  enum class kind { send, recv, compute };
  kind what = kind::compute;
  int peer = 0;           ///< destination (send) or source (recv)
  std::size_t bytes = 0;  ///< payload size
  double seconds = 0;     ///< compute duration (kind::compute only)

  static sim_op send_to(int dst, std::size_t bytes) {
    return {kind::send, dst, bytes, 0.0};
  }
  static sim_op recv_from(int src, std::size_t bytes) {
    return {kind::recv, src, bytes, 0.0};
  }
  static sim_op compute_for(double seconds) {
    return {kind::compute, 0, 0, seconds};
  }
};

/// A complete collective: one ordered op list per rank.
struct sim_program {
  std::vector<std::vector<sim_op>> ranks;

  explicit sim_program(int p) : ranks(static_cast<std::size_t>(p)) {}
  [[nodiscard]] int size() const { return static_cast<int>(ranks.size()); }
  std::vector<sim_op>& rank(int r) {
    return ranks[static_cast<std::size_t>(r)];
  }
};

/// Dissemination barrier (mpisim::barrier; 1-byte tokens).
sim_program make_barrier_program(int p);

/// Binomial bcast of count*elem_bytes from root (mpisim::bcast).
sim_program make_bcast_program(int p, std::size_t count,
                               std::size_t elem_bytes, int root);

/// Binomial reduce to root (detail::reduce_inplace, as mpisim::reduce).
sim_program make_reduce_program(const tofud_params& net, int p,
                                std::size_t count, std::size_t elem_bytes,
                                int root);

/// Allreduce (detail::allreduce_inplace); algo is automatic,
/// recursive_doubling, ring or rabenseifner.
sim_program make_allreduce_program(const tofud_params& net, int p,
                                   std::size_t count, std::size_t elem_bytes,
                                   coll_algorithm algo);

/// Hierarchical (node-leader) allreduce: binomial reduce to each
/// node's local rank 0, flat allreduce among the leaders, binomial
/// bcast back - detail::hierarchical_allreduce_inplace, the body of
/// hierarchy::allreduce, under the block rank placement. `algo`
/// selects the leader-phase algorithm; automatic resolves with the
/// flat threshold.
sim_program make_hierarchical_allreduce_program(
    const tofud_params& net, const torus_placement& place,
    std::size_t count, std::size_t elem_bytes,
    coll_algorithm algo = coll_algorithm::automatic);

/// Linear gatherv with uniform counts (mpisim::gatherv).
sim_program make_gatherv_program(int p, std::size_t count,
                                 std::size_t elem_bytes, int root);

/// Ring allgather of count*elem_bytes per rank (mpisim::allgather).
sim_program make_allgather_program(int p, std::size_t count,
                                   std::size_t elem_bytes);

}  // namespace tfx::mpisim
