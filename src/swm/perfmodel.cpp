#include "swm/perfmodel.hpp"

#include <algorithm>
#include <vector>

#include "arch/roofline.hpp"
#include "core/contracts.hpp"
#include "swm/rhs.hpp"

namespace tfx::swm {

precision_config config_float64() { return {8, 8, false, "Float64"}; }
precision_config config_float32() { return {4, 4, false, "Float32"}; }
precision_config config_float16() { return {2, 2, true, "Float16"}; }
precision_config config_float16_32() { return {2, 4, false, "Float16/32"}; }

namespace {

// Array sweeps per cell per RK4 step, matching the implementation in
// rhs.hpp / model.hpp pass for pass:
//   4 RHS evaluations x (array_reads + array_writes) of T, the counts
//   rhs_evaluator declares next to its passes (the same at every T)
//   3 stage combinations x 3 fields x (2 Tprog reads/writes + 1 T read)
//   increment reduction: 3 fields x 4 T reads, plus - UNFUSED ONLY -
//   1 Tprog increment-array write per field and its re-read in the
//   apply sweep. The fused pipeline (update_pipeline::fused) forms the
//   increment in registers, so the apply touches only y (and the Kahan
//   arrays when compensated): 2 Tprog per field instead of 4, 4
//   instead of 6 compensated.
//   mixed precision: 4 down-casts x 3 fields x (Tprog read + T write)
constexpr double rhs_sweeps_T =
    4.0 * (rhs_evaluator<double>::array_reads +
           rhs_evaluator<double>::array_writes);
constexpr double stage_sweeps_Tprog = 3.0 * 3.0 * 2.0;
constexpr double stage_sweeps_T = 3.0 * 3.0 * 1.0;
constexpr double inc_sweeps_T = 3.0 * 4.0;
constexpr double inc_sweeps_Tprog_unfused = 3.0 * 1.0;
constexpr double update_sweeps_plain_unfused = 3.0 * 3.0;
constexpr double update_sweeps_comp_unfused = 3.0 * 5.0;
constexpr double update_sweeps_plain_fused = 3.0 * 2.0;
constexpr double update_sweeps_comp_fused = 3.0 * 4.0;
constexpr double cast_sweeps = 4.0 * 3.0;  // each: 1 Tprog + 1 T

// Element-wise update LOOPS per step (the dispatch/fusion metric the
// ablation reports; docs/MODEL.md "Per-step memory traffic"):
//   unfused: 9 stage combines + 3 rk4_increment + 3 apply (+12 per-
//   field down-cast loops when mixed);
//   fused:   3 three-field combines + 1 three-field apply (+4 fused
//   down-cast loops when mixed).
constexpr std::uint64_t update_loops_unfused = 15;
constexpr std::uint64_t update_loops_fused = 4;
constexpr std::uint64_t cast_loops_unfused = 12;
constexpr std::uint64_t cast_loops_fused = 4;

/// Arithmetic per cell per step (4 RHS evaluations of the 5-pass
/// stencil plus the RK4 combination), counted from the source.
constexpr double flops_per_cell = 440.0;

/// Fraction of peak SIMD FMA throughput a real stencil loop sustains.
constexpr double stencil_efficiency = 0.8;

/// Fixed per-step cost independent of the grid (loop launches, scalar
/// sections, halo bookkeeping) - this is what collapses the speedups
/// toward 1x at small grids in Fig. 5.
constexpr double fixed_step_overhead_s = 40e-6;

/// Live arrays during a step (3 prognostic + compensation + stage +
/// 4 tendency sets + RHS scratch; the unfused pipeline adds the 3
/// increment arrays), for the working-set estimate that selects the
/// bandwidth regime.
constexpr double live_arrays_T = 4.0 * 3.0 + 4.0;  // tendencies + scratch
constexpr double live_arrays_Tprog = 3.0 + 3.0;    // prog + stage

}  // namespace

step_cost predict_step(const arch::a64fx_params& machine, int nx, int ny,
                       const precision_config& config) {
  step_cost out;
  const double cells = static_cast<double>(nx) * static_cast<double>(ny);
  const auto e = static_cast<double>(config.elem_bytes);
  const auto p = static_cast<double>(config.prog_elem_bytes);

  const double inc_Tprog = config.fused ? 0.0 : inc_sweeps_Tprog_unfused;
  const double apply_Tprog =
      config.fused
          ? (config.compensated ? update_sweeps_comp_fused
                                : update_sweeps_plain_fused)
          : (config.compensated ? update_sweeps_comp_unfused
                                : update_sweeps_plain_unfused);

  double update_bytes_per_cell =
      (stage_sweeps_T + inc_sweeps_T) * e +
      (stage_sweeps_Tprog + inc_Tprog + apply_Tprog) * p;
  if (config.mixed()) update_bytes_per_cell += cast_sweeps * (e + p);
  const double bytes_per_cell = rhs_sweeps_T * e + update_bytes_per_cell;

  double ws_per_cell = live_arrays_T * e + live_arrays_Tprog * p;
  if (!config.fused) ws_per_cell += 3.0 * p;  // increment arrays
  if (config.compensated) ws_per_cell += 3.0 * p;

  out.update_sweeps = config.fused ? update_loops_fused : update_loops_unfused;
  if (config.mixed()) {
    out.update_sweeps += config.fused ? cast_loops_fused : cast_loops_unfused;
  }
  out.update_bytes = static_cast<std::uint64_t>(update_bytes_per_cell * cells);
  out.bytes_moved = static_cast<std::uint64_t>(bytes_per_cell * cells);
  out.working_set_bytes = static_cast<std::uint64_t>(ws_per_cell * cells);

  // ShallowWaters runs occupy a whole CMG, so one process sees only its
  // 1/12 share of the 8-MiB L2 (the Fig. 1 kernel benchmarks, by
  // contrast, are single-core and get the full L2). Without this the
  // model grows an L2-residency bump in the Float16 curve that the
  // paper's Fig. 5 does not show.
  arch::a64fx_params shared = machine;
  shared.l2.size_bytes = machine.l2.size_bytes / 12;
  const double bw_gbs =
      arch::effective_bandwidth_gbs(shared, out.working_set_bytes);
  out.memory_seconds = static_cast<double>(out.bytes_moved) / (bw_gbs * 1e9);

  // Compute: vectorized at the element width (the paper's § III-B runs
  // enable hardware Float16, so all three widths get full SVE lanes).
  double flops = flops_per_cell * cells;
  if (config.compensated) flops *= 1.05;  // Kahan arithmetic
  const double gflops = machine.peak_gflops(config.elem_bytes) *
                        stencil_efficiency;
  out.compute_seconds = flops / (gflops * 1e9);

  out.overhead_seconds = fixed_step_overhead_s;
  out.seconds = std::max(out.memory_seconds, out.compute_seconds) +
                out.overhead_seconds;
  return out;
}

double speedup_vs_float64(const arch::a64fx_params& machine, int nx, int ny,
                          const precision_config& config) {
  const double base = predict_step(machine, nx, ny, config_float64()).seconds;
  return base / predict_step(machine, nx, ny, config).seconds;
}

namespace {

/// Walk the up/down halo messages of one RK4 step, calling
/// `message(bytes, up)` for each send the rank posts - the single
/// source of message structure for both predict_halo overloads.
///
/// Per RK4 stage: a 3-field prognostic phase and a 4-field derived
/// phase, each shipping one up and one down message per rank -
/// packed under aggregation, per-field otherwise. Overlap changes
/// *when* the time is paid, not how much traffic exists, so the
/// aggregated modes share one prediction.
template <typename Fn>
void for_each_halo_message(int nx, std::size_t elem_bytes, halo_mode mode,
                           Fn&& message) {
  const std::size_t row = static_cast<std::size_t>(nx) * elem_bytes;
  constexpr std::size_t phase_fields[2] = {3, 4};
  for (int stage = 0; stage < 4; ++stage) {
    for (const std::size_t fields : phase_fields) {
      if (mode == halo_mode::per_field) {
        for (std::size_t f = 0; f < fields; ++f) {
          message(row, true);   // up
          message(row, false);  // down
        }
      } else {
        message(fields * row, true);
        message(fields * row, false);
      }
    }
  }
}

}  // namespace

halo_cost predict_halo(const mpisim::tofud_params& net, int nx,
                       std::size_t elem_bytes, int ranks, halo_mode mode) {
  halo_cost out;
  if (ranks <= 1) return out;  // the periodic wrap is local: no traffic
  for_each_halo_message(nx, elem_bytes, mode, [&](std::size_t bytes, bool) {
    out.messages += 1;
    out.bytes += bytes;
    double latency = net.alpha_s + net.per_hop_s;
    if (bytes > net.eager_threshold) latency += net.rendezvous_extra_s;
    out.seconds += net.send_overhead_s + net.recv_overhead_s + latency +
                   static_cast<double>(bytes) / net.link_bandwidth_Bps;
  });
  out.contended_seconds = out.seconds;  // no placement: assume no links shared
  return out;
}

halo_cost predict_halo(const mpisim::tofud_params& net,
                       const mpisim::torus_placement& place, int rank,
                       int nx, std::size_t elem_bytes, int ranks,
                       halo_mode mode) {
  halo_cost out;
  TFX_EXPECTS(ranks <= place.rank_count());
  TFX_EXPECTS(rank >= 0 && rank < ranks);
  if (ranks <= 1) return out;

  // Flow census: how many (rank, direction) halo flows cross each
  // directed link. Every rank sends up and down each phase; the census
  // is placement geometry only, so one pass covers all phases.
  std::vector<std::uint32_t> flows(
      static_cast<std::size_t>(place.link_count()), 0);
  for (int s = 0; s < ranks; ++s) {
    const int node_s = place.node_of(s);
    for (const int peer : {(s + 1) % ranks, (s - 1 + ranks) % ranks}) {
      const int node_p = place.node_of(peer);
      if (node_s == node_p) continue;
      place.for_each_route_link(node_s, node_p,
                                [&](int link) { ++flows[static_cast<std::size_t>(link)]; });
    }
  }

  const int node = place.node_of(rank);
  const int up = (rank + 1) % ranks;
  const int down = (rank - 1 + ranks) % ranks;
  for_each_halo_message(nx, elem_bytes, mode, [&](std::size_t bytes,
                                                  bool is_up) {
    out.messages += 1;
    out.bytes += bytes;
    const int peer = is_up ? up : down;
    const int node_peer = place.node_of(peer);
    const double overheads = net.send_overhead_s + net.recv_overhead_s;
    const double rendezvous =
        bytes > net.eager_threshold ? net.rendezvous_extra_s : 0.0;
    if (node == node_peer) {
      const double t = overheads + net.intra_alpha_s + rendezvous +
                       static_cast<double>(bytes) / net.intra_bandwidth_Bps;
      out.seconds += t;
      out.contended_seconds += t;  // shared memory: no links to share
      return;
    }
    const int h = place.hops(node, node_peer);
    const double ser = static_cast<double>(bytes) / net.link_bandwidth_Bps;
    const double base = overheads + net.alpha_s +
                        static_cast<double>(h) * net.per_hop_s + rendezvous +
                        ser;
    out.seconds += base;
    // Contended: the message re-serializes on each of its h links
    // (store-and-forward) and queues one serialization behind every
    // other flow on the hottest link of its route.
    std::uint32_t fmax = 0;
    place.for_each_route_link(node, node_peer, [&](int link) {
      fmax = std::max(fmax, flows[static_cast<std::size_t>(link)]);
    });
    out.max_link_flows = std::max<std::uint64_t>(out.max_link_flows, fmax);
    const double queue = fmax > 0 ? (fmax - 1) * ser : 0.0;
    out.link_wait_seconds += queue;
    out.contended_seconds += base + static_cast<double>(h) * ser + queue;
  });
  return out;
}

double predict_time(const arch::a64fx_params& machine, int nx, int ny,
                    const precision_config& config, int steps, int ranks,
                    const mpisim::tofud_params& net) {
  double per_step = predict_step(machine, nx, ny, config).seconds;
  if (ranks > 1) {
    per_step += predict_halo(net, nx, config.prog_elem_bytes, ranks,
                             halo_mode::aggregated_overlap)
                    .seconds;
  }
  return per_step * steps;
}

}  // namespace tfx::swm
