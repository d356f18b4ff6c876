/// The mpisim layer probes of a traced run: the distributed SWM
/// (swm::distributed_model<double>, Kahan-compensated, 256x128 over 2
/// thread-ranks on the default transport_options{} transport) and the
/// runtime calls its steps are made of. Inputs are fixed, so the halo
/// counts repeat exactly from run to run.

#include <cstddef>
#include <vector>

#include "bench.hpp"
#include "mpisim/collectives.hpp"
#include "mpisim/runtime.hpp"
#include "swm/distributed.hpp"
#include "swm/model.hpp"

namespace perfbench {

namespace {

using tfx::swm::integration_scheme;

constexpr int nx = 256;
constexpr int ny = 128;
constexpr int ranks = 2;
constexpr int warmup_steps = 8;
constexpr int traced_steps = 16;

tfx::swm::swm_params params() {
  tfx::swm::swm_params p;
  p.nx = nx;
  p.ny = ny;
  return p;
}

tfx::swm::state<double> initial_state(std::uint64_t seed) {
  tfx::swm::model<double> m(params());
  m.seed_random_eddies(seed, 0.5);
  return m.prognostic();
}

}  // namespace

void probe_mpisim_layers(tracer& tr) {
  namespace mp = tfx::mpisim;
  const auto init = initial_state(1);
  // Distributed steps as the benchmark's own spans see them (rank 0),
  // on the same fixed initial state, without obs.
  {
    mp::world w(ranks);
    w.run([&](mp::communicator& comm) {
      tfx::swm::distributed_model<double> dm(comm, params(),
                                             integration_scheme::compensated);
      dm.set_from_global(init);
      dm.run(warmup_steps);
      for (int s = 0; s < traced_steps; ++s) {
        if (comm.rank() == 0) {
          scoped_span span(tr, "swm.dist_step");
          dm.step();
        } else {
          dm.step();
        }
      }
    });
  }
  // Halo traffic as the program's own obs counters count it.
  auto& reg = tfx::obs::metrics_registry::instance();
  const auto counter = [&](const char* name) {
    return reg.get_counter(name).value();
  };
  const auto msgs0 = counter("swm.halo_messages");
  const auto bytes0 = counter("swm.halo_bytes");
  const auto steps0 = counter("swm.dist_steps");
  {
    mp::world w(ranks);
    tfx::obs::start();
    w.run([&](mp::communicator& comm) {
      tfx::swm::distributed_model<double> dm(comm, params(),
                                             integration_scheme::compensated);
      dm.set_from_global(init);
      dm.run(2);
    });
    tfx::obs::stop();
  }
  const double rank_steps = static_cast<double>(counter("swm.dist_steps") - steps0);
  tr.value("swm.halo_messages",
           static_cast<double>(counter("swm.halo_messages") - msgs0) / rank_steps);
  tr.value("swm.halo_bytes",
           static_cast<double>(counter("swm.halo_bytes") - bytes0) / rank_steps);

  // Point-to-point at the halo message size, allreduce and world set-up,
  // on the same transport and rank count.
  const auto halo = tfx::swm::predict_halo(tfx::mpisim::tofud_params{}, nx,
                                           sizeof(double), ranks,
                                           tfx::swm::halo_mode::aggregated_overlap);
  const std::size_t msg_bytes = halo.bytes / halo.messages;
  tr.value("size.mpisim.halo_message_bytes", static_cast<double>(msg_bytes));
  constexpr int reps = 64;
  for (int i = 0; i < 8; ++i) {
    const double t0 = now_s();
    mp::world w(ranks);
    w.run([](mp::communicator&) {});
    tr.value("mpisim.world_setup_s", now_s() - t0);
  }
  mp::world w(ranks);
  w.run([&](mp::communicator& comm) {
    std::vector<std::byte> buf(msg_bytes);
    const int peer = 1 - comm.rank();
    for (int i = 0; i < reps; ++i) {
      const double t0 = now_s();
      if (comm.rank() == 0) {
        comm.send_bytes(buf, peer, 7);
        (void)comm.recv_bytes(buf, peer, 7);
        tr.value("mpisim.p2p_halo_s", (now_s() - t0) / 2);
      } else {
        (void)comm.recv_bytes(buf, peer, 7);
        comm.send_bytes(buf, peer, 7);
      }
    }
    double in = comm.rank();
    double out = 0;
    for (int i = 0; i < reps; ++i) {
      const double t0 = now_s();
      mp::allreduce(comm, std::span<const double>(&in, 1),
                    std::span<double>(&out, 1),
                    [](double a, double b) { return a > b ? a : b; });
      if (comm.rank() == 0) tr.value("mpisim.allreduce_s", now_s() - t0);
    }
  });
}

}  // namespace perfbench
