/// swm_f64_large: one Float64 standard-RK4 member at 512x256, periodic,
/// single-threaded (no pool). One op is one RK4 step; work is
/// cell-steps. Its ~25 MiB working set exceeds L2 - the memory-bound
/// regime of the paper's Fig. 5.
///
/// Gate: the episode's final state is bit-identical to the same
/// trajectory run through update_pipeline::unfused (the fusion
/// oracle), computed outside the timed region.

#include <memory>
#include <string>

#include "bench.hpp"
#include "kernels/stream.hpp"
#include "swm/model.hpp"

namespace perfbench {

namespace {

constexpr int nx = 512;
constexpr int ny = 256;
constexpr double amplitude = 0.5;
constexpr int ops_per_episode = 96;
/// Every episode whose index is a multiple of this is gated (the
/// unfused oracle costs about one episode of ops).
constexpr int gate_every = 3;

tfx::swm::swm_params params() {
  tfx::swm::swm_params p;
  p.nx = nx;
  p.ny = ny;
  return p;
}

using model = tfx::swm::model<double>;

class swm_episode final : public episode {
 public:
  swm_episode(std::uint64_t seed, int index)
      : seed_(seed), gated_(index % gate_every == 0), m_(params()) {
    m_.seed_random_eddies(seed_, amplitude);
    m_.step();  // warm-up: first touch of k1..k4 and the stage state
  }

  void op(tracer& tr) override {
    {
      scoped_span s(tr, "swm.stages");
      m_.step_stages();
    }
    {
      scoped_span s(tr, "swm.apply");
      m_.step_apply();
    }
    m_.finish_step();
  }

  [[nodiscard]] double work_per_op() const override {
    return static_cast<double>(nx) * ny;
  }

  void check_episode(int ops, run_result& res) override {
    if (!gated_) return;
    model oracle(params());
    oracle.set_pipeline(tfx::swm::update_pipeline::unfused);
    oracle.seed_random_eddies(seed_, amplitude);
    oracle.run(m_.steps_taken());
    const auto& a = m_.prognostic();
    const auto& b = oracle.prognostic();
    const bool ok = same_bits(a.u.flat(), b.u.flat()) &&
                    same_bits(a.v.flat(), b.v.flat()) &&
                    same_bits(a.eta.flat(), b.eta.flat());
    if (!ok) {
      res.fail(static_cast<std::uint64_t>(ops),
               "swm_f64_large: state differs from the unfused oracle after " +
                   std::to_string(m_.steps_taken()) + " steps");
    }
  }

 private:
  std::uint64_t seed_;
  bool gated_;
  model m_;
};

}  // namespace

loop_plan swm_large_plan() {
  return {ops_per_episode, [](std::uint64_t seed, int index) {
            return std::make_unique<swm_episode>(seed, index);
          }};
}

void probe_swm_layers(tracer& tr) {
  const tfx::swm::step_cost modeled = tfx::swm::predict_step(
      tfx::arch::fugaku_node, nx, ny, tfx::swm::config_float64());
  tr.value("modeled.swm.step_ms", modeled.seconds * 1e3);

  // One RHS evaluation on the member's state. Its bytes are computed
  // from the perfmodel's sweep accounting (four evaluations per step).
  model m(params());
  m.seed_random_eddies(1, amplitude);
  m.step();
  tfx::swm::rhs_evaluator<double> rhs(params());
  tfx::swm::tendencies<double> k(nx, ny);
  rhs(m.prognostic(), k);  // first touch of its scratch fields
  for (int i = 0; i < 8; ++i) {
    scoped_span s(tr, "swm.rhs");
    rhs(m.prognostic(), k);
  }
  const double cells = static_cast<double>(nx) * ny;
  tr.value("size.swm.rhs_bytes",
           static_cast<double>(modeled.bytes_moved - modeled.update_bytes) / 4);
  // Live arrays of an evaluation: 3 state, 3 tendency, 4 scratch.
  const double footprint = 10 * cells * sizeof(double);
  tr.value("size.swm.rhs_footprint_bytes", footprint);

  // STREAM triad over the same footprint: three arrays of n doubles.
  const auto n = static_cast<std::size_t>(footprint / (3 * sizeof(double)));
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  tfx::kernels::stream_triad(3.0, std::span<const double>(b),
                             std::span<const double>(c), std::span<double>(a));
  for (int i = 0; i < 16; ++i) {
    scoped_span s(tr, "kernels.triad");
    tfx::kernels::stream_triad(3.0, std::span<const double>(b),
                               std::span<const double>(c),
                               std::span<double>(a));
  }
  tr.value("size.kernels.triad_bytes", 3.0 * static_cast<double>(n) * sizeof(double));
}

std::uint64_t digest_swm_large(std::uint64_t seed) {
  std::uint64_t h = 1469598103934665603ull;
  for (int e = 0; e < 2; ++e) {
    model m(params());
    m.seed_random_eddies(episode_seed(seed, e), amplitude);
    h = fnv1a(std::span<const double>(m.prognostic().eta.flat()), h);
  }
  return h;
}

}  // namespace perfbench
