/// The layer probes every traced run makes, so each run reports every
/// per-layer metric whichever workload it traces. All inputs are fixed
/// (not seeded): the exact counts they produce repeat from run to run.

#include "bench.hpp"
#include "core/threadpool.hpp"
#include "fp/float16.hpp"
#include "fp/fpenv.hpp"
#include "swm/model.hpp"

namespace perfbench {

namespace {

/// fp: the soft-float Float16 path against native Float32, one member
/// at 64x32 stepped on this thread (the ensemble's Float16 member
/// configuration), with the thread's fp counters read around it.
void probe_fp(tracer& tr) {
  tfx::swm::swm_params p;
  p.nx = 64;
  p.ny = 32;
  p.log2_scale = 11;
  constexpr int f16_steps = 8;
  tfx::swm::model<tfx::fp::float16> half(
      p, tfx::swm::integration_scheme::compensated);
  half.seed_random_eddies(1, 0.5);
  half.step();
  const tfx::fp::fp_counters before = tfx::fp::counters();
  for (int i = 0; i < f16_steps; ++i) {
    scoped_span s(tr, "fp.f16_step");
    half.step();
  }
  const tfx::fp::fp_counters& after = tfx::fp::counters();
  const auto per_step = [&](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b) / f16_steps;
  };
  tr.value("fp.f16_subnormals", per_step(after.f16_subnormal_results,
                                         before.f16_subnormal_results));
  tr.value("fp.f16_flushes", per_step(after.f16_flushed_results,
                                      before.f16_flushed_results));
  tr.value("fp.f16_overflows",
           per_step(after.f16_overflows, before.f16_overflows));

  p.log2_scale = 0;
  tfx::swm::model<float> single(p);
  single.seed_random_eddies(1, 0.5);
  single.step();
  for (int i = 0; i < 64; ++i) {
    scoped_span s(tr, "fp.f32_step");
    single.step();
  }
}

/// core: the wake-and-join cost of one empty parallel region on the
/// smallest pool that wakes another thread (2 threads).
void probe_pool(tracer& tr) {
  tfx::thread_pool pool(2);
  const auto nothing = [](std::size_t, std::size_t) {};
  const auto task = tfx::thread_pool::task::over(2, nothing);
  pool.parallel_region({&task, 1});
  for (int i = 0; i < 256; ++i) {
    scoped_span s(tr, "core.pool_region");
    pool.parallel_region({&task, 1});
  }
}

}  // namespace

void probe_layers(tracer& tr) {
  probe_swm_layers(tr);
  probe_fp(tr);
  probe_pool(tr);
  probe_mpisim_layers(tr);
  probe_ensemble_layers(tr);
  probe_loop(tr, swm_large_plan(), 4);
  probe_loop(tr, ensemble_mixed_plan(), 2);
  probe_loop(tr, des_fig3_plan(), 1);
}

}  // namespace perfbench
