/// ensemble_mixed: the async ensemble service with one stepping thread
/// (its scheduler thread, which steps through a pool of one while the
/// benchmark thread waits). One op is one wave: submit a fixed mix of small members (64x32 and
/// 128x64, all six personalities) in a seeded order, then wait_all.
/// Work is member-steps. Step counts put the soft-float members
/// (Float16, Float16/32, BFloat16) at about half of a wave's host time;
/// some members record snapshots, and the two Float16 personalities
/// run with the autopilot monitor on.
///
/// Gate: after every wave one seeded member is re-run standalone
/// through swm::model and must match bit for bit - prognostic fields,
/// Kahan compensation and snapshots. Rejected submits and jobs that do
/// not end `done` fail the wave too.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "ensemble/engine.hpp"
#include "fp/bfloat16.hpp"
#include "fp/float16.hpp"
#include "swm/model.hpp"

namespace perfbench {

namespace {

using namespace tfx::ensemble;
using tfx::swm::integration_scheme;

struct member_spec {
  personality prec;
  int nx;
  int ny;
  int steps;
  int record_every;
};

// Host cost per wave on a 4-core Xeon (Sapphire Rapids class):
// soft-float ~120 ms of stepping, native ~115 ms.
constexpr member_spec mix[] = {
    {personality::float16, 64, 32, 4, 2},
    {personality::float16_mixed, 64, 32, 4, 0},
    {personality::bfloat16, 64, 32, 16, 4},
    {personality::float64, 128, 64, 24, 8},
    {personality::float64, 128, 64, 24, 0},
    {personality::float64_comp, 64, 32, 32, 0},
    {personality::float32, 128, 64, 24, 0},
    {personality::float32, 64, 32, 32, 8},
    {personality::float64, 64, 32, 32, 0},
    {personality::float64, 64, 32, 32, 0},
};
constexpr std::size_t mix_size = std::size(mix);
constexpr int ops_per_episode = 6;
/// Waves the layer probe waits on job by job.
constexpr int probe_waves = 4;

constexpr bool soft_float(personality p) {
  return p == personality::float16 || p == personality::float16_mixed;
}

member_config config_of(const member_spec& s) {
  member_config cfg;
  cfg.prec = s.prec;
  cfg.nx = s.nx;
  cfg.ny = s.ny;
  cfg.steps = s.steps;
  cfg.record_every = s.record_every;
  if (soft_float(s.prec)) {
    // 2^11 sits mid-way in the range where the autopilot never repairs
    // these initial conditions (2^10..2^13; at 2^8 it rescales ~8% of
    // members, whose trajectories a plain model cannot replay).
    cfg.log2_scale = 11;
    cfg.autopilot.check_every = 2;
  }
  return cfg;
}

/// The wave submitted by op `wave` of an episode: the fixed mix with
/// seeded initial conditions, in a seeded submission order.
std::vector<member_config> make_wave(std::uint64_t seed, int wave) {
  tfx::xoshiro256 rng(tfx::derive_stream(seed, 0x77617665ull,
                                         static_cast<std::uint64_t>(wave)));
  std::vector<member_config> out;
  for (const member_spec& s : mix) {
    out.push_back(config_of(s));
    out.back().seed = rng();
  }
  for (std::size_t i = out.size() - 1; i > 0; --i) {
    std::swap(out[i], out[rng.bounded(i + 1)]);
  }
  return out;
}

/// Index of the member the gate re-runs after `wave`.
std::size_t sampled_member(std::uint64_t seed, int wave) {
  tfx::xoshiro256 rng(tfx::derive_stream(seed, 0x67617465ull,
                                         static_cast<std::uint64_t>(wave)));
  return rng.bounded(mix_size);
}

/// The standalone oracle: the initialization and stepping recipe
/// job.hpp promises, through the plain model API.
template <typename T, typename Tprog>
bool matches_standalone(const member_config& cfg, integration_scheme scheme,
                        const job_result& got) {
  tfx::swm::swm_params p;
  p.nx = cfg.nx;
  p.ny = cfg.ny;
  p.log2_scale = cfg.log2_scale;
  tfx::fp::ftz_guard guard(cfg.ftz);
  tfx::swm::model<T, Tprog> m(p, scheme);
  m.seed_random_eddies(cfg.seed, cfg.velocity_amplitude);
  std::size_t snap = 0;
  for (int s = 1; s <= cfg.steps; ++s) {
    m.step();
    if (cfg.record_every > 0 && s % cfg.record_every == 0) {
      if (snap >= got.snapshots.size()) return false;
      const auto want = m.unscaled();
      const auto& have = got.snapshots[snap++];
      if (!same_bits(want.eta.flat(), have.eta.flat()) ||
          !same_bits(want.u.flat(), have.u.flat()) ||
          !same_bits(want.v.flat(), have.v.flat())) {
        return false;
      }
    }
  }
  const auto prog = tfx::swm::convert_state<double>(m.prognostic());
  const auto comp = tfx::swm::convert_state<double>(m.compensation());
  return snap == got.snapshots.size() && got.steps_done == cfg.steps &&
         same_bits(prog.u.flat(), got.prognostic.u.flat()) &&
         same_bits(prog.v.flat(), got.prognostic.v.flat()) &&
         same_bits(prog.eta.flat(), got.prognostic.eta.flat()) &&
         same_bits(comp.u.flat(), got.compensation.u.flat()) &&
         same_bits(comp.v.flat(), got.compensation.v.flat()) &&
         same_bits(comp.eta.flat(), got.compensation.eta.flat());
}

bool matches_standalone(const member_config& cfg, const job_result& got) {
  switch (cfg.prec) {
    case personality::float64:
      return matches_standalone<double, double>(
          cfg, integration_scheme::standard, got);
    case personality::float64_comp:
      return matches_standalone<double, double>(
          cfg, integration_scheme::compensated, got);
    case personality::float32:
      return matches_standalone<float, float>(
          cfg, integration_scheme::standard, got);
    case personality::float16:
      return matches_standalone<tfx::fp::float16, tfx::fp::float16>(
          cfg, integration_scheme::compensated, got);
    case personality::float16_mixed:
      return matches_standalone<tfx::fp::float16, float>(
          cfg, integration_scheme::standard, got);
    case personality::bfloat16:
      return matches_standalone<tfx::fp::bfloat16, tfx::fp::bfloat16>(
          cfg, integration_scheme::compensated, got);
  }
  return false;
}

/// One stepping thread: with two, a wave took 30-40% longer whenever the
/// shared host was busy while single-threaded workloads held steady, and
/// the workload did not repeat within its bounds.
engine_options service_options() {
  engine_options o;
  o.threads = 1;
  o.async = true;
  return o;
}

class ensemble_episode final : public episode {
 public:
  explicit ensemble_episode(std::uint64_t seed)
      : seed_(seed), eng_(service_options()) {
    wave_ = make_wave(seed_, -1);  // warm-up wave: pool spin-up, first touch
    tracer off(false);
    op(off);
    wave_ = make_wave(seed_, 0);
  }

  void op(tracer& tr) override {
    ids_.clear();
    rejects_ = 0;
    for (const member_config& cfg : wave_) {
      submit_ticket t;
      {
        scoped_span s(tr, "ensemble.submit");
        t = eng_.submit(cfg);
      }
      ids_.push_back(t.ok() ? t.id : invalid_job);
      if (!t.ok()) ++rejects_;
    }
    scoped_span s(tr, "ensemble.wait_all");
    eng_.wait_all();
  }

  [[nodiscard]] double work_per_op() const override {
    double steps = 0;
    for (const member_spec& s : mix) steps += s.steps;
    return steps;
  }

  void check_op(run_result& res) override {
    std::string why;
    if (rejects_ > 0) why = std::to_string(rejects_) + " submits rejected";
    for (const job_id id : ids_) {
      if (id == invalid_job) continue;
      const auto st = eng_.poll(id);
      if (!st || st->state != job_state::done) {
        why = "job " + std::to_string(id) + " ended " +
              (st ? job_state_name(st->state) : "unknown");
      }
    }
    const std::size_t pick = sampled_member(seed_, wave_index_);
    const job_result* r =
        ids_[pick] == invalid_job ? nullptr : eng_.result(ids_[pick]);
    if (why.empty() && (r == nullptr || !matches_standalone(wave_[pick], *r))) {
      why = std::string(personality_name(wave_[pick].prec)) +
            " member differs from its standalone model" +
            (r != nullptr ? " (" + std::to_string(r->repairs.size()) +
                                " autopilot repairs)"
                          : std::string());
    }
    if (!why.empty()) res.fail(1, "ensemble_mixed wave: " + why);
    wave_ = make_wave(seed_, ++wave_index_);
  }

 private:
  std::uint64_t seed_;
  engine eng_;
  std::vector<member_config> wave_;
  std::vector<job_id> ids_;
  int wave_index_ = 0;
  int rejects_ = 0;
};

}  // namespace

loop_plan ensemble_mixed_plan() {
  return {ops_per_episode, [](std::uint64_t seed, int) {
            return std::make_unique<ensemble_episode>(seed);
          }};
}

void probe_ensemble_layers(tracer& tr) {
  engine eng(service_options());
  for (int wave = -1; wave < probe_waves; ++wave) {
    std::vector<job_id> ids;
    std::vector<double> submitted_at;
    int rejects = 0;
    for (const member_config& cfg : make_wave(0, wave)) {
      submitted_at.push_back(now_s());
      const submit_ticket t = eng.submit(cfg);
      ids.push_back(t.ok() ? t.id : invalid_job);
      if (!t.ok()) ++rejects;
    }
    if (wave < 0) {  // warm-up wave: pool spin-up, first touch
      eng.wait_all();
      continue;
    }
    std::size_t repairs = 0;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      if (ids[k] == invalid_job) continue;
      eng.wait(ids[k]);
      tr.value("ensemble.job_s", now_s() - submitted_at[k]);
      repairs += eng.result(ids[k])->repairs.size();
    }
    tr.value("ensemble.rejects", static_cast<double>(rejects));
    tr.value("ensemble.repairs", static_cast<double>(repairs));
  }
  // The tile the largest Float64 group batches at.
  tr.value("ensemble.tile_members",
           static_cast<double>(eng.tile_members_for(config_of(mix[3]))));
}

std::uint64_t digest_ensemble_mixed(std::uint64_t seed) {
  std::vector<std::uint64_t> words;
  for (int e = 0; e < 2; ++e) {
    const std::uint64_t es = episode_seed(seed, e);
    for (const member_config& cfg : make_wave(es, 0)) {
      words.push_back(cfg.seed);
      words.push_back(static_cast<std::uint64_t>(cfg.prec));
    }
    words.push_back(sampled_member(es, 0));
  }
  return fnv1a(std::span<const std::uint64_t>(words));
}

}  // namespace perfbench
