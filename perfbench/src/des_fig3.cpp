/// des_fig3: the paper's Fig. 3 collectives through the discrete-event
/// simulator, single-threaded. Programs are built with the mpisim
/// make_*_program generators and run with simulate() on
/// imb::fugaku_fig3_placement() (1536 ranks, 4x6x16 torus): allreduce,
/// gatherv and reduce at a few sizes in both fabric modes, plus one
/// 4096-rank allreduce. One op is one pass over the case list in a
/// seeded order; work is simulated messages.
///
/// Gate: every case's per-rank clock vector hashes (FNV-1a) to a pinned
/// value. The three uncontended 1536-rank cases that tests/
/// mpisim_topology_test.cpp's DesGolden also covers carry its pins; the
/// rest were recorded from this tree.

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "imb/benchmarks.hpp"
#include "mpisim/des.hpp"
#include "mpisim/patterns.hpp"

namespace perfbench {

namespace {

namespace mp = tfx::mpisim;

enum class coll { allreduce_rdbl, allreduce_rab, gatherv, reduce };

struct des_case {
  const char* name;
  coll what;
  std::size_t count;  ///< doubles per rank
  bool large;         ///< the 4096-rank torus instead of Fig. 3's
  mp::fabric_mode fabric;
  std::uint64_t hash;  ///< FNV-1a of the per-rank clocks
};

constexpr auto U = mp::fabric_mode::uncontended;
constexpr auto C = mp::fabric_mode::contended;

constexpr des_case cases[] = {
    {"allreduce rdbl 64B", coll::allreduce_rdbl, 8, false, U,
     0x40d622af6d0ae913ull},
    {"allreduce rab 512KiB", coll::allreduce_rab, 65536, false, U,
     0xfc542e03a7471eabull},
    {"gatherv 4KiB", coll::gatherv, 512, false, U, 0xfd9c7f2dc69c57ffull},
    {"reduce 32KiB", coll::reduce, 4096, false, U, 0x87762f2620c8ea32ull},
    {"allreduce rdbl 64B contended", coll::allreduce_rdbl, 8, false, C,
     0x9901bc780a1fe468ull},
    {"allreduce rab 512KiB contended", coll::allreduce_rab, 65536, false, C,
     0xcfd84fd82e0250c2ull},
    {"gatherv 4KiB contended", coll::gatherv, 512, false, C,
     0x1bb055a4ca31ff37ull},
    {"reduce 32KiB contended", coll::reduce, 4096, false, C,
     0x69a69bc53faa3e82ull},
    {"4096 allreduce rab 64KiB", coll::allreduce_rab, 8192, true, U,
     0x0be33a3200198383ull},
};
constexpr std::size_t case_count = std::size(cases);
constexpr int ops_per_episode = 16;

mp::sim_program build(const des_case& c, const mp::tofud_params& net, int p) {
  switch (c.what) {
    case coll::allreduce_rdbl:
      return mp::make_allreduce_program(net, p, c.count, 8,
                                        mp::coll_algorithm::recursive_doubling);
    case coll::allreduce_rab:
      return mp::make_allreduce_program(net, p, c.count, 8,
                                        mp::coll_algorithm::rabenseifner);
    case coll::gatherv:
      return mp::make_gatherv_program(p, c.count, 8, 0);
    case coll::reduce:
      return mp::make_reduce_program(net, p, c.count, 8, 0);
  }
  return mp::sim_program(p);
}

std::size_t sends_of(const mp::sim_program& prog) {
  std::size_t n = 0;
  for (const auto& ops : prog.ranks) {
    for (const auto& op : ops) n += op.what == mp::sim_op::kind::send;
  }
  return n;
}

/// The pass order of op `pass`: a seeded permutation of the case list.
std::vector<std::size_t> pass_order(std::uint64_t seed, int pass) {
  tfx::xoshiro256 rng(tfx::derive_stream(seed, 0x64657366ull,
                                         static_cast<std::uint64_t>(pass)));
  std::vector<std::size_t> order(case_count);
  for (std::size_t i = 0; i < case_count; ++i) order[i] = i;
  for (std::size_t i = case_count - 1; i > 0; --i) {
    std::swap(order[i], order[rng.bounded(i + 1)]);
  }
  return order;
}

class des_episode final : public episode {
 public:
  explicit des_episode(std::uint64_t seed)
      : seed_(seed),
        fig3_(tfx::imb::fugaku_fig3_placement()),
        large_({8, 8, 16}, 4),
        results_(case_count) {
    for (const des_case& c : cases) {
      messages_ += sends_of(build(c, net_, place_of(c).rank_count()));
    }
    order_ = pass_order(seed_, -1);
    tracer off(false);
    op(off);  // warm-up pass
    order_ = pass_order(seed_, 0);
  }

  void op(tracer& tr) override {
    double build_s = 0;
    double simulate_s = 0;
    double hops = 0;
    double wait_s = 0;
    for (const std::size_t i : order_) {
      const des_case& c = cases[i];
      const mp::torus_placement& place = place_of(c);
      const double t0 = now_s();
      const mp::sim_program prog = [&] {
        scoped_span s(tr, "des.build");
        return build(c, net_, place.rank_count());
      }();
      const double t1 = now_s();
      {
        scoped_span s(tr, "des.simulate");
        results_[i] = mp::simulate(prog, net_, place, {}, nullptr,
                                   mp::des_options{c.fabric});
      }
      build_s += t1 - t0;
      simulate_s += now_s() - t1;
      hops += static_cast<double>(results_[i].links.contended_hops);
      wait_s += results_[i].links.wait_seconds;
    }
    if (tr.on()) {
      tr.value("des.build_pass_s", build_s);
      tr.value("des.simulate_pass_s", simulate_s);
      tr.value("des.messages", static_cast<double>(messages_));
      tr.value("des.contended_hops", hops);
      tr.value("des.link_wait_s", wait_s);
      for (std::size_t i = 0; i < case_count; ++i) {
        tr.value(std::string("modeled.des.max_clock_us ") + cases[i].name,
                 results_[i].max_clock() * 1e6);
      }
    }
  }

  [[nodiscard]] double work_per_op() const override {
    return static_cast<double>(messages_);
  }

  void check_op(run_result& res) override {
    for (std::size_t i = 0; i < case_count; ++i) {
      const std::uint64_t h = fnv1a(std::span<const double>(results_[i].clocks));
      if (h != cases[i].hash) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "des_fig3 %s: clock hash %016" PRIx64
                      " != pinned %016" PRIx64,
                      cases[i].name, h, cases[i].hash);
        res.fail(1, buf);
        break;
      }
    }
    order_ = pass_order(seed_, ++pass_);
  }

 private:
  [[nodiscard]] const mp::torus_placement& place_of(const des_case& c) const {
    return c.large ? large_ : fig3_;
  }

  std::uint64_t seed_;
  mp::tofud_params net_;
  mp::torus_placement fig3_;
  mp::torus_placement large_;
  std::vector<mp::des_result> results_;
  std::vector<std::size_t> order_;
  std::size_t messages_ = 0;
  int pass_ = 0;
};

}  // namespace

loop_plan des_fig3_plan() {
  return {ops_per_episode, [](std::uint64_t seed, int) {
            return std::make_unique<des_episode>(seed);
          }};
}

std::uint64_t digest_des_fig3(std::uint64_t seed) {
  std::vector<std::uint64_t> words;
  for (int e = 0; e < 2; ++e) {
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::size_t i : pass_order(episode_seed(seed, e), pass)) {
        words.push_back(i);
      }
    }
  }
  return fnv1a(std::span<const std::uint64_t>(words));
}

}  // namespace perfbench
