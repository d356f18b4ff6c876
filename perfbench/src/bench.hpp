#pragma once

/// \file bench.hpp
/// What the three workloads share: the run configuration, the raw
/// result each run hands to run.py (which owns every statistic), and
/// the closed-loop episode loop.
///
/// A run is a sequence of *episodes*. An episode sets up from scratch
/// (timed: the set-up samples behind setup_s), runs timed ops until its
/// op budget or the deadline, then checks its outputs against the
/// workload's oracle outside the timed region. Repeating the set-up
/// every episode is what lets setup_s be reported as a median.

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "trace.hpp"

namespace perfbench {

struct run_config {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Raw measurements of one run, in host seconds. Layer samples, stated
/// sizes ("size.*") and modeled A64FX numbers ("modeled.*") are tracer
/// values, kept in traced runs only.
struct run_result {
  std::vector<double> setup_s;      ///< one sample per episode set-up
  std::vector<double> op_s;         ///< untraced op latencies
  std::vector<double> traced_op_s;  ///< traced op latencies (trace runs)
  double work = 0;                  ///< work units done by untraced ops
  std::uint64_t attempted = 0;      ///< every op, traced or not
  std::uint64_t failed = 0;         ///< ops that failed a check
  std::vector<std::string> failures;  ///< descriptions (first few)

  void fail(std::uint64_t ops, const std::string& why) {
    failed += ops;
    if (failures.size() < 8) failures.push_back(why);
  }
};

/// Per-episode seed: every episode's inputs differ, and all of them
/// follow from the run's seed.
inline std::uint64_t episode_seed(std::uint64_t seed, int episode) {
  return tfx::derive_stream(seed, 0x70657266ull,
                            static_cast<std::uint64_t>(episode));
}

/// FNV-1a over the bytes of a sequence of 8-byte words, low byte
/// first (over doubles: the hash the DES golden-clock pins use).
template <typename W>
  requires(sizeof(W) == 8)
std::uint64_t fnv1a(std::span<const W> v,
                    std::uint64_t h = 1469598103934665603ull) {
  for (const W w : v) {
    const auto bits = std::bit_cast<std::uint64_t>(w);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// True when two double sequences are bit-identical.
inline bool same_bits(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

/// One set-up-and-run of a workload (see the file comment).
class episode {
 public:
  virtual ~episode() = default;
  /// One timed op. `tr` is off for untraced ops.
  virtual void op(tracer& tr) = 0;
  /// Work units one op completes.
  [[nodiscard]] virtual double work_per_op() const = 0;
  /// Untimed check of the op just run; failures go to run_result::fail.
  virtual void check_op(run_result&) {}
  /// Untimed end-of-episode check over the episode's `ops` ops.
  virtual void check_episode(int /*ops*/, run_result&) {}
};

struct loop_plan {
  int ops_per_episode;  ///< op budget of one episode
  /// Builds episode `index` from its seed and runs its warm-up op(s):
  /// the whole call is one set-up sample.
  std::function<std::unique_ptr<episode>(std::uint64_t seed, int index)>
      setup;
};

/// Episodes until `cfg.seconds` have passed (at least three, so setup_s
/// has a median). In trace runs ops alternate traced / untraced, which
/// gives the tracing overhead within one process.
run_result closed_loop(const run_config& cfg, tracer& tr,
                       const loop_plan& plan);

/// One set-up plus `ops` traced ops of a workload on fixed inputs: how
/// the layer probes reach a workload's layers from any traced run.
void probe_loop(tracer& tr, const loop_plan& plan, int ops);

// -- the workloads (one file each) ------------------------------------

loop_plan swm_large_plan();
loop_plan ensemble_mixed_plan();
loop_plan des_fig3_plan();

/// Digest of the inputs a workload generates from `seed` (first two
/// episodes), for the seed-determinism tests.
std::uint64_t digest_swm_large(std::uint64_t seed);
std::uint64_t digest_ensemble_mixed(std::uint64_t seed);
std::uint64_t digest_des_fig3(std::uint64_t seed);

/// The layer probes of a traced run: fixed inputs, so their exact
/// counts repeat across seeds. Spans and values land in `tr`.
void probe_layers(tracer& tr);
void probe_swm_layers(tracer& tr);     ///< swm_large.cpp
void probe_mpisim_layers(tracer& tr);  ///< mpisim_probe.cpp
/// Per-job latency (submit to wait(id), waited in submission order),
/// rejects, repairs and tile size of the ensemble service on fixed
/// waves (ensemble_mixed.cpp).
void probe_ensemble_layers(tracer& tr);

/// Peak resident set of this process so far (MiB).
double peak_rss_mib();

}  // namespace perfbench
