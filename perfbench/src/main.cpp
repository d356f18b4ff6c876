/// perfbench: runs one workload and prints its raw measurements as one
/// JSON object on stdout. run.py turns them into the benchmark's
/// metrics; all statistics live there.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--chrome PATH]
///   perfbench --digest NAME --seed N     (hex digest of the inputs)

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <malloc.h>
#include <sys/resource.h>

#include "bench.hpp"

namespace perfbench {

run_result closed_loop(const run_config& cfg, tracer& tr,
                       const loop_plan& plan) {
  run_result res;
  tracer off(false);
  const double deadline = now_s() + cfg.seconds;
  std::uint64_t op_index = 0;
  for (int e = 0; e < 3 || now_s() < deadline; ++e) {
    const double t0 = now_s();
    std::unique_ptr<episode> ep;
    {
      scoped_span s(tr, "bench.setup");
      ep = plan.setup(episode_seed(cfg.seed, e), e);
    }
    res.setup_s.push_back(now_s() - t0);
    int ops = 0;
    do {
      const bool traced = cfg.trace && op_index++ % 2 == 1;
      const double a = now_s();
      if (traced) {
        scoped_span s(tr, "bench.op");
        ep->op(tr);
      } else {
        ep->op(off);
      }
      const double dt = now_s() - a;
      if (traced) {
        res.traced_op_s.push_back(dt);
      } else {
        res.op_s.push_back(dt);
        res.work += ep->work_per_op();
      }
      ++ops;
      ++res.attempted;
      ep->check_op(res);
    } while (ops < plan.ops_per_episode && now_s() < deadline);
    ep->check_episode(ops, res);
  }
  return res;
}

void probe_loop(tracer& tr, const loop_plan& plan, int ops) {
  std::unique_ptr<episode> ep = plan.setup(episode_seed(0, 0), 0);
  for (int i = 0; i < ops; ++i) ep->op(tr);
}

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench

namespace {

using namespace perfbench;

struct workload_entry {
  const char* name;
  const char* work_unit;
  loop_plan (*plan)();
  std::uint64_t (*digest)(std::uint64_t);
};

constexpr workload_entry workloads[] = {
    {"swm_f64_large", "cell-steps", swm_large_plan, digest_swm_large},
    {"ensemble_mixed", "member-steps", ensemble_mixed_plan,
     digest_ensemble_mixed},
    {"des_fig3", "simulated messages", des_fig3_plan, digest_des_fig3},
};

const workload_entry* find_workload(const std::string& name) {
  for (const auto& w : workloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

void put_string(std::ostringstream& o, const std::string& s) {
  o << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') o << '\\';
    o << (c == '\n' ? ' ' : c);
  }
  o << '"';
}

void put_array(std::ostringstream& o, const std::vector<double>& v) {
  o << '[';
  for (std::size_t i = 0; i < v.size(); ++i) o << (i ? "," : "") << v[i];
  o << ']';
}

std::string to_json(const workload_entry& w, const run_result& r,
                    const tracer& tr) {
  std::ostringstream o;
  o.precision(17);
  o << "{\"workload\":";
  put_string(o, w.name);
  o << ",\"work_unit\":";
  put_string(o, w.work_unit);
  o << ",\"setup_s\":";
  put_array(o, r.setup_s);
  o << ",\"op_s\":";
  put_array(o, r.op_s);
  o << ",\"traced_op_s\":";
  put_array(o, r.traced_op_s);
  o << ",\"work\":" << r.work << ",\"attempted\":" << r.attempted
    << ",\"failed\":" << r.failed << ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    if (i) o << ',';
    put_string(o, r.failures[i]);
  }
  // Per span name: every duration, and the part of each that directly
  // nested spans cover (run.py derives self time and the span table).
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      spans;
  for (const tracer::span& s : tr.spans()) {
    auto& [dur, covered] = spans[s.name];
    dur.push_back(s.t1 - s.t0);
    covered.push_back(s.child_s);
  }
  o << "],\"peak_rss_mib\":" << peak_rss_mib() << ",\"spans\":{";
  bool first = true;
  for (const auto& [name, samples] : spans) {
    o << (first ? "" : ",");
    put_string(o, name);
    o << ":{\"dur\":";
    put_array(o, samples.first);
    o << ",\"covered\":";
    put_array(o, samples.second);
    o << '}';
    first = false;
  }
  o << "},\"values\":{";
  first = true;
  for (const auto& [name, v] : tr.values()) {
    o << (first ? "" : ",");
    put_string(o, name);
    o << ':';
    put_array(o, v);
    first = false;
  }
  o << "}}";
  return o.str();
}

int usage() {
  std::fputs(
      "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
      "[--chrome PATH]\n       perfbench --digest NAME --seed N\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its default. Left dynamic, it rises
  // after the first episode frees its large arrays, so later episodes
  // get heap-placed arrays at other alignments than a fresh process's
  // page-aligned ones - which moved a 512x256 step by up to 40%.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  std::string workload;
  std::string digest;
  std::string chrome;
  run_config cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--digest") {
      digest = val;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      cfg.trace = std::strcmp(val, "1") == 0;
    } else if (key == "--chrome") {
      chrome = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0) return usage();

  if (!digest.empty()) {
    const workload_entry* w = find_workload(digest);
    if (w == nullptr) return usage();
    std::printf("%016" PRIx64 "\n", w->digest(cfg.seed));
    return 0;
  }
  const workload_entry* w = find_workload(workload);
  if (w == nullptr || !(cfg.seconds > 0)) return usage();

  try {
    tracer tr(cfg.trace);
    if (cfg.trace) {
      // The probes share the run's time budget with the workload loop.
      const double t0 = now_s();
      probe_layers(tr);
      cfg.seconds = std::max(1.0, cfg.seconds - (now_s() - t0));
    }
    const run_result res = closed_loop(cfg, tr, w->plan());
    if (!chrome.empty() && !tr.write_chrome(chrome)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", chrome.c_str());
      return 1;
    }
    std::puts(to_json(*w, res, tr).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
