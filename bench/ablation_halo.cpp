// Ablation: what halo aggregation and compute overlap buy.
//
// The distributed shallow-water model runs the same physics under its
// two halo engines (swm/halo.hpp): the legacy per-field exchange (7
// blocking exchanges per RHS evaluation) and the aggregated engine
// (one packed message per neighbour per phase - 56 sends per rank per
// step become 16) with interior compute overlapped under the
// exchange. Two quantities are priced per configuration on the
// simulated TofuD fabric:
//
//   halo_s  - virtual halo time per step (no modeled compute: the step
//             loop's clock is pure communication). The paper's § III-A
//             per-message overhead makes aggregation a >= 2x win at
//             small grids, where alpha dominates the wire time.
//   vstep_s - virtual time per step with each rank charging its slab's
//             modeled A64FX Float64 compute (predict_step / 4 per RHS
//             evaluation). Only here can overlap show up: the interior
//             share of each evaluation runs while the payloads fly.
//
// All numbers are deterministic virtual time - bit-reproducible on any
// host. BENCH_halo.json carries the machine-readable rows; the
// perfmodel's alpha-beta prediction (predict_halo) is included for
// comparison against the simulated halo_s.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/table.hpp"
#include "core/units.hpp"
#include "mpisim/runtime.hpp"
#include "swm/distributed.hpp"
#include "swm/model.hpp"
#include "swm/perfmodel.hpp"

using namespace tfx;
using namespace tfx::swm;

namespace {

struct row {
  int nx = 0, ny = 0, ranks = 0;
  const char* mode = "";
  double halo_s = 0;       ///< virtual halo time per step (no compute)
  double vstep_s = 0;      ///< virtual time per step with modeled compute
  std::uint64_t msgs = 0;  ///< sends per rank per step
  std::uint64_t bytes = 0; ///< payload bytes per rank per step
  double predicted_s = 0;  ///< alpha-beta halo prediction per step
  double speedup = 0;      ///< per-field halo_s / this mode's halo_s
};

const char* mode_name(halo_mode m) {
  switch (m) {
    case halo_mode::per_field: return "per_field";
    case halo_mode::aggregated_overlap: return "agg+overlap";
  }
  return "?";
}

/// Max virtual clock per step of a `steps`-step run under `mode`,
/// charging `rhs_seconds` of modeled compute per RHS evaluation.
double vtime_per_step(int nx, int ny, int ranks, halo_mode mode,
                      double rhs_seconds, int steps) {
  swm_params p;
  p.nx = nx;
  p.ny = ny;
  mpisim::world w(ranks);
  w.run([&](mpisim::communicator& comm) {
    distributed_model<double> dm(comm, p);
    dm.set_halo_mode(mode);
    dm.set_modeled_rhs_seconds(rhs_seconds);
    model<double> seeder(p);
    seeder.seed_random_eddies(3, 0.4);
    dm.set_from_global(seeder.prognostic());
    dm.run(steps);
  });
  double max_clock = 0;
  for (const double c : w.final_clocks()) max_clock = std::max(max_clock, c);
  return max_clock / steps;
}

void write_json(const std::string& path, int steps,
                const std::vector<row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"ablation_halo\",\n");
  std::fprintf(f, "  \"steps\": %d,\n  \"rows\": [\n", steps);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(
        f,
        "    {\"nx\": %d, \"ny\": %d, \"ranks\": %d, \"mode\": \"%s\", "
        "\"halo_s\": %.6e, \"vstep_s\": %.6e, \"msgs\": %llu, "
        "\"bytes\": %llu, \"predicted_s\": %.6e, "
        "\"speedup_vs_per_field\": %.4f}%s\n",
        r.nx, r.ny, r.ranks, r.mode, r.halo_s, r.vstep_s,
        static_cast<unsigned long long>(r.msgs),
        static_cast<unsigned long long>(r.bytes), r.predicted_s, r.speedup,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::printf("\nWrote %s\n", path.c_str());
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  cli args(argc, argv,
           {{"steps", "RK4 steps per configuration (default 5)"},
            {"json", "output path (default BENCH_halo.json)"}});
  if (args.wants_help()) {
    std::fputs(args.help().c_str(), stderr);
    return 1;
  }
  const int steps = static_cast<int>(args.get_int("steps", 5));
  const std::string json = args.get_string("json", "BENCH_halo.json");

  std::puts("Ablation: halo aggregation and compute/communication overlap.");
  std::puts("Same physics, two halo engines; virtual time on the modeled");
  std::puts("TofuD fabric (deterministic, bit-reproducible).\n");

  constexpr halo_mode modes[] = {halo_mode::per_field,
                                 halo_mode::aggregated_overlap};

  std::vector<row> rows;
  table t({"grid", "ranks", "mode", "halo/step", "speedup", "vstep",
           "msgs/step", "predicted"});
  for (const int nx : {32, 128, 512}) {
    const int ny = nx / 2;
    for (const int ranks : {2, 4, 8}) {
      const double compute_per_eval =
          predict_step(arch::fugaku_node, nx, ny / ranks, config_float64())
              .seconds /
          4.0;
      double base_halo = 0;
      for (const halo_mode mode : modes) {
        row r;
        r.nx = nx;
        r.ny = ny;
        r.ranks = ranks;
        r.mode = mode_name(mode);
        r.halo_s = vtime_per_step(nx, ny, ranks, mode, 0.0, steps);
        r.vstep_s =
            vtime_per_step(nx, ny, ranks, mode, compute_per_eval, steps);
        mpisim::world probe(ranks);
        const halo_cost pred =
            predict_halo(probe.net(), nx, sizeof(double), ranks, mode);
        r.msgs = pred.messages;
        r.bytes = pred.bytes;
        r.predicted_s = pred.seconds;
        if (mode == halo_mode::per_field) base_halo = r.halo_s;
        r.speedup = base_halo / r.halo_s;
        t.add_row({std::to_string(nx) + "x" + std::to_string(ny),
                   std::to_string(ranks), r.mode, format_seconds(r.halo_s),
                   format_fixed(r.speedup, 2), format_seconds(r.vstep_s),
                   std::to_string(r.msgs), format_seconds(r.predicted_s)});
        rows.push_back(r);
      }
    }
  }
  t.print(std::cout);

  std::puts("\nAggregation pays off most at small grids, where per-message");
  std::puts("overhead dominates the wire time (paper Figs. 2-3); overlap");
  std::puts("additionally hides the interior compute share under the");
  std::puts("exchange, visible in vstep once real compute is charged.");
  write_json(json, steps, rows);
  return 0;
}
