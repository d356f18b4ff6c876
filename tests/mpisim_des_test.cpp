// The discrete-event engine must reproduce the threaded runtime's
// virtual clocks exactly: same algorithms, same clock rules. This is
// the test that licenses running Fig. 3 at 1536 ranks without threads.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "mpisim/collectives.hpp"
#include "mpisim/des.hpp"
#include "mpisim/patterns.hpp"
#include "mpisim/runtime.hpp"

using namespace tfx::mpisim;

namespace {

/// Run a collective on the threaded runtime and return final clocks.
template <typename Fn>
std::vector<double> threaded_clocks(int p, Fn&& fn) {
  world w(p);
  w.run(fn);
  return w.final_clocks();
}

void expect_clocks_equal(const std::vector<double>& a,
                         const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-15 + 1e-9 * a[i]) << "rank " << i;
  }
}

}  // namespace

class DesAgreement : public ::testing::TestWithParam<int> {};

TEST_P(DesAgreement, Barrier) {
  const int p = GetParam();
  const auto real = threaded_clocks(p, [](communicator& c) { barrier(c); });
  const tofud_params net;
  const auto place = torus_placement::line(p);
  const auto des = simulate(make_barrier_program(p), net, place);
  expect_clocks_equal(real, des.clocks);
}

TEST_P(DesAgreement, Bcast) {
  const int p = GetParam();
  const std::size_t count = 300;
  const auto real = threaded_clocks(p, [&](communicator& c) {
    std::vector<double> data(count, c.rank() == 0 ? 1.0 : 0.0);
    bcast(c, std::span<double>(data), 0);
  });
  const tofud_params net;
  const auto des = simulate(make_bcast_program(p, count, sizeof(double), 0),
                            net, torus_placement::line(p));
  expect_clocks_equal(real, des.clocks);
}

TEST_P(DesAgreement, Reduce) {
  const int p = GetParam();
  const std::size_t count = 123;
  const auto real = threaded_clocks(p, [&](communicator& c) {
    std::vector<double> in(count, 1.0), out(count);
    reduce(c, std::span<const double>(in), std::span<double>(out),
           ops::sum{}, 0);
  });
  const tofud_params net;
  const auto des =
      simulate(make_reduce_program(net, p, count, sizeof(double), 0), net,
               torus_placement::line(p));
  expect_clocks_equal(real, des.clocks);
}

TEST_P(DesAgreement, AllreduceRecursiveDoubling) {
  const int p = GetParam();
  const std::size_t count = 64;
  const auto real = threaded_clocks(p, [&](communicator& c) {
    std::vector<double> in(count, 1.0), out(count);
    allreduce(c, std::span<const double>(in), std::span<double>(out),
              ops::sum{}, coll_algorithm::recursive_doubling);
  });
  const tofud_params net;
  const auto des = simulate(
      make_allreduce_program(net, p, count, sizeof(double),
                             coll_algorithm::recursive_doubling),
      net, torus_placement::line(p));
  expect_clocks_equal(real, des.clocks);
}

TEST_P(DesAgreement, AllreduceRing) {
  const int p = GetParam();
  if (p == 1) GTEST_SKIP();
  const std::size_t count = 1000;
  const auto real = threaded_clocks(p, [&](communicator& c) {
    std::vector<double> in(count, 1.0), out(count);
    allreduce(c, std::span<const double>(in), std::span<double>(out),
              ops::sum{}, coll_algorithm::ring);
  });
  const tofud_params net;
  const auto des =
      simulate(make_allreduce_program(net, p, count, sizeof(double),
                                      coll_algorithm::ring),
               net, torus_placement::line(p));
  expect_clocks_equal(real, des.clocks);
}

TEST_P(DesAgreement, AllreduceRabenseifner) {
  const int p = GetParam();
  if (p == 1) GTEST_SKIP();
  const std::size_t count = 640;
  const auto real = threaded_clocks(p, [&](communicator& c) {
    std::vector<double> in(count, 1.0), out(count);
    allreduce(c, std::span<const double>(in), std::span<double>(out),
              ops::sum{}, coll_algorithm::rabenseifner);
  });
  const tofud_params net;
  const auto des =
      simulate(make_allreduce_program(net, p, count, sizeof(double),
                                      coll_algorithm::rabenseifner),
               net, torus_placement::line(p));
  expect_clocks_equal(real, des.clocks);
}

TEST_P(DesAgreement, Gatherv) {
  const int p = GetParam();
  const std::size_t count = 50;
  const auto real = threaded_clocks(p, [&](communicator& c) {
    std::vector<std::size_t> counts(static_cast<std::size_t>(p), count);
    std::vector<double> in(count, 1.0);
    std::vector<double> out(count * static_cast<std::size_t>(p));
    gatherv(c, std::span<const double>(in),
            std::span<const std::size_t>(counts), std::span<double>(out), 0);
  });
  const tofud_params net;
  const auto des =
      simulate(make_gatherv_program(p, count, sizeof(double), 0), net,
               torus_placement::line(p));
  expect_clocks_equal(real, des.clocks);
}

TEST_P(DesAgreement, Allgather) {
  const int p = GetParam();
  const std::size_t count = 80;
  const auto real = threaded_clocks(p, [&](communicator& c) {
    std::vector<double> in(count, 1.0);
    std::vector<double> out(count * static_cast<std::size_t>(p));
    allgather(c, std::span<const double>(in), std::span<double>(out));
  });
  const tofud_params net;
  const auto des = simulate(make_allgather_program(p, count, sizeof(double)),
                            net, torus_placement::line(p));
  expect_clocks_equal(real, des.clocks);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DesAgreement,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 9, 16));

TEST(Des, StartClocksSeedTheSimulation) {
  const tofud_params net;
  const int p = 4;
  const auto place = torus_placement::line(p);
  const auto prog = make_barrier_program(p);
  const auto cold = simulate(prog, net, place);
  std::vector<double> seed(static_cast<std::size_t>(p), 1.0);
  const auto warm = simulate(prog, net, place, seed);
  for (int r = 0; r < p; ++r) {
    EXPECT_NEAR(warm.clocks[static_cast<std::size_t>(r)],
                cold.clocks[static_cast<std::size_t>(r)] + 1.0, 1e-12);
  }
}

TEST(Des, ScalesToFig3RankCount) {
  // 1536 ranks on the 4x6x16 torus: must run in milliseconds of host
  // time and produce sane, size-monotone latencies.
  const tofud_params net;
  const torus_placement place({4, 6, 16}, 4);
  const int p = place.rank_count();
  ASSERT_EQ(p, 1536);

  double prev = 0;
  for (const std::size_t count : {1u, 256u, 65536u}) {
    const auto prog = make_allreduce_program(
        net, p, count, 4, coll_algorithm::recursive_doubling);
    const auto res = simulate(prog, net, place);
    EXPECT_GT(res.max_clock(), prev);
    prev = res.max_clock();
  }
  // Small allreduce at 1536 ranks: ~11 rounds x ~(1 us): order 10 us.
  const auto small = simulate(
      make_allreduce_program(net, p, 1, 4,
                             coll_algorithm::recursive_doubling),
      net, place);
  EXPECT_GT(small.max_clock(), 5e-6);
  EXPECT_LT(small.max_clock(), 100e-6);
}

TEST(Des, ResultStatistics) {
  const tofud_params net;
  const auto place = torus_placement::line(2);
  const auto res = simulate(make_barrier_program(2), net, place);
  EXPECT_LE(res.min_clock(), res.avg_clock());
  EXPECT_LE(res.avg_clock(), res.max_clock());
}

// ---------------------------------------------------------------------------
// Program structure: FNV-1a over every rank's (kind, peer, bytes, bit
// pattern of seconds), per generator family, over a grid of rank
// counts, roots, counts, element sizes and algorithms. Clock hashes
// alone can miss a reordered zero-cost op; these pins cannot.
// ---------------------------------------------------------------------------

namespace {

struct program_hash {
  std::uint64_t h = 1469598103934665603ull;

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void add(const sim_program& prog) {
    mix(static_cast<std::uint64_t>(prog.size()));
    for (const auto& ops : prog.ranks) {
      mix(ops.size());
      for (const sim_op& op : ops) {
        std::uint64_t seconds;
        std::memcpy(&seconds, &op.seconds, 8);
        mix(static_cast<std::uint64_t>(op.what));
        mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(op.peer)));
        mix(op.bytes);
        mix(seconds);
      }
    }
  }
};

constexpr int golden_ranks[] = {1, 2, 3, 5, 6, 8, 13, 16};
constexpr std::size_t golden_counts[] = {1, 7, 300, 65536};
constexpr std::size_t golden_elem_bytes[] = {1, 4, 8};
constexpr coll_algorithm golden_algos[] = {
    coll_algorithm::recursive_doubling, coll_algorithm::ring,
    coll_algorithm::rabenseifner, coll_algorithm::automatic};

/// Call fn(p, root, count, elem_bytes) over the whole grid.
template <typename Fn>
void for_each_rooted(Fn&& fn) {
  for (const int p : golden_ranks) {
    for (const int root : {0, p - 1}) {
      for (const std::size_t count : golden_counts) {
        for (const std::size_t eb : golden_elem_bytes) fn(p, root, count, eb);
      }
    }
  }
}

}  // namespace

TEST(ProgramGolden, GeneratorsMatchPinnedStructure) {
  const tofud_params net;
  program_hash barrier_h, bcast_h, reduce_h, gatherv_h, allgather_h,
      allreduce_h, hier_h;

  for (const int p : golden_ranks) barrier_h.add(make_barrier_program(p));
  for_each_rooted([&](int p, int root, std::size_t count, std::size_t eb) {
    bcast_h.add(make_bcast_program(p, count, eb, root));
    reduce_h.add(make_reduce_program(net, p, count, eb, root));
    gatherv_h.add(make_gatherv_program(p, count, eb, root));
    if (root == 0) {
      allgather_h.add(make_allgather_program(p, count, eb));
      for (const auto algo : golden_algos) {
        allreduce_h.add(make_allreduce_program(net, p, count, eb, algo));
      }
    }
  });
  for (const auto& place :
       {torus_placement({4, 6, 16}, 4), torus_placement::line(2, 4),
        torus_placement::line(2, 3)}) {
    for (const std::size_t count : golden_counts) {
      for (const std::size_t eb : golden_elem_bytes) {
        for (const auto algo : golden_algos) {
          hier_h.add(
              make_hierarchical_allreduce_program(net, place, count, eb, algo));
        }
      }
    }
  }

  EXPECT_EQ(barrier_h.h, 0xcd205bdab2fe66deull) << "barrier";
  EXPECT_EQ(bcast_h.h, 0x0677a9fb06f5ca6bull) << "bcast";
  EXPECT_EQ(reduce_h.h, 0x14b2e22587c4ac13ull) << "reduce";
  EXPECT_EQ(gatherv_h.h, 0x6a90355c0e3e5f93ull) << "gatherv";
  EXPECT_EQ(allgather_h.h, 0x0c84aca1bf03d09bull) << "allgather";
  EXPECT_EQ(allreduce_h.h, 0x8fd6c9670992be6full) << "allreduce";
  EXPECT_EQ(hier_h.h, 0xe5d99fa879e3916full) << "hierarchical allreduce";
}

TEST(ProgramGolden, UnsupportedElementSizeIsAPreconditionError) {
  // Programs run the templates on opaque elements of exactly
  // elem_bytes bytes; only the sizes in use (1, 2, 4, 8) exist.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(make_bcast_program(4, 8, 3, 0), "precondition");
  EXPECT_DEATH(make_allreduce_program(tofud_params{}, 4, 8, 16,
                                      coll_algorithm::automatic),
               "precondition");
}

// ---------------------------------------------------------------------------
// Channel table: a recv names a (peer, self) channel that the peer's
// sends may never touch, one sender may fan out to every rank, and the
// fault plane's cascade must still find a starved receiver.
// ---------------------------------------------------------------------------

namespace {

std::uint64_t clock_hash(const std::vector<double>& clocks) {
  program_hash h;
  for (const double c : clocks) {
    std::uint64_t bits;
    std::memcpy(&bits, &c, 8);
    h.mix(bits);
  }
  return h.h;
}

}  // namespace

TEST(DesChannels, RecvFromSilentPeerDeadlocks) {
  // Rank 2 only ever sends to rank 1, so rank 0's recv from 2 can never
  // be served: a malformed program aborts instead of spinning.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim_program prog(3);
  prog.rank(0).push_back(sim_op::recv_from(2, 8));
  prog.rank(1).push_back(sim_op::recv_from(2, 8));
  prog.rank(2).push_back(sim_op::send_to(1, 8));
  EXPECT_DEATH(simulate(prog, tofud_params{}, torus_placement::line(3)),
               "deadlocked");
}

TEST(DesChannels, StarvedOnSilentCrashedPeerCascades) {
  // Rank 1 crashes before its only send (to 2). Rank 2 waits on that
  // send; rank 0 waits on a channel rank 1 never sends on at all. The
  // cascade halts both, and rank 3, which talks only to rank 2, too.
  const int p = 4;
  sim_program prog(p);
  prog.rank(0).push_back(sim_op::compute_for(1e-6));
  prog.rank(0).push_back(sim_op::recv_from(1, 16));
  prog.rank(1).push_back(sim_op::send_to(2, 16));
  prog.rank(2).push_back(sim_op::recv_from(1, 16));
  prog.rank(2).push_back(sim_op::send_to(3, 16));
  prog.rank(3).push_back(sim_op::recv_from(2, 16));
  const tofud_params net;
  const torus_placement place = torus_placement::line(p);
  fault_config cfg;
  cfg.crashes.push_back({1, 0});
  const fault_plane plane(cfg);

  const auto des = simulate(prog, net, place, {}, &plane);
  EXPECT_EQ(des.crashed, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(des.clocks[0], 1e-6);
  EXPECT_EQ(des.stats.sends, 0u);
}

TEST(DesChannels, WideFanOutRowAt1536Ranks) {
  // Rank 0 sends to every other rank (one row of 1535 channels) and
  // collects the replies in reverse rank order; every other rank talks
  // to rank 0 alone. The clock hashes pin both fabric modes.
  const tofud_params net;
  const torus_placement place({4, 6, 16}, 4);
  const int p = place.rank_count();
  ASSERT_EQ(p, 1536);
  sim_program prog(p);
  for (int d = 1; d < p; ++d) {
    const std::size_t bytes = 8 * (1 + static_cast<std::size_t>(d % 13));
    prog.rank(0).push_back(sim_op::send_to(d, bytes));
    prog.rank(d).push_back(sim_op::recv_from(0, bytes));
    prog.rank(d).push_back(sim_op::compute_for(1e-7 * (d % 5)));
    prog.rank(d).push_back(sim_op::send_to(0, 8));
  }
  for (int s = p - 1; s >= 1; --s) {
    prog.rank(0).push_back(sim_op::recv_from(s, 8));
  }

  const auto flat = simulate(prog, net, place);
  des_options opts;
  opts.fabric = fabric_mode::contended;
  const auto contended = simulate(prog, net, place, {}, nullptr, opts);
  EXPECT_EQ(clock_hash(flat.clocks), 0x4e897d93d01c31f2ull) << "uncontended";
  EXPECT_EQ(clock_hash(contended.clocks), 0x791f30a53a5657a3ull) << "contended";
  EXPECT_EQ(contended.links.routed_messages, 2u * (p - 4));  // 3 on node 0
  EXPECT_GE(contended.max_clock(), flat.max_clock());
}
