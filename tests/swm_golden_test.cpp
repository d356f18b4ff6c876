// Golden trajectory pins for the shallow-water RHS: FNV-1a hashes of
// the prognostic and Kahan compensation bits after a fixed number of
// steps, across precisions, boundary conditions, the periodic-wrap
// edge cases (nx = 1, 2 and odd nx), pool sizes and the distributed
// model in every halo mode. Every Float16 case also pins the exact
// fp event counters (subnormal, flushed, overflow and NaN results) of
// the whole run, in both FTZ modes.
//
// The other bit-identity suites compare one RHS implementation with
// itself (fused vs unfused, serial vs distributed, pool sizes); these
// hashes pin the *rounding* of every element against a fixed record,
// so any change in operand order, contraction or neighbour choice
// shows up here.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ios>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/threadpool.hpp"
#include "fp/bfloat16.hpp"
#include "fp/float16.hpp"
#include "fp/fpenv.hpp"
#include "mpisim/runtime.hpp"
#include "swm/distributed.hpp"
#include "swm/model.hpp"

using namespace tfx;
using namespace tfx::swm;
using tfx::fp::bfloat16;
using tfx::fp::float16;

namespace {

constexpr int steps = 20;

/// An nx x ny grid of square cells (the RHS requires dx == dy).
swm_params grid(int nx, int ny, boundary bc = boundary::periodic,
                int log2_scale = 0) {
  swm_params p;
  p.nx = nx;
  p.ny = ny;
  p.Ly = 2000e3;
  p.Lx = p.Ly / ny * nx;
  p.bc = bc;
  p.log2_scale = log2_scale;
  return p;
}

/// FNV-1a over the object bytes of every element, u, v, eta in order.
template <typename T>
void fnv1a(std::uint64_t& h, const state<T>& s) {
  for (const field2d<T>* f : {&s.u, &s.v, &s.eta}) {
    for (const T& x : f->flat()) {
      unsigned char bytes[sizeof(T)];
      std::memcpy(bytes, &x, sizeof(T));
      for (unsigned char b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
      }
    }
  }
}

template <typename T>
std::uint64_t hash_of(const state<T>& prog, const state<T>& comp) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  fnv1a(h, prog);
  fnv1a(h, comp);
  return h;
}

std::string hex(std::uint64_t h) {
  std::ostringstream os;
  os << "0x" << std::hex << h;
  return os.str();
}

/// The calling thread's fp event counters, as one comparable string.
std::string events(const fp::fp_counters& c) {
  std::ostringstream os;
  os << "subnormal=" << c.f16_subnormal_results
     << " flushed=" << c.f16_flushed_results
     << " overflow=" << c.f16_overflows << " nan=" << c.f16_nans;
  return os.str();
}

/// Serial model from the standard seed; `threads` > 0 attaches a pool.
/// The calling thread's counters are reset first, so after a serial
/// run they hold the run's events.
template <typename T, typename Tprog = T>
std::uint64_t serial_hash(const swm_params& p, integration_scheme scheme,
                          int threads = 0) {
  fp::counters().reset();
  model<T, Tprog> m(p, scheme);
  thread_pool pool(threads > 0 ? threads : 1);
  if (threads > 0) m.attach_pool(&pool);
  m.seed_random_eddies(7, 0.5);
  m.run(steps);
  return hash_of(m.prognostic(), m.compensation());
}

/// Distributed model over `ranks` in `mode`; each rank copies its
/// prognostic and compensation slabs into the global layout, so the
/// hash is directly comparable with the serial one.
std::uint64_t distributed_hash(const swm_params& p, int ranks,
                               halo_mode mode) {
  model<double> seed(p);
  seed.seed_random_eddies(7, 0.5);
  const state<double> init = seed.prognostic();
  state<double> prog(p.nx, p.ny), comp(p.nx, p.ny);
  mpisim::world w(ranks);
  w.run([&](mpisim::communicator& comm) {
    distributed_model<double> dm(comm, p, integration_scheme::compensated);
    dm.set_halo_mode(mode);
    dm.set_from_global(init);
    dm.run(steps);
    const auto& ps = dm.prognostic_slabs();
    const auto& cs = dm.compensation_slabs();
    for (int j = 0; j < dm.local_ny(); ++j) {
      const int gj = dm.global_j0() + j;
      for (int i = 0; i < p.nx; ++i) {
        prog.u(i, gj) = ps.u(i, j);
        prog.v(i, gj) = ps.v(i, j);
        prog.eta(i, gj) = ps.eta(i, j);
        comp.u(i, gj) = cs.u(i, j);
        comp.v(i, gj) = cs.v(i, j);
        comp.eta(i, gj) = cs.eta(i, j);
      }
    }
  });
  return hash_of(prog, comp);
}

// Recorded before the row-kernel RHS replaced the indexed loops.
constexpr std::uint64_t f64_periodic = 0x6db65ee73f58eec1ull;
constexpr std::uint64_t f64_channel = 0x51fac56f1d7881b5ull;
constexpr std::uint64_t f64_compensated_odd_nx = 0xe5dfeec13ae80128ull;
constexpr std::uint64_t f64_nx1 = 0xc169bcb856f81050ull;
constexpr std::uint64_t f64_nx2 = 0x74d5cf2d3a829246ull;
constexpr std::uint64_t f32_periodic = 0x072c1a1d9ace9154ull;
constexpr std::uint64_t f32_channel = 0xb4be229f8839ddffull;
constexpr std::uint64_t f16_compensated_periodic = 0x9bfbf521b9909b6bull;
constexpr std::uint64_t f16_compensated_channel = 0x0e1577e29a41e0bfull;
constexpr std::uint64_t bf16_compensated = 0xe161d48a687edf13ull;
constexpr std::uint64_t mixed_f16_f32 = 0xae6818f78a32da88ull;
constexpr std::uint64_t f64_compensated = 0xd93db75bc944bf97ull;

// Recorded before the soft-float lane kernels replaced the scalar
// Float16/BFloat16 loops.
constexpr std::uint64_t f16_preserve = 0xecf5eae219cb432bull;
constexpr std::uint64_t f16_nx9 = 0x5c0b934f61a72c87ull;
constexpr std::uint64_t f16_nx33 = 0x5d73f58e50792e0aull;
constexpr std::uint64_t bf16_nx9 = 0x479c06fe441d4cb0ull;
constexpr std::uint64_t bf16_nx33 = 0x803e0d479e03fc42ull;
constexpr const char* f16_periodic_events =
    "subnormal=368 flushed=368 overflow=0 nan=0";
constexpr const char* f16_channel_events =
    "subnormal=329 flushed=329 overflow=0 nan=0";
constexpr const char* mixed_events =
    "subnormal=375 flushed=375 overflow=0 nan=0";
constexpr const char* f16_preserve_events =
    "subnormal=415 flushed=0 overflow=0 nan=0";
constexpr const char* f16_nx9_events =
    "subnormal=116 flushed=116 overflow=0 nan=0";
constexpr const char* f16_nx33_events =
    "subnormal=363 flushed=363 overflow=0 nan=0";

}  // namespace

TEST(SwmGolden, Float64Periodic) {
  EXPECT_EQ(hex(serial_hash<double>(grid(32, 16),
                                    integration_scheme::standard)),
            hex(f64_periodic));
}

TEST(SwmGolden, Float64Channel) {
  EXPECT_EQ(hex(serial_hash<double>(grid(32, 16, boundary::channel),
                                    integration_scheme::standard)),
            hex(f64_channel));
}

TEST(SwmGolden, Float64CompensatedOddNx) {
  EXPECT_EQ(hex(serial_hash<double>(grid(33, 16),
                                    integration_scheme::compensated)),
            hex(f64_compensated_odd_nx));
}

TEST(SwmGolden, Float64SingleColumn) {
  EXPECT_EQ(hex(serial_hash<double>(grid(1, 16),
                                    integration_scheme::standard)),
            hex(f64_nx1));
}

TEST(SwmGolden, Float64TwoColumns) {
  EXPECT_EQ(hex(serial_hash<double>(grid(2, 16),
                                    integration_scheme::standard)),
            hex(f64_nx2));
}

TEST(SwmGolden, Float32Periodic) {
  EXPECT_EQ(hex(serial_hash<float>(grid(32, 16),
                                   integration_scheme::standard)),
            hex(f32_periodic));
}

TEST(SwmGolden, Float32Channel) {
  EXPECT_EQ(hex(serial_hash<float>(grid(32, 16, boundary::channel),
                                   integration_scheme::standard)),
            hex(f32_channel));
}

TEST(SwmGolden, Float16CompensatedPeriodic) {
  const fp::ftz_guard ftz(fp::ftz_mode::flush);
  EXPECT_EQ(hex(serial_hash<float16>(grid(32, 16, boundary::periodic, 11),
                                     integration_scheme::compensated)),
            hex(f16_compensated_periodic));
  EXPECT_EQ(events(fp::counters()), f16_periodic_events);
}

TEST(SwmGolden, Float16CompensatedChannel) {
  const fp::ftz_guard ftz(fp::ftz_mode::flush);
  EXPECT_EQ(hex(serial_hash<float16>(grid(32, 16, boundary::channel, 11),
                                     integration_scheme::compensated)),
            hex(f16_compensated_channel));
  EXPECT_EQ(events(fp::counters()), f16_channel_events);
}

TEST(SwmGolden, BFloat16Compensated) {
  EXPECT_EQ(hex(serial_hash<bfloat16>(grid(32, 16),
                                      integration_scheme::compensated)),
            hex(bf16_compensated));
}

TEST(SwmGolden, MixedFloat16Float32) {
  const fp::ftz_guard ftz(fp::ftz_mode::flush);
  EXPECT_EQ(hex(serial_hash<float16, float>(
                grid(32, 16, boundary::periodic, 11),
                integration_scheme::standard)),
            hex(mixed_f16_f32));
  EXPECT_EQ(events(fp::counters()), mixed_events);
}

// Gradual underflow: subnormal results are counted and kept.
TEST(SwmGolden, Float16CompensatedPreserve) {
  const fp::ftz_guard ftz(fp::ftz_mode::preserve);
  EXPECT_EQ(hex(serial_hash<float16>(grid(32, 16, boundary::periodic, 11),
                                     integration_scheme::compensated)),
            hex(f16_preserve));
  EXPECT_EQ(events(fp::counters()), f16_preserve_events);
}

// Odd widths: the wrap columns plus an interior that is not a whole
// number of vector blocks.
TEST(SwmGolden, Float16CompensatedNx9) {
  const fp::ftz_guard ftz(fp::ftz_mode::flush);
  EXPECT_EQ(hex(serial_hash<float16>(grid(9, 16, boundary::periodic, 11),
                                     integration_scheme::compensated)),
            hex(f16_nx9));
  EXPECT_EQ(events(fp::counters()), f16_nx9_events);
}

TEST(SwmGolden, Float16CompensatedNx33) {
  const fp::ftz_guard ftz(fp::ftz_mode::flush);
  EXPECT_EQ(hex(serial_hash<float16>(grid(33, 16, boundary::periodic, 11),
                                     integration_scheme::compensated)),
            hex(f16_nx33));
  EXPECT_EQ(events(fp::counters()), f16_nx33_events);
}

TEST(SwmGolden, BFloat16CompensatedNx9) {
  EXPECT_EQ(hex(serial_hash<bfloat16>(grid(9, 16),
                                      integration_scheme::compensated)),
            hex(bf16_nx9));
}

TEST(SwmGolden, BFloat16CompensatedNx33) {
  EXPECT_EQ(hex(serial_hash<bfloat16>(grid(33, 16),
                                      integration_scheme::compensated)),
            hex(bf16_nx33));
}

TEST(SwmGolden, Float64PoolOfFourPeriodic) {
  EXPECT_EQ(hex(serial_hash<double>(grid(32, 16),
                                    integration_scheme::standard, 4)),
            hex(f64_periodic));
}

TEST(SwmGolden, Float64PoolOfFourChannel) {
  EXPECT_EQ(hex(serial_hash<double>(grid(32, 16, boundary::channel),
                                    integration_scheme::standard, 4)),
            hex(f64_channel));
}

TEST(SwmGolden, Float64CompensatedSerialReference) {
  EXPECT_EQ(hex(serial_hash<double>(grid(32, 16),
                                    integration_scheme::compensated)),
            hex(f64_compensated));
}

class SwmGoldenDistributed
    : public ::testing::TestWithParam<std::tuple<int, halo_mode>> {};

TEST_P(SwmGoldenDistributed, MatchesSerialCompensatedHash) {
  const auto [ranks, mode] = GetParam();
  EXPECT_EQ(hex(distributed_hash(grid(32, 16), ranks, mode)),
            hex(f64_compensated));
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndModes, SwmGoldenDistributed,
    ::testing::Combine(::testing::Values(2, 4),
                       ::testing::Values(halo_mode::per_field,
                                         halo_mode::aggregated,
                                         halo_mode::aggregated_overlap)),
    [](const ::testing::TestParamInfo<std::tuple<int, halo_mode>>& param) {
      const halo_mode mode = std::get<1>(param.param);
      return std::to_string(std::get<0>(param.param)) + "ranks_" +
             (mode == halo_mode::per_field    ? "per_field"
              : mode == halo_mode::aggregated ? "aggregated"
                                              : "aggregated_overlap");
    });
