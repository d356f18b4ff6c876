// Oracle tests for the soft-float lanes (fp/lanes.hpp); the
// conversions under them are checked exhaustively in fp_f16c_test.
//
//  * Lane ops and rounds against the scalar float16/bfloat16
//    operators, FTZ flush and event counters included.
//  * Every swm::rhs_row kernel and every lane sweep against the scalar
//    oracle (the kernel's scalar-cursor instantiation; the unfused
//    sweeps), at nx in {1, 2, 3, 8, 9, 17, 64, 65}, in both FTZ modes,
//    with inputs that force subnormal, overflowing and NaN lanes, on
//    one thread and on a 4-worker pool: outputs bit-equal and fp event
//    counter deltas equal.
//
// NaN inputs use a single bit pattern: IEEE 754 leaves open which
// operand's payload an operation with two NaN operands returns, so a
// second pattern would test the compiler's operand order, not the
// lanes.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/threadpool.hpp"
#include "fp/bfloat16.hpp"
#include "fp/float16.hpp"
#include "fp/fpenv.hpp"
#include "fp/lanes.hpp"
#include "fp/rounding.hpp"
#include "swm/rhs.hpp"
#include "swm/sweep.hpp"
#include "swm/timestep.hpp"

using namespace tfx;
using tfx::fp::bfloat16;
using tfx::fp::float16;

#if TFX_FP_LANES

namespace {

// ---------------------------------------------------------------------------
// Lane rounds and ops against the scalar operators
// ---------------------------------------------------------------------------

std::string events(const fp::fp_counters& c) {
  std::ostringstream os;
  os << "subnormal=" << c.f16_subnormal_results
     << " flushed=" << c.f16_flushed_results
     << " overflow=" << c.f16_overflows << " nan=" << c.f16_nans;
  return os.str();
}

fp::fp_counters operator-(const fp::fp_counters& a,
                          const fp::fp_counters& b) {
  fp::fp_counters d;
  d.f16_subnormal_results = a.f16_subnormal_results - b.f16_subnormal_results;
  d.f16_flushed_results = a.f16_flushed_results - b.f16_flushed_results;
  d.f16_overflows = a.f16_overflows - b.f16_overflows;
  d.f16_nans = a.f16_nans - b.f16_nans;
  return d;
}

fp::fp_counters& operator+=(fp::fp_counters& a, const fp::fp_counters& b) {
  a.f16_subnormal_results += b.f16_subnormal_results;
  a.f16_flushed_results += b.f16_flushed_results;
  a.f16_overflows += b.f16_overflows;
  a.f16_nans += b.f16_nans;
  return a;
}

template <typename T>
std::vector<std::uint16_t> bits_of(const std::vector<T>& xs) {
  std::vector<std::uint16_t> out(xs.size());
  std::memcpy(out.data(), xs.data(), xs.size() * sizeof(T));
  return out;
}

const fp::ftz_mode both_modes[] = {fp::ftz_mode::preserve,
                                   fp::ftz_mode::flush};

TEST(Lanes, Float16RoundMatchesScalarConstructor) {
  // A stride through all binary32 patterns plus the binary16 edges:
  // subnormal ties, the overflow threshold 65520, infinities, NaN.
  std::vector<float> xs;
  for (std::uint64_t x = 0; x < (std::uint64_t{1} << 32); x += 65521) {
    xs.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(x)));
  }
  for (float f : {0x1p-25f, 0x1.8p-24f, 0x1p-14f, 0x1.ffcp-15f, 65504.0f,
                  65519.99f, 65520.0f, -65520.0f, 1e30f, -0.0f}) {
    xs.push_back(f);
  }
  xs.resize(xs.size() / 8 * 8);
  for (const fp::ftz_mode mode : both_modes) {
    const fp::ftz_guard ftz(mode);
    std::vector<float16> lane(xs.size()), scalar(xs.size());
    const fp::fp_counters c0 = fp::counters();
    for (std::size_t i = 0; i < xs.size(); i += 8) {
      fp::lanes<float16>::from(fp::lanes<float>::load(&xs[i]))
          .store(&lane[i]);
    }
    const fp::fp_counters c1 = fp::counters();
    for (std::size_t i = 0; i < xs.size(); ++i) scalar[i] = float16(xs[i]);
    const fp::fp_counters c2 = fp::counters();
    EXPECT_EQ(bits_of(lane), bits_of(scalar));
    EXPECT_EQ(events(c1 - c0), events(c2 - c1));
    EXPECT_GT((c2 - c1).f16_subnormal_results, 0u);
    EXPECT_GT((c2 - c1).f16_overflows, 0u);
    EXPECT_GT((c2 - c1).f16_nans, 0u);
  }
}

TEST(Lanes, BFloat16RoundMatchesScalarConstructor) {
  std::vector<float> xs;
  for (std::uint64_t x = 0; x < (std::uint64_t{1} << 32); x += 65521) {
    xs.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(x)));
  }
  xs.resize(xs.size() / 8 * 8);
  std::vector<bfloat16> lane(xs.size()), scalar(xs.size());
  for (std::size_t i = 0; i < xs.size(); i += 8) {
    fp::lanes<bfloat16>::from(fp::lanes<float>::load(&xs[i])).store(&lane[i]);
  }
  for (std::size_t i = 0; i < xs.size(); ++i) scalar[i] = bfloat16(xs[i]);
  EXPECT_EQ(bits_of(lane), bits_of(scalar));
}

/// Every pair of a grid of binary16 operands (normals of all
/// magnitudes, subnormals, +-0, +-inf, one NaN) through + - * and
/// unary minus, lanes against the scalar operators.
TEST(Lanes, Float16OpsMatchScalarOperators) {
  std::vector<std::uint16_t> grid;
  for (std::uint32_t h = 0; h < 0x7c00; h += 97) {
    grid.push_back(static_cast<std::uint16_t>(h));
    grid.push_back(static_cast<std::uint16_t>(h | 0x8000));
  }
  for (const int h : {0x0001, 0x03ff, 0x0400, 0x7bff, 0xfbff, 0x7c00, 0xfc00,
                      0x8000, 0x7e00}) {
    grid.push_back(static_cast<std::uint16_t>(h));
  }
  std::vector<float16> a, b;
  for (std::uint16_t x : grid) {
    for (std::size_t k = 0; k < grid.size(); k += 7) {
      a.push_back(float16::from_bits(x));
      b.push_back(float16::from_bits(grid[k]));
    }
  }
  a.resize(a.size() / 8 * 8);
  b.resize(a.size());
  const std::size_t n = a.size();
  for (const fp::ftz_mode mode : both_modes) {
    const fp::ftz_guard ftz(mode);
    for (int op = 0; op < 4; ++op) {
      auto apply = [op](auto x, auto y) {
        switch (op) {
          case 0: return x + y;
          case 1: return x - y;
          case 2: return x * y;
          default: return -x;
        }
      };
      std::vector<float16> lane(n), scalar(n);
      const fp::fp_counters c0 = fp::counters();
      for (std::size_t i = 0; i < n; i += 8) {
        apply(fp::lanes<float16>::load(&a[i]), fp::lanes<float16>::load(&b[i]))
            .store(&lane[i]);
      }
      const fp::fp_counters c1 = fp::counters();
      for (std::size_t i = 0; i < n; ++i) scalar[i] = apply(a[i], b[i]);
      const fp::fp_counters c2 = fp::counters();
      EXPECT_EQ(bits_of(lane), bits_of(scalar)) << "op " << op;
      EXPECT_EQ(events(c1 - c0), events(c2 - c1)) << "op " << op;
    }
  }
}

// ---------------------------------------------------------------------------
// RHS row kernels and sweeps against the scalar oracle
// ---------------------------------------------------------------------------

const int widths[] = {1, 2, 3, 8, 9, 17, 64, 65};
/// Grid rows of the kernel cases; the sweep cases use 3, so that
/// 3 * nx elements end in a partial lane block.
constexpr int rows = 16;
constexpr int sweep_rows = 3;

/// Rows of T drawn to hit every lane case: ordinary values, tiny ones
/// whose products and differences land in the binary16 subnormal range
/// (and below it, to flush), values near 65504 whose sums overflow,
/// and NaN (one pattern). For bfloat16 the large values sit near its
/// own maximum.
template <typename T>
std::vector<T> hazard_field(int nx, std::uint32_t seed, int ny = rows) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  const double big = std::is_same_v<T, bfloat16> ? 2e38 : 40000.0;
  std::vector<T> f(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny));
  for (auto& x : f) {
    const std::uint32_t kind = rng() % 16;
    const double r = unit(rng);
    if (kind == 0) {
      x = T(r * 1e-4);
    } else if (kind == 1) {
      x = T(r * 3e-7);
    } else if (kind == 2) {
      x = T(r * big);
    } else if (kind == 3 && rng() % 4 == 0) {
      x = std::numeric_limits<T>::quiet_NaN();
    } else {
      x = T(r * 8.0);
    }
  }
  return f;
}

/// Run fn(lo, hi) over [0, n) serially or on `pool`, and
/// return the fp event counter deltas summed over every thread that
/// ran a block. The FTZ mode reaches the workers through
/// swm::ftz_worker_scope, as in the model.
template <typename Fn>
fp::fp_counters run_counted(thread_pool* pool, std::size_t n, const Fn& fn) {
  std::mutex m;
  fp::fp_counters total;
  auto block = [&](std::size_t lo, std::size_t hi) {
    const fp::fp_counters before = fp::counters();
    fn(lo, hi);
    const fp::fp_counters delta = fp::counters() - before;
    const std::scoped_lock lock(m);
    total += delta;
  };
  if (pool == nullptr) {
    block(0, n);
  } else {
    const thread_pool::task t = thread_pool::task::over(n, block);
    swm::ftz_worker_scope scope;
    pool->parallel_region({&t, 1}, &scope);
  }
  return total;
}

/// All five rhs_row kernels over every row of a hazard-seeded grid,
/// lanes (Lanes = true) or the scalar-cursor oracle (false).
template <typename T>
struct rhs_case {
  int nx;
  swm::coefficients<T> c;
  std::vector<swm::row_forcing<T>> forcing;
  std::vector<T> u, v, h, zeta, lap, ke;

  explicit rhs_case(int width) : nx(width) {
    swm::swm_params p;
    p.nx = nx;
    p.ny = rows;
    p.Ly = 2000e3;
    p.Lx = p.Ly / rows * nx;
    p.log2_scale = 11;
    c = swm::coefficients<T>::make(p);
    for (int j = 0; j < rows; ++j) {
      forcing.push_back(swm::row_forcing<T>::at(p, j));
    }
    u = hazard_field<T>(nx, 1);
    v = hazard_field<T>(nx, 2);
    h = hazard_field<T>(nx, 3);
    zeta = hazard_field<T>(nx, 4);
    lap = hazard_field<T>(nx, 5);
    ke = hazard_field<T>(nx, 6);
  }

  const T* row(const std::vector<T>& f, int j) const {
    return &f[static_cast<std::size_t>((j + rows) % rows) *
              static_cast<std::size_t>(nx)];
  }

  /// Outputs of every kernel, and the summed counter deltas.
  template <bool Lanes>
  std::pair<std::vector<T>, fp::fp_counters> run(thread_pool* pool) const {
    const std::size_t cells = static_cast<std::size_t>(nx) * rows;
    std::vector<T> out(7 * cells);
    auto o = [&](std::size_t k, int j) {
      return &out[k * cells + static_cast<std::size_t>(j * nx)];
    };
    const fp::fp_counters events = run_counted(pool, rows, [&](std::size_t lo,
                                                            std::size_t hi) {
      for (int j = static_cast<int>(lo); j < static_cast<int>(hi); ++j) {
        const auto& f = forcing[static_cast<std::size_t>(j)];
        swm::rhs_row::vorticity_ke<T, Lanes>(o(0, j), o(1, j), row(u, j),
                                             row(u, j - 1), row(v, j),
                                             row(v, j + 1), nx, c);
        swm::rhs_row::laplacian<T, Lanes>(o(2, j), row(u, j), row(u, j - 1),
                                          row(u, j + 1), nx);
        swm::rhs_row::u_momentum<T, Lanes>(
            o(3, j), row(u, j), row(v, j), row(v, j + 1), row(zeta, j),
            row(zeta, j + 1), row(lap, j), row(lap, j - 1), row(lap, j + 1),
            row(h, j), row(ke, j), nx, c, f);
        swm::rhs_row::v_momentum<T, Lanes>(
            o(4, j), row(v, j), row(u, j), row(u, j - 1), row(zeta, j),
            row(lap, j), row(lap, j - 1), row(lap, j + 1), row(h, j),
            row(h, j - 1), row(ke, j), row(ke, j - 1), nx, c, f);
        swm::rhs_row::continuity<T, Lanes>(o(5, j), row(u, j), row(v, j),
                                           row(v, j + 1), row(h, j),
                                           row(h, j - 1), row(h, j + 1), nx,
                                           c);
      }
    });
    return {std::move(out), events};
  }
};

template <typename T>
void check_rhs_kernels(thread_pool* pool) {
  for (const fp::ftz_mode mode : both_modes) {
    const fp::ftz_guard ftz(mode);
    fp::fp_counters seen;
    for (const int nx : widths) {
      const rhs_case<T> rc(nx);
      const auto [oracle, oracle_events] = rc.template run<false>(nullptr);
      const auto [lanes, lane_events] = rc.template run<true>(pool);
      EXPECT_EQ(bits_of(lanes), bits_of(oracle)) << "nx=" << nx;
      EXPECT_EQ(events(lane_events), events(oracle_events)) << "nx=" << nx;
      seen += oracle_events;
    }
    if constexpr (std::is_same_v<T, float16>) {
      // The inputs did reach every cold-path branch.
      EXPECT_GT(seen.f16_subnormal_results, 0u);
      EXPECT_GT(seen.f16_overflows, 0u);
      EXPECT_GT(seen.f16_nans, 0u);
      EXPECT_EQ(seen.f16_flushed_results,
                mode == fp::ftz_mode::flush ? seen.f16_subnormal_results : 0u);
    }
  }
}

TEST(LaneKernels, Float16RhsRowsMatchScalarOracle) {
  check_rhs_kernels<float16>(nullptr);
}

TEST(LaneKernels, Float16RhsRowsMatchScalarOracleOnPool) {
  thread_pool pool(4);
  check_rhs_kernels<float16>(&pool);
}

TEST(LaneKernels, BFloat16RhsRowsMatchScalarOracle) {
  check_rhs_kernels<bfloat16>(nullptr);
}

TEST(LaneKernels, BFloat16RhsRowsMatchScalarOracleOnPool) {
  thread_pool pool(4);
  check_rhs_kernels<bfloat16>(&pool);
}

/// The fused sweeps (lanes) against the unfused scalar sweeps over the
/// same hazard fields: stage combine, standard and Kahan RK4 updates
/// and, for a mixed pair, the down-cast.
template <typename Tprog, typename T>
void check_sweeps(thread_pool* pool) {
  for (const fp::ftz_mode mode : both_modes) {
    const fp::ftz_guard ftz(mode);
    for (const int nx : widths) {
      using swm::field2d;
      const std::size_t n = static_cast<std::size_t>(nx) * sweep_rows;
      auto field_of = [nx]<typename E>(const std::vector<E>& xs) {
        field2d<E> f(nx, sweep_rows);
        std::copy(xs.begin(), xs.end(), f.flat().begin());
        return f;
      };
      auto prog_field = [&](std::uint32_t seed) {
        field2d<Tprog> f(nx, sweep_rows);
        const auto xs = hazard_field<T>(nx, seed, sweep_rows);
        for (std::size_t k = 0; k < n; ++k) {
          f.flat()[k] = swm::fpcast<Tprog>(xs[k]);
        }
        return f;
      };
      const field2d<Tprog> y0 = prog_field(11), comp0 = prog_field(12);
      const field2d<T> k1 = field_of(hazard_field<T>(nx, 13, sweep_rows));
      const field2d<T> k2 = field_of(hazard_field<T>(nx, 14, sweep_rows));
      const field2d<T> k3 = field_of(hazard_field<T>(nx, 15, sweep_rows));
      const field2d<T> k4 = field_of(hazard_field<T>(nx, 16, sweep_rows));
      const Tprog a = Tprog(0.5);
      auto bits = []<typename E>(const field2d<E>& f) {
        std::vector<std::uint8_t> b(f.size() * sizeof(E));
        std::memcpy(b.data(), f.flat().data(), b.size());
        return b;
      };

      // Standard update.
      field2d<Tprog> y_l = y0, y_s = y0, inc(nx, sweep_rows);
      auto ev_l = run_counted(pool, n, [&](std::size_t lo, std::size_t hi) {
        swm::fused_rk4_update_range<Tprog, T>(y_l.flat(), k1.flat(),
                                              k2.flat(), k3.flat(),
                                              k4.flat(), lo, hi);
      });
      auto ev_s = run_counted(nullptr, n, [&](std::size_t, std::size_t) {
        swm::rk4_increment(inc, k1, k2, k3, k4);
        swm::apply_increment(y_s, inc);
      });
      EXPECT_EQ(bits(y_l), bits(y_s)) << "rk4 nx=" << nx;
      EXPECT_EQ(events(ev_l), events(ev_s)) << "rk4 nx=" << nx;

      // Kahan-compensated update.
      field2d<Tprog> c_l = comp0, c_s = comp0;
      y_l = y0;
      y_s = y0;
      ev_l = run_counted(pool, n, [&](std::size_t lo, std::size_t hi) {
        swm::fused_rk4_update_compensated_range<Tprog, T>(
            y_l.flat(), c_l.flat(), k1.flat(), k2.flat(), k3.flat(),
            k4.flat(), lo, hi);
      });
      ev_s = run_counted(nullptr, n, [&](std::size_t, std::size_t) {
        swm::rk4_increment(inc, k1, k2, k3, k4);
        swm::apply_increment_compensated(y_s, inc, c_s);
      });
      EXPECT_EQ(bits(y_l), bits(y_s)) << "kahan nx=" << nx;
      EXPECT_EQ(bits(c_l), bits(c_s)) << "kahan nx=" << nx;
      EXPECT_EQ(events(ev_l), events(ev_s)) << "kahan nx=" << nx;

      // Three-field stage combine.
      swm::state<Tprog> ys(nx, sweep_rows), out_l(nx, sweep_rows), out_s(nx, sweep_rows);
      ys.u = y0;
      ys.v = comp0;
      ys.eta = y0;
      swm::tendencies<T> k(nx, sweep_rows);
      k.du = k1;
      k.dv = k2;
      k.deta = k3;
      ev_l = run_counted(pool, n, [&](std::size_t lo, std::size_t hi) {
        swm::fused_stage_combine_range(out_l, ys, k, a, lo, hi);
      });
      ev_s = run_counted(nullptr, n, [&](std::size_t, std::size_t) {
        swm::stage_combine(out_s.u, ys.u, k.du, a);
        swm::stage_combine(out_s.v, ys.v, k.dv, a);
        swm::stage_combine(out_s.eta, ys.eta, k.deta, a);
      });
      for (auto f : {&swm::state<Tprog>::u, &swm::state<Tprog>::v,
                     &swm::state<Tprog>::eta}) {
        EXPECT_EQ(bits(out_l.*f), bits(out_s.*f)) << "combine nx=" << nx;
      }
      EXPECT_EQ(events(ev_l), events(ev_s)) << "combine nx=" << nx;
    }
  }
}

TEST(LaneSweeps, Float16MatchScalarOracle) {
  check_sweeps<float16, float16>(nullptr);
}

TEST(LaneSweeps, Float16MatchScalarOracleOnPool) {
  thread_pool pool(4);
  check_sweeps<float16, float16>(&pool);
}

TEST(LaneSweeps, BFloat16MatchScalarOracle) {
  check_sweeps<bfloat16, bfloat16>(nullptr);
}

TEST(LaneSweeps, BFloat16MatchScalarOracleOnPool) {
  thread_pool pool(4);
  check_sweeps<bfloat16, bfloat16>(&pool);
}

TEST(LaneSweeps, MixedFloat16Float32MatchScalarOracle) {
  check_sweeps<float, float16>(nullptr);
}

TEST(LaneSweeps, MixedFloat16Float32MatchScalarOracleOnPool) {
  thread_pool pool(4);
  check_sweeps<float, float16>(&pool);
}

/// The mixed member's float -> float16 down-cast in lanes against the
/// scalar convert_field_into, over binary32 values spanning the
/// binary16 subnormal, normal and overflow ranges and NaN.
TEST(LaneSweeps, DownCastMatchesScalarConversion) {
  for (const fp::ftz_mode mode : both_modes) {
    const fp::ftz_guard ftz(mode);
    for (const int nx : widths) {
      std::mt19937 rng(static_cast<std::uint32_t>(nx));
      std::uniform_real_distribution<float> exponent(-30.0f, 17.0f);
      swm::field2d<float> src(nx, sweep_rows);
      for (float& x : src.flat()) {
        x = std::ldexp(1.0f + static_cast<float>(rng() % 1024) / 1024.0f,
                       static_cast<int>(exponent(rng)));
        if (rng() % 2) x = -x;
        if (rng() % 50 == 0) x = std::numeric_limits<float>::quiet_NaN();
      }
      swm::field2d<float16> lane(nx, sweep_rows), scalar(nx, sweep_rows);
      const std::size_t n = src.size();
      const fp::fp_counters c0 = fp::counters();
      fp::for_each_element<true>(0, n, [&](auto at) {
        at.put(lane.flat().data(), swm::fpcast<float16>(at(src.flat().data())));
      });
      const fp::fp_counters c1 = fp::counters();
      swm::convert_field_into(scalar, src);
      const fp::fp_counters c2 = fp::counters();
      EXPECT_EQ(bits_of(std::vector<float16>(lane.flat().begin(),
                                             lane.flat().end())),
                bits_of(std::vector<float16>(scalar.flat().begin(),
                                             scalar.flat().end())))
          << "nx=" << nx;
      EXPECT_EQ(events(c1 - c0), events(c2 - c1)) << "nx=" << nx;
    }
  }
}

}  // namespace

#else

TEST(Lanes, NotCompiled) {
  GTEST_SKIP() << "built without AVX2 + F16C: widened types run the "
                  "scalar operators";
}

#endif  // TFX_FP_LANES
