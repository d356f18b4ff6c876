// Shallow-water model: discrete operators, conservation, stability,
// determinism, and the exactness of the power-of-two scaling.

#include <gtest/gtest.h>

#include <cmath>

#include "swm/diagnostics.hpp"
#include "swm/model.hpp"
#include "swm/output.hpp"
#include "temp_dir.hpp"

using namespace tfx::swm;

namespace {

swm_params small_params() {
  swm_params p;
  p.nx = 48;
  p.ny = 24;
  return p;
}

}  // namespace

TEST(Field2d, IndexingAndWrap) {
  field2d<double> f(4, 3);
  f(0, 0) = 1.0;
  f(3, 2) = 2.0;
  EXPECT_EQ(f.flat()[0], 1.0);
  EXPECT_EQ(f.flat()[11], 2.0);
  EXPECT_EQ(f.ip(3), 0);
  EXPECT_EQ(f.im(0), 3);
  EXPECT_EQ(f.jp(2), 0);
  EXPECT_EQ(f.jm(0), 2);
  f.fill(7.0);
  EXPECT_EQ(f(2, 1), 7.0);
}

TEST(Field2d, ConvertRoundTrips) {
  field2d<double> f(5, 5);
  for (int j = 0; j < 5; ++j)
    for (int i = 0; i < 5; ++i) f(i, j) = 0.25 * i - 0.5 * j;
  const auto g = convert_field<float>(f);
  const auto back = convert_field<double>(g);
  for (int j = 0; j < 5; ++j)
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(back(i, j), f(i, j));  // quarters are exact in float
    }
}

TEST(Params, DerivedQuantities) {
  const swm_params p = small_params();
  EXPECT_DOUBLE_EQ(p.dx(), p.Lx / p.nx);
  // dt respects the gravity-wave CFL.
  const double c = std::sqrt(p.gravity * p.depth);
  EXPECT_LE(p.dt() * c / p.dx(), p.cfl + 1e-12);
  EXPECT_GT(p.visc_biharmonic(), 0.0);
}

TEST(Model, StableAndFiniteOverLongRun) {
  model<double> m(small_params());
  m.seed_random_eddies(1, 0.5);
  m.run(400);
  const auto d = m.diag();
  EXPECT_TRUE(d.finite);
  EXPECT_LT(d.cfl, 1.0);
  EXPECT_GT(d.energy, 0.0);
}

TEST(Model, MassConservedToRoundoff) {
  // The flux-form continuity equation conserves sum(eta) exactly in
  // exact arithmetic on periodic boundaries; in double it must stay at
  // roundoff relative to the field magnitude.
  model<double> m(small_params());
  m.seed_random_eddies(2, 0.5);
  const double area = small_params().Lx * small_params().Ly;
  m.run(250);
  const auto d = m.diag();
  const auto s = m.unscaled();
  double eta_rms = 0;
  for (double v : s.eta.flat()) eta_rms += v * v;
  eta_rms = std::sqrt(eta_rms / static_cast<double>(s.eta.size()));
  EXPECT_LT(std::abs(d.mass), 1e-9 * eta_rms * area);
}

TEST(Model, EnergyDecaysWithoutForcing) {
  swm_params p = small_params();
  p.wind_stress = 0.0;
  p.drag = 1e-5;
  model<double> m(p);
  m.seed_random_eddies(3, 0.5);
  double prev = m.diag().energy;
  for (int k = 0; k < 5; ++k) {
    m.run(40);
    const double e = m.diag().energy;
    EXPECT_LT(e, prev * 1.0001);
    prev = e;
  }
}

TEST(Model, WindSpinsUpFromRest) {
  model<double> m(small_params());  // starts at rest
  EXPECT_EQ(m.diag().energy, 0.0);
  m.run(100);
  const auto d = m.diag();
  EXPECT_GT(d.energy, 0.0);
  EXPECT_GT(d.max_speed, 0.0);
  EXPECT_TRUE(d.finite);
}

TEST(Model, DeterministicAcrossInstances) {
  model<double> a(small_params()), b(small_params());
  a.seed_random_eddies(7, 0.4);
  b.seed_random_eddies(7, 0.4);
  a.run(50);
  b.run(50);
  const auto sa = a.unscaled();
  const auto sb = b.unscaled();
  for (std::size_t k = 0; k < sa.eta.size(); ++k) {
    ASSERT_EQ(sa.eta.flat()[k], sb.eta.flat()[k]);
  }
}

TEST(Model, ScalingIsExactInFloat64) {
  // The power-of-two scaling must not change a double-precision
  // trajectory: every scale operation is exact and every coefficient
  // identical, so the unscaled states agree bit-for-bit.
  swm_params plain = small_params();
  swm_params scaled = small_params();
  scaled.log2_scale = 8;
  model<double> a(plain), b(scaled);
  a.seed_random_eddies(5, 0.5);
  b.seed_random_eddies(5, 0.5);
  a.run(60);
  b.run(60);
  const auto sa = a.unscaled();
  const auto sb = b.unscaled();
  double max_rel = 0;
  for (std::size_t k = 0; k < sa.u.size(); ++k) {
    const double d = std::abs(sa.u.flat()[k] - sb.u.flat()[k]);
    const double mag = std::abs(sa.u.flat()[k]) + 1e-30;
    max_rel = std::max(max_rel, d / mag);
  }
  EXPECT_LT(max_rel, 1e-12);
}

TEST(Model, Float32TracksFloat64) {
  model<double> a(small_params());
  model<float> b(small_params());
  a.seed_random_eddies(11, 0.5);
  b.seed_random_eddies(11, 0.5);
  a.run(150);
  b.run(150);
  const auto za = relative_vorticity(a.unscaled(), small_params());
  const auto zb = relative_vorticity(b.unscaled(), small_params());
  EXPECT_GT(correlation(za, zb), 0.999);
  EXPECT_LT(rmse(za, zb), 0.01 * rms(za) + 1e-12);
}

TEST(Model, CompensatedMatchesStandardInFloat64) {
  // At double precision the compensation is inert (corrections are
  // ~1e-16 of the state): trajectories must stay extremely close.
  model<double> a(small_params(), integration_scheme::standard);
  model<double> b(small_params(), integration_scheme::compensated);
  a.seed_random_eddies(13, 0.5);
  b.seed_random_eddies(13, 0.5);
  a.run(100);
  b.run(100);
  const auto za = relative_vorticity(a.unscaled(), small_params());
  const auto zb = relative_vorticity(b.unscaled(), small_params());
  EXPECT_GT(correlation(za, zb), 0.999999);
}

TEST(Model, GravityWaveDispersionMatchesTheory) {
  // Physics validation: a small-amplitude single-mode surface wave on
  // a non-rotating, unforced, inviscid fluid oscillates at
  // omega = sqrt(g h0) * k. Count zero crossings of eta at a probe
  // point over several periods and compare the implied frequency.
  swm_params p = small_params();
  p.coriolis_f0 = 0.0;
  p.coriolis_beta = 0.0;
  p.wind_stress = 0.0;
  p.drag = 0.0;
  p.visc_fraction = 0.0;

  model<double> m(p);
  const double amp = 0.01;  // linear regime
  for (int j = 0; j < p.ny; ++j) {
    for (int i = 0; i < p.nx; ++i) {
      m.prognostic().eta(i, j) =
          amp * std::cos(2.0 * M_PI * i / p.nx);
    }
  }

  const double k = 2.0 * M_PI / p.Lx;
  const double omega = std::sqrt(p.gravity * p.depth) * k;
  const double period = 2.0 * M_PI / omega;
  const int steps = static_cast<int>(3.0 * period / p.dt());

  int crossings = 0;
  double prev = m.prognostic().eta(0, 0);
  double t_first = 0, t_last = 0;
  for (int s = 0; s < steps; ++s) {
    m.step();
    const double cur = m.prognostic().eta(0, 0);
    if (prev * cur < 0.0) {
      ++crossings;
      const double t = m.time();
      if (crossings == 1) t_first = t;
      t_last = t;
    }
    prev = cur;
  }
  ASSERT_GE(crossings, 4);
  // Crossings are half a period apart.
  const double measured_period =
      2.0 * (t_last - t_first) / (crossings - 1);
  EXPECT_NEAR(measured_period, period, 0.05 * period);
}

TEST(Diagnostics, VorticityOfShearFlow) {
  // u = U0 sin(2 pi j / ny): zeta = -du/dy, checked against the
  // discrete derivative of the analytic profile.
  const swm_params p = small_params();
  state<double> s(p.nx, p.ny);
  s.fill(0.0);
  for (int j = 0; j < p.ny; ++j) {
    for (int i = 0; i < p.nx; ++i) {
      s.u(i, j) = std::sin(2.0 * M_PI * j / p.ny);
    }
  }
  const auto zeta = relative_vorticity(s, p);
  for (int j = 1; j < p.ny; ++j) {
    const double expected =
        -(s.u(0, j) - s.u(0, j - 1)) / p.dy();
    EXPECT_NEAR(zeta(5, j), expected, 1e-12);
  }
}

TEST(Diagnostics, CorrelationAndRmse) {
  field2d<double> a(8, 8), b(8, 8);
  for (int j = 0; j < 8; ++j)
    for (int i = 0; i < 8; ++i) {
      a(i, j) = i + j;
      b(i, j) = 2.0 * (i + j) + 3.0;  // affine: perfect correlation
    }
  EXPECT_NEAR(correlation(a, b), 1.0, 1e-12);
  EXPECT_NEAR(rmse(a, a), 0.0, 1e-15);
  EXPECT_GT(rmse(a, b), 0.0);
}

class Output : public tfx_test::temp_dir_test {};

TEST_F(Output, PgmAndCsvFiles) {
  field2d<double> f(16, 8);
  for (int j = 0; j < 8; ++j)
    for (int i = 0; i < 16; ++i) f(i, j) = std::sin(0.3 * i) * j;
  const std::string pgm = temp_path("field.pgm");
  EXPECT_TRUE(write_pgm(f, pgm));
  EXPECT_TRUE(write_csv(f, temp_path("field.csv")));
  // PGM header sanity.
  FILE* fp = std::fopen(pgm.c_str(), "rb");
  ASSERT_NE(fp, nullptr);
  char magic[3] = {};
  ASSERT_EQ(std::fread(magic, 1, 2, fp), 2u);
  EXPECT_EQ(std::string(magic), "P5");
  std::fclose(fp);
}
