// Build-matrix smoke check for the fixed-width SIMD layer: force-
// instantiates every kernel at every compile-time width (128/256/512)
// for every vectorizable element type, runs a small correctness pass
// against the generic oracles, and reports the host's detected CPU
// features and the width policy in effect. Exits nonzero on the first
// mismatch, so a CI matrix over -DTFX_SIMD_WIDTH={0,128,256,512} can
// use it as the gate.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "arch/features.hpp"
#include "core/rng.hpp"
#include "fp/bfloat16.hpp"
#include "fp/float16.hpp"
#include "kernels/batched.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/registry.hpp"
#include "kernels/simd.hpp"
#include "kernels/sweeps.hpp"

using namespace tfx;

namespace {

int failures = 0;

void expect(bool ok, const char* what, std::size_t bits) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s at width %zu\n", what, bits);
    ++failures;
  }
}

template <typename T>
std::vector<T> randv(std::size_t n, std::uint64_t seed) {
  xoshiro256 rng(seed);
  std::vector<T> v(n);
  for (auto& x : v) x = T(rng.uniform(-2.0, 2.0));
  return v;
}

template <std::size_t Bits, typename T>
void check_native(std::size_t n) {
  const auto x = randv<T>(n, 1);
  auto y = randv<T>(n, 2);
  auto y_ref = y;
  kernels::simd::axpy_fixed<Bits, T>(T(0.75), x, y);
  kernels::axpy<T>(T(0.75), x, y_ref);
  bool same = true;
  for (std::size_t i = 0; i < n; ++i) same = same && y[i] == y_ref[i];
  expect(same, "axpy_fixed bit-identical to generic", Bits);

  const T tree = kernels::simd::dot_fixed<Bits, T>(x, y);
  const T tree_ref = kernels::simd::dot_tree_reference<Bits, T>(x, y);
  expect(tree == tree_ref, "dot_fixed matches its reduction tree", Bits);
}

template <std::size_t Bits, typename T>
void check_widened(std::size_t n) {
  const auto x = randv<T>(n, 3);
  auto y = randv<T>(n, 4);
  auto y_ref = y;
  kernels::simd::axpy_widened<Bits, T>(T(0.5), x, y);
  kernels::axpy<T>(T(0.5), x, y_ref);
  bool same = true;
  for (std::size_t i = 0; i < n; ++i) {
    same = same && y[i].bits() == y_ref[i].bits();
  }
  expect(same, "axpy_widened bit-identical to generic", Bits);
}

template <std::size_t Bits>
void check_width() {
  for (const std::size_t n : {0u, 1u, 7u, 64u, 257u}) {
    check_native<Bits, double>(n);
    check_native<Bits, float>(n);
    check_widened<Bits, fp::float16>(n);
    check_widened<Bits, fp::bfloat16>(n);
  }

  const kernels::gemm_batch_shape shape{8, 5, 6, 7};
  const auto a = randv<double>(shape.count * shape.a_elems(), 5);
  const auto b = randv<double>(shape.count * shape.b_elems(), 6);
  auto c = randv<double>(shape.count * shape.c_elems(), 7);
  auto c_ref = c;
  kernels::simd::gemm_batched_fixed<Bits, double>(shape, 1.25, a, b, 0.5, c);
  kernels::gemm_batched_generic<double>(shape, 1.25, a, b, 0.5, c_ref);
  bool same = true;
  for (std::size_t i = 0; i < c.size(); ++i) same = same && c[i] == c_ref[i];
  expect(same, "gemm_batched_fixed bit-identical to oracle", Bits);
}

}  // namespace

int main() {
  const auto& f = arch::host_features();
  std::printf("host isa: %s (max native width %zu bits)\n", f.isa.data(),
              f.max_vector_bits);
  constexpr arch::compiled_isa c = arch::compiled_features();
  std::printf("compiled isa: avx2=%d f16c=%d avx512f=%d\n", c.avx2, c.f16c,
              c.avx512f);
  std::printf("width policy: default %zu, current %zu\n",
              kernels::default_simd_width(), kernels::simd_width());
  std::printf("preferred backend: %s\n",
              std::string(
                  kernels::blas_registry::instance().preferred_vectorized())
                  .c_str());

  check_width<128>();
  check_width<256>();
  check_width<512>();

  if (failures == 0) {
    std::printf("simd smoke: all widths x types OK\n");
    return EXIT_SUCCESS;
  }
  std::fprintf(stderr, "simd smoke: %d failure(s)\n", failures);
  return EXIT_FAILURE;
}
