// Exhaustive checks of the conversions under the soft-float lanes
// (fp/lanes.hpp) and the scalar float16 operators (fp/float16.hpp):
// the F16C widen over every binary16 pattern and the F16C narrow over
// every binary32 pattern against the constexpr bit routines of
// rounding.hpp, NaN payloads included, and the bfloat16 lane round
// over every binary32 pattern against f32_bits_to_bf16_bits.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "fp/float16.hpp"
#include "fp/lanes.hpp"
#include "fp/rounding.hpp"

using tfx::fp::float16;
namespace fp = tfx::fp;

#if TFX_FP_LANES

namespace {

TEST(F16cConversion, WidenMatchesBitRoutineForEveryBinary16) {
  int mismatches = 0;
  for (std::uint32_t h0 = 0; h0 < 65536; h0 += 8) {
    std::uint16_t in[8];
    for (std::uint32_t l = 0; l < 8; ++l) {
      in[l] = static_cast<std::uint16_t>(h0 + l);
    }
    float out[8];
    fp::lane_detail::store(out, fp::lane_detail::load(
                                    reinterpret_cast<const float16*>(in)));
    for (int l = 0; l < 8; ++l) {
      const std::uint32_t want = fp::f16_bits_to_f32_bits(in[l]);
      const bool ok = std::bit_cast<std::uint32_t>(out[l]) == want &&
                      std::bit_cast<std::uint32_t>(fp::f16_to_f32(in[l])) ==
                          want;
      if (!ok && ++mismatches <= 5) {
        ADD_FAILURE() << "binary16 0x" << std::hex << in[l];
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

/// Every binary32 pattern through the F16C narrow (vector and scalar)
/// and the bfloat16 lane round, against the bit routines. Four
/// threads, each a quarter of the patterns.
TEST(F16cConversion, NarrowAndBf16RoundMatchBitRoutinesForEveryBinary32) {
  constexpr int threads = 4;
  std::vector<std::uint64_t> bad(threads, 0);
  std::vector<std::uint32_t> first(threads, 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([t, &bad, &first] {
      const std::uint64_t lo = (std::uint64_t{1} << 30) * t;
      const std::uint64_t hi = lo + (std::uint64_t{1} << 30);
      for (std::uint64_t x0 = lo; x0 < hi; x0 += 8) {
        std::uint32_t in[8];
        for (std::uint32_t l = 0; l < 8; ++l) {
          in[l] = static_cast<std::uint32_t>(x0) + l;
        }
        const __m256 v = _mm256_loadu_ps(reinterpret_cast<const float*>(in));
        std::uint16_t h[8];
        fp::lane_detail::store(reinterpret_cast<float16*>(h), v);
        std::uint32_t b[8];
        _mm256_storeu_ps(reinterpret_cast<float*>(b),
                         fp::lane_detail::round_bf16(v));
        for (int l = 0; l < 8; ++l) {
          const std::uint16_t want16 = fp::f32_bits_to_f16_bits(in[l]);
          const bool ok =
              h[l] == want16 &&
              fp::f32_to_f16_bits(std::bit_cast<float>(in[l])) == want16 &&
              b[l] == (std::uint32_t{fp::f32_bits_to_bf16_bits(in[l])} << 16);
          if (!ok && bad[t]++ == 0) first[t] = in[l];
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  for (int t = 0; t < threads; ++t) {
    EXPECT_EQ(bad[t], 0u) << "first mismatch at binary32 0x" << std::hex
                          << first[t];
  }
}

}  // namespace

#else

TEST(F16cConversion, NotCompiled) {
  GTEST_SKIP() << "built without AVX2 + F16C: the bit routines are the "
                  "only conversions";
}

#endif  // TFX_FP_LANES
