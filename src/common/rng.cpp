#include "src/common/rng.hpp"

#include <cmath>

#include "src/common/error.hpp"

namespace dozz {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  DOZZ_REQUIRE(bound > 0);
  // Lemire's multiply-shift with rejection of the biased zone.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) {
  DOZZ_REQUIRE(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_exponential(double mean) {
  DOZZ_REQUIRE(mean > 0.0);
  double u = next_double();
  if (u >= 1.0) u = 0.999999999999;
  return -mean * std::log1p(-u);
}

double Rng::next_gaussian() {
  double u1 = next_double();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = next_double();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

std::uint64_t Rng::next_burst_length(double mean, std::uint64_t cap) {
  DOZZ_REQUIRE(mean >= 1.0 && cap >= 1);
  const auto len = static_cast<std::uint64_t>(next_exponential(mean)) + 1;
  return len > cap ? cap : len;
}

}  // namespace dozz
