// Deterministic pseudo-random number generation for workload synthesis.
//
// xoshiro256** seeded via splitmix64: fast, high quality, and — unlike
// std::mt19937 across standard libraries — bit-for-bit reproducible, which
// matters because our "benchmark traces" are synthesized from seeds.
#pragma once

#include <array>
#include <cstdint>

namespace dozz {

/// splitmix64 step; used for seeding and as a cheap hash.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** generator with distribution helpers.
class Rng {
 public:
  /// Seeds the four state words from a single 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() {
    // 53 high bits -> uniform double in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) using Lemire's rejection method.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with probability p of returning true.
  bool next_bool(double p) { return next_double() < p; }

  /// Exponentially distributed value with the given mean.
  double next_exponential(double mean);

  /// Standard normal variate (Box-Muller, no caching).
  double next_gaussian();

  /// Geometric-like bounded integer: mean-controlled burst length in [1, cap].
  std::uint64_t next_burst_length(double mean, std::uint64_t cap);

  /// The four xoshiro256** state words, for checkpoint/restore: a restored
  /// generator continues the exact draw sequence of the saved one.
  using State = std::array<std::uint64_t, 4>;
  State state() const { return {s_[0], s_[1], s_[2], s_[3]}; }
  void set_state(const State& state) {
    for (std::size_t i = 0; i < state.size(); ++i) s_[i] = state[i];
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace dozz
