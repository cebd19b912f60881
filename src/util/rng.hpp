// Deterministic random number generation.
//
// Every stochastic element of the simulation — mobility, radio loss,
// payload generation, RETRI identifiers — draws from a seeded Rng so that
// all experiments are exactly repeatable. The generator is xoshiro256**,
// seeded through SplitMix64 as its authors recommend.
#pragma once

#include <array>
#include <cstdint>

namespace garnet::util {

/// SplitMix64 step; used to expand seeds and as a cheap hash.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// xoshiro256** generator with distribution helpers.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9A3EC9D57F1B2C44ull);

  /// Uniform over the full 64-bit range.
  [[nodiscard]] std::uint64_t next();

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  [[nodiscard]] std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform();

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool chance(double p);

  /// Standard normal via Box–Muller.
  [[nodiscard]] double normal();
  [[nodiscard]] double normal(double mean, double stddev);

  /// Exponential with the given rate (mean 1/rate).
  [[nodiscard]] double exponential(double rate);

  /// Derives an independent child generator; used to give each sensor or
  /// service its own stream without cross-coupling draw order.
  [[nodiscard]] Rng fork();

  /// Same state: both generators produce the same draws from here on.
  [[nodiscard]] bool operator==(const Rng&) const = default;

 private:
  std::array<std::uint64_t, 4> s_{};
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace garnet::util
