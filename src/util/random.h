// Deterministic, seedable pseudo-random generation for all stochastic
// components (simulator, heterogeneity sampler, testbed noise models).
//
// We use xoshiro256** seeded through splitmix64: fast, high quality, and —
// unlike std::mt19937 + std::*_distribution — bit-for-bit reproducible across
// standard library implementations, which keeps every experiment in this
// repository replayable from its seed alone.
#ifndef ECONCAST_UTIL_RANDOM_H
#define ECONCAST_UTIL_RANDOM_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace econcast::util {

/// splitmix64: used to expand a single 64-bit seed into generator state.
/// Advances `state` and returns the next value of the sequence.
std::uint64_t splitmix64_next(std::uint64_t& state) noexcept;

/// xoshiro256** 1.0 (Blackman & Vigna). Satisfies UniformRandomBitGenerator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single seed via splitmix64.
  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept;

 private:
  std::uint64_t s_[4];
};

/// Convenience wrapper bundling the generator with the distributions this
/// project needs. All sampling is implemented here (not with std::
/// distributions) for cross-platform determinism.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : gen_(seed) {}

  /// Uniform on [0, 1). Uses the top 53 bits, so the result is an exact
  /// multiple of 2^-53.
  double uniform() noexcept {
    return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
  }

  /// Uniform on [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Exponential with the given rate (mean 1/rate). Throws
  /// std::invalid_argument (naming the value) unless rate is positive and
  /// finite — a non-positive or NaN rate would silently return a negative,
  /// infinite or NaN sojourn time and corrupt every event after it.
  double exponential(double rate);

  /// True with probability p (clamped to [0, 1]).
  bool bernoulli(double p) { return uniform() < p; }

  /// Uniform integer in [0, n). Requires n > 0. Unbiased (rejection).
  std::uint64_t uniform_int(std::uint64_t n);

 private:
  Xoshiro256 gen_;
};

/// Fisher–Yates shuffle using the project Rng (std::shuffle is not
/// reproducible across standard libraries).
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.uniform_int(i));
    using std::swap;
    swap(v[i - 1], v[j]);
  }
}

}  // namespace econcast::util

#endif  // ECONCAST_UTIL_RANDOM_H
