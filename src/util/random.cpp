#include "util/random.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace econcast::util {

std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64_next(sm);
}

Xoshiro256::result_type Xoshiro256::operator()() noexcept {
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

double Rng::exponential(double rate) {
  if (!(rate > 0.0) || !std::isfinite(rate))
    throw std::invalid_argument("exponential rate must be positive and "
                                "finite, got " +
                                std::to_string(rate));
  // 1 - uniform() is in (0, 1], so the log argument is never zero.
  return -std::log(1.0 - uniform()) / rate;
}

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  // Lemire-style rejection sampling for an unbiased result.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = gen_();
    if (r >= threshold) return r % n;
  }
}

}  // namespace econcast::util
