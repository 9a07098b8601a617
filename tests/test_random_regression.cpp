// Golden-value regression tests for util/random. The entire repository's
// replayability rests on these generators being bit-stable: every simulation,
// heterogeneity sample, and testbed noise draw flows from them. If a refactor
// changes any value below it silently invalidates every recorded experiment,
// so the change must be deliberate and these constants regenerated with it.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "util/random.h"

namespace {

using namespace econcast::util;

TEST(RandomRegression, SplitMix64KnownSequence) {
  std::uint64_t state = 42;
  const std::uint64_t expected[] = {
      0xBDD732262FEB6E95ULL, 0x28EFE333B266F103ULL,
      0x47526757130F9F52ULL, 0x581CE1FF0E4AE394ULL};
  for (const std::uint64_t e : expected) EXPECT_EQ(splitmix64_next(state), e);
}

TEST(RandomRegression, Xoshiro256KnownSequence) {
  Xoshiro256 gen(2016);
  const std::uint64_t expected[] = {
      0x2783899F312CA7A0ULL, 0x0624859DA8FD69E2ULL,
      0xB6D231296DD6A35BULL, 0xD160CD437036B5F1ULL,
      0xA25BC6376E6C9BBCULL, 0xC15E01F80AEF96D0ULL,
      0x839FEE18094502D2ULL, 0xD5D5542B85D2A9CAULL};
  for (const std::uint64_t e : expected) EXPECT_EQ(gen(), e);
}

TEST(RandomRegression, UniformKnownSequence) {
  Rng rng(2016);
  const double expected[] = {
      0.15435085426831785, 0.02399478053211157, 0.71414477597667281,
      0.81788332840388978, 0.63421286443046865, 0.75534069352846545};
  // Exact equality on purpose: uniform() is defined as a deterministic
  // function of the bit stream (top 53 bits scaled by 2^-53).
  for (const double e : expected) EXPECT_EQ(rng.uniform(), e);
}

TEST(RandomRegression, ExponentialKnownSequence) {
  Rng rng(2016);
  const double expected[] = {
      0.33530145350789897, 0.048574689535769246, 2.5045396120766403,
      3.406215489131978};
  for (const double e : expected) EXPECT_EQ(rng.exponential(0.5), e);
}

TEST(RandomRegression, UniformIntKnownSequence) {
  Rng rng(2016);
  const std::uint64_t expected[] = {896, 914, 339, 225, 772, 368};
  for (const std::uint64_t e : expected) EXPECT_EQ(rng.uniform_int(1000), e);
}

TEST(RandomRegression, ExponentialRejectsInvalidRate) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(rng.exponential(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  // A rejected draw must not consume from the stream.
  Rng pristine(1);
  EXPECT_EQ(rng.uniform(), pristine.uniform());
}

}  // namespace
