// Unit tests for the util substrate: RNG, log-sum-exp, statistics, tables.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/logsumexp.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace econcast::util;

// ---------------------------------------------------------------- random --

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b();
  EXPECT_LT(same, 4);
}

TEST(Xoshiro, JumpChangesStream) {
  Xoshiro256 a(7), b(7);
  b.jump();
  EXPECT_NE(a(), b());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanVariance) {
  Rng rng(43);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.005);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(44);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 7.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 7.0);
  }
}

TEST(Rng, DegenerateUniformReturnsPoint) {
  Rng rng(45);
  EXPECT_DOUBLE_EQ(rng.uniform(5.0, 5.0), 5.0);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(46);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.exponential(4.0));
  EXPECT_NEAR(s.mean(), 0.25, 0.005);
}

TEST(Rng, ExponentialIsMemorylessInDistribution) {
  // P(X > a + b | X > a) == P(X > b) — compare tail fractions.
  Rng rng(47);
  int beyond_a = 0, beyond_ab = 0, beyond_b = 0;
  const int n = 300000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(1.0);
    if (x > 0.7) ++beyond_a;
    if (x > 1.2) ++beyond_ab;
    if (x > 0.5) ++beyond_b;
  }
  const double conditional = static_cast<double>(beyond_ab) / beyond_a;
  const double unconditional = static_cast<double>(beyond_b) / n;
  EXPECT_NEAR(conditional, unconditional, 0.01);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(48);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(49);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, UniformIntRangeAndCoverage) {
  Rng rng(50);
  std::vector<int> seen(7, 0);
  for (int i = 0; i < 70000; ++i) {
    const auto v = rng.uniform_int(7);
    ASSERT_LT(v, 7u);
    ++seen[static_cast<std::size_t>(v)];
  }
  for (const int c : seen) EXPECT_NEAR(c, 10000, 500);
}

TEST(Rng, GeometricContinuesMean) {
  Rng rng(51);
  RunningStats s;
  for (int i = 0; i < 100000; ++i)
    s.add(static_cast<double>(rng.geometric_continues(0.8)));
  EXPECT_NEAR(s.mean(), 4.0, 0.1);  // p/(1-p) = 0.8/0.2
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(52);
  Rng b = a.fork();
  RunningStats corr;
  for (int i = 0; i < 1000; ++i)
    corr.add((a.uniform() - 0.5) * (b.uniform() - 0.5));
  EXPECT_NEAR(corr.mean(), 0.0, 0.01);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(53);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  shuffle(v, rng);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

// ------------------------------------------------------------- logsumexp --

TEST(LogSumExpTest, MatchesDirectComputationSmall) {
  LogSumExp acc;
  acc.add(std::log(2.0));
  acc.add(std::log(3.0));
  acc.add(std::log(5.0));
  EXPECT_NEAR(acc.value(), std::log(10.0), 1e-12);
}

TEST(LogSumExpTest, EmptyIsLogZero) {
  LogSumExp acc;
  EXPECT_EQ(acc.value(), kLogZero);
  EXPECT_TRUE(acc.empty());
}

TEST(LogSumExpTest, HandlesHugeExponents) {
  LogSumExp acc;
  acc.add(1000.0);
  acc.add(1000.0);
  EXPECT_NEAR(acc.value(), 1000.0 + std::log(2.0), 1e-9);
}

TEST(LogSumExpTest, HandlesTinyExponents) {
  LogSumExp acc;
  acc.add(-1000.0);
  acc.add(-1001.0);
  EXPECT_NEAR(acc.value(), -1000.0 + std::log(1.0 + std::exp(-1.0)), 1e-9);
}

TEST(LogSumExpTest, IgnoresLogZeroTerms) {
  LogSumExp acc;
  acc.add(kLogZero);
  acc.add(0.0);
  EXPECT_NEAR(acc.value(), 0.0, 1e-15);
}

TEST(LogSumExpTest, SpanOverloadMatchesStreaming) {
  const std::vector<double> vals{-3.0, 0.5, 2.0, 2.0, -10.0};
  LogSumExp acc;
  for (const double v : vals) acc.add(v);
  EXPECT_NEAR(log_sum_exp(vals), acc.value(), 1e-12);
}

TEST(LogSumExpTest, OrderInvariance) {
  std::vector<double> vals{100.0, -50.0, 3.0, 99.0};
  const double a = log_sum_exp(vals);
  std::reverse(vals.begin(), vals.end());
  EXPECT_NEAR(log_sum_exp(vals), a, 1e-12);
}

// ----------------------------------------------------------------- stats --

TEST(RunningStatsTest, MeanVarianceKnownValues) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(RunningStatsTest, Ci95ShrinksWithSamples) {
  Rng rng(54);
  RunningStats small, large;
  for (int i = 0; i < 100; ++i) small.add(rng.uniform());
  for (int i = 0; i < 10000; ++i) large.add(rng.uniform());
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(SampleSetTest, PercentileNearestRank) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
}

TEST(SampleSetTest, PercentileOfEmptyThrows) {
  SampleSet s;
  EXPECT_THROW(s.percentile(0.5), std::logic_error);
}

TEST(SampleSetTest, CdfMonotone) {
  SampleSet s;
  Rng rng(55);
  for (int i = 0; i < 1000; ++i) s.add(rng.uniform());
  double prev = 0.0;
  for (double x = 0.0; x <= 1.0; x += 0.05) {
    const double c = s.cdf(x);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(s.cdf(2.0), 1.0);
  EXPECT_DOUBLE_EQ(s.cdf(-1.0), 0.0);
}

TEST(SampleSetTest, AddAfterQueryKeepsConsistency) {
  SampleSet s;
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 1.0);
  s.add(3.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 3.0);
}

TEST(CounterTest, FractionsSumToOne) {
  Counter c;
  c.add(0, 89);
  c.add(1, 10);
  c.add(2, 1);
  EXPECT_DOUBLE_EQ(c.fraction(0) + c.fraction(1) + c.fraction(2), 1.0);
  EXPECT_EQ(c.total(), 100u);
  EXPECT_DOUBLE_EQ(c.fraction(7), 0.0);
}

TEST(CounterTest, EmptyCounter) {
  Counter c;
  EXPECT_EQ(c.total(), 0u);
  EXPECT_DOUBLE_EQ(c.fraction(0), 0.0);
}

// ----------------------------------------------------------------- table --

TEST(TableTest, AlignedRendering) {
  Table t({"a", "bbbb"});
  t.add_row({"1", "2"});
  t.add_row();
  t.add_cell(3.14159, 2);
  t.add_cell(static_cast<std::int64_t>(7));
  std::ostringstream os;
  t.print(os, "title");
  const std::string out = os.str();
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find("bbbb"), std::string::npos);
  EXPECT_NE(out.find("3.14  7"), std::string::npos);
  EXPECT_EQ(out.find("3.141"), std::string::npos);
}

TEST(TableTest, RowWidthMismatchThrows) {
  Table t({"x", "y"});
  EXPECT_THROW(t.add_row({"only one"}), std::logic_error);
  t.add_row({"1", "2"});
  t.add_row();
  t.add_cell("a");
  t.add_cell("b");
  EXPECT_THROW(t.add_cell("c"), std::logic_error);
}

TEST(FormatTest, FixedAndScientific) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_sci(12345.0, 2), "1.23e+04");
}

}  // namespace
