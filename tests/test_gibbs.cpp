// Tests for the Gibbs distribution (19): exact enumeration, the symmetric
// collapse, dual function identities, and the burstiness sums of Appendix E.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "gibbs/burstiness.h"
#include "gibbs/exact.h"
#include "gibbs/p4_solver.h"
#include "gibbs/symmetric.h"
#include "reference_gibbs.h"
#include "util/random.h"

namespace {

using namespace econcast;
using namespace econcast::gibbs;
using model::Mode;

model::NodeSet paper_nodes(std::size_t n = 5) {
  return model::homogeneous(n, 10.0, 500.0, 500.0);
}

TEST(ExactGibbs, DistributionSumsToOne) {
  const ExactGibbs g(paper_nodes(), Mode::kGroupput, 0.5);
  const std::vector<double> eta(5, 0.003);
  const auto pi = g.distribution(eta);
  const double total = std::accumulate(pi.begin(), pi.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ExactGibbs, ZeroEtaFavorsHighThroughputStates) {
  // With η = 0 the weight is exp(T_w/σ): the best groupput state (one
  // transmitter, all others listening) dominates every other single state.
  const ExactGibbs g(paper_nodes(), Mode::kGroupput, 0.5);
  const std::vector<double> eta(5, 0.0);
  const auto pi = g.distribution(eta);
  const auto best = model::state_index(5, model::NetState{0, 0b11110});
  const auto idle = model::state_index(5, model::NetState{-1, 0});
  EXPECT_GT(pi[best], pi[idle]);
}

TEST(ExactGibbs, LargeEtaForcesSleep) {
  const ExactGibbs g(paper_nodes(), Mode::kGroupput, 0.5);
  const std::vector<double> eta(5, 10.0);  // punishing multipliers
  const Marginals m = g.marginals(eta);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_LT(m.alpha[i], 1e-6);
    EXPECT_LT(m.beta[i], 1e-6);
  }
}

TEST(ExactGibbs, MarginalsMatchBruteForce) {
  const auto nodes = paper_nodes(4);
  const ExactGibbs g(nodes, Mode::kGroupput, 0.4);
  const std::vector<double> eta{0.001, 0.002, 0.003, 0.004};
  const Marginals m = g.marginals(eta);
  const auto pi = g.distribution(eta);
  for (std::size_t i = 0; i < 4; ++i) {
    double alpha = 0.0, beta = 0.0;
    model::for_each_state(4, [&](const model::NetState& s) {
      const double p = pi[model::state_index(4, s)];
      if (s.listeners & (1ULL << i)) alpha += p;
      if (s.transmitter == static_cast<int>(i)) beta += p;
    });
    EXPECT_NEAR(m.alpha[i], alpha, 1e-12);
    EXPECT_NEAR(m.beta[i], beta, 1e-12);
  }
}

TEST(ExactGibbs, ExpectedThroughputMatchesBruteForce) {
  const auto nodes = paper_nodes(4);
  for (const Mode mode : {Mode::kGroupput, Mode::kAnyput}) {
    const ExactGibbs g(nodes, mode, 0.3);
    const std::vector<double> eta(4, 0.002);
    const auto pi = g.distribution(eta);
    double expect = 0.0;
    model::for_each_state(4, [&](const model::NetState& s) {
      expect += pi[model::state_index(4, s)] * model::state_throughput(s, mode);
    });
    EXPECT_NEAR(g.marginals(eta).expected_throughput, expect, 1e-12);
  }
}

TEST(ExactGibbs, EntropyMatchesDirectSum) {
  const auto nodes = paper_nodes(4);
  const ExactGibbs g(nodes, Mode::kGroupput, 0.5);
  const std::vector<double> eta(4, 0.004);
  const auto pi = g.distribution(eta);
  double h = 0.0;
  for (const double p : pi)
    if (p > 0.0) h -= p * std::log(p);
  EXPECT_NEAR(g.marginals(eta).entropy, h, 1e-9);
}

TEST(ExactGibbs, SmallSigmaIsNumericallyStable) {
  const ExactGibbs g(paper_nodes(), Mode::kGroupput, 0.02);
  const std::vector<double> eta(5, 0.001);
  const Marginals m = g.marginals(eta);
  EXPECT_TRUE(std::isfinite(m.log_partition));
  EXPECT_TRUE(std::isfinite(m.expected_throughput));
  EXPECT_GE(m.expected_throughput, 0.0);
  EXPECT_LE(m.expected_throughput, 4.0 + 1e-9);
}

TEST(ExactGibbs, DualGradientMatchesFiniteDifference) {
  const auto nodes = paper_nodes(3);
  const ExactGibbs g(nodes, Mode::kGroupput, 0.5);
  std::vector<double> eta{0.002, 0.001, 0.003};
  const auto grad = g.dual_gradient(eta);
  const double h = 1e-7;
  for (std::size_t i = 0; i < 3; ++i) {
    auto hi = eta, lo = eta;
    hi[i] += h;
    lo[i] -= h;
    const double fd = (g.dual_value(hi) - g.dual_value(lo)) / (2.0 * h);
    EXPECT_NEAR(grad[i], fd, 1e-4);
  }
}

TEST(ExactGibbs, DualIsConvexAlongRandomLines) {
  econcast::util::Rng rng(11);
  const auto nodes = paper_nodes(3);
  const ExactGibbs g(nodes, Mode::kAnyput, 0.4);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> a(3), d(3);
    for (std::size_t i = 0; i < 3; ++i) {
      // Keep a + t d >= 0 on t in [0, 1] so the segment stays in the domain
      // (projecting would break convexity along the line).
      a[i] = rng.uniform(0.002, 0.01);
      d[i] = rng.uniform(-0.002, 0.002);
    }
    auto at = [&](double t) {
      std::vector<double> e(3);
      for (std::size_t i = 0; i < 3; ++i) e[i] = a[i] + t * d[i];
      return g.dual_value(e);
    };
    // Midpoint convexity on a segment.
    EXPECT_LE(at(0.5), 0.5 * at(0.0) + 0.5 * at(1.0) + 1e-12);
  }
}

TEST(ExactGibbs, RejectsBadConstruction) {
  EXPECT_THROW(ExactGibbs(paper_nodes(), Mode::kGroupput, 0.0),
               std::invalid_argument);
  EXPECT_THROW(ExactGibbs(model::homogeneous(17, 1, 1, 1), Mode::kGroupput, 1),
               std::invalid_argument);
  const ExactGibbs g(paper_nodes(), Mode::kGroupput, 0.5);
  EXPECT_THROW(g.marginals({0.0, 0.0}), std::invalid_argument);
}

void expect_same_marginals(const Marginals& got, const Marginals& want) {
  EXPECT_EQ(got.log_partition, want.log_partition);
  EXPECT_EQ(got.alpha, want.alpha);
  EXPECT_EQ(got.beta, want.beta);
  EXPECT_EQ(got.expected_throughput, want.expected_throughput);
  EXPECT_EQ(got.entropy, want.entropy);
}

TEST(ExactGibbs, TableEvaluationMatchesPerStateLoopsBitForBit) {
  // The state table and the one-pass evaluation must not move a single bit
  // relative to the per-state loops (tests/reference_gibbs.h): every (P4)
  // iterate, and so every result byte, depends on it. Seeded §VII-B
  // networks, N = 2..10, both modes, η with zero entries, and an η large
  // enough that most probabilities underflow to exactly 0 (the marginals'
  // p == 0 skip).
  namespace ref = testing_support::reference_gibbs;
  util::Rng rng(1414);
  bool saw_underflow = false;
  for (std::size_t n = 2; n <= 10; ++n) {
    const double h = 10.0 + 240.0 * static_cast<double>(n - 2) / 8.0;
    const auto nodes = model::sample_heterogeneous(n, h, rng);
    std::vector<std::vector<double>> etas;
    etas.emplace_back(n, 0.0);
    std::vector<double> mixed(n);
    for (std::size_t i = 0; i < n; ++i)
      mixed[i] = i % 3 == 0 ? 0.0 : rng.uniform(0.0, 0.01);
    etas.push_back(mixed);
    std::vector<double> dense(n);
    for (double& e : dense) e = rng.uniform(1e-4, 0.02);
    etas.push_back(dense);
    std::vector<double> crushing(n);
    for (std::size_t i = 0; i < n; ++i) crushing[i] = i == 0 ? 0.0 : 10.0;
    etas.push_back(crushing);
    for (const Mode mode : {Mode::kGroupput, Mode::kAnyput}) {
      for (const double sigma : {0.1, 0.5}) {
        const ExactGibbs g(nodes, mode, sigma);
        for (const auto& eta : etas) {
          SCOPED_TRACE(testing::Message()
                       << "N=" << n << " " << model::to_string(mode)
                       << " sigma=" << sigma << " eta[1]=" << eta[1]);
          expect_same_marginals(g.marginals(eta), ref::marginals(g, eta));
          EXPECT_EQ(g.dual_value(eta), ref::dual_value(g, eta));
          const BurstSums b = g.burst_sums(eta);
          const BurstSums rb = ref::burst_sums(g, eta);
          EXPECT_EQ(b.log_success_mass, rb.log_success_mass);
          EXPECT_EQ(b.log_burst_rate, rb.log_burst_rate);
          const auto pi = g.distribution(eta);
          EXPECT_EQ(pi, ref::distribution(g, eta));
          for (const double p : pi) saw_underflow |= p == 0.0;

          // The buffer API: weights in state_index order, log Z returned,
          // and the moments taken from the stored weights.
          std::vector<double> weights;
          const double lz = g.log_weights(eta, weights);
          ASSERT_EQ(weights.size(), model::state_space_size(n));
          EXPECT_EQ(lz, ref::log_partition(g, eta));
          model::for_each_state(n, [&](const model::NetState& s) {
            EXPECT_EQ(weights[model::state_index(n, s)], g.log_weight(s, eta));
          });
          expect_same_marginals(g.marginals(weights, lz),
                                ref::marginals(g, eta));
          EXPECT_EQ(g.dual_value(eta, lz), ref::dual_value(g, eta));
        }
      }
    }
  }
  EXPECT_TRUE(saw_underflow);
}

TEST(ExactGibbs, RejectsMismatchedWeightBuffer) {
  const ExactGibbs g(paper_nodes(), Mode::kGroupput, 0.5);
  std::vector<double> weights(10, 0.0);  // |W| is 112 at N = 5
  EXPECT_THROW(g.marginals(weights, 0.0), std::invalid_argument);
}

// ------------------------------------------------------ symmetric collapse --

TEST(SymmetricGibbs, MatchesExactEnumeration) {
  for (const Mode mode : {Mode::kGroupput, Mode::kAnyput}) {
    for (const double sigma : {0.25, 0.5, 1.0}) {
      const auto nodes = paper_nodes(6);
      const SymmetricGibbs sym(6, nodes.front(), mode, sigma);
      const ExactGibbs exact(nodes, mode, sigma);
      for (const double eta : {0.0, 0.001, 0.005}) {
        const Marginals ms = sym.marginals(eta);
        const Marginals me = exact.marginals(std::vector<double>(6, eta));
        EXPECT_NEAR(ms.log_partition, me.log_partition, 1e-9)
            << model::to_string(mode) << " sigma=" << sigma << " eta=" << eta;
        EXPECT_NEAR(ms.alpha.front(), me.alpha.front(), 1e-9);
        EXPECT_NEAR(ms.beta.front(), me.beta.front(), 1e-9);
        EXPECT_NEAR(ms.expected_throughput, me.expected_throughput, 1e-9);
        EXPECT_NEAR(ms.entropy, me.entropy, 1e-7);
      }
    }
  }
}

TEST(SymmetricGibbs, BurstSumsMatchExact) {
  const auto nodes = paper_nodes(5);
  for (const Mode mode : {Mode::kGroupput, Mode::kAnyput}) {
    const SymmetricGibbs sym(5, nodes.front(), mode, 0.3);
    const ExactGibbs exact(nodes, mode, 0.3);
    const BurstSums a = sym.burst_sums(0.002);
    const BurstSums b = exact.burst_sums(std::vector<double>(5, 0.002));
    EXPECT_NEAR(a.log_success_mass, b.log_success_mass, 1e-9);
    EXPECT_NEAR(a.log_burst_rate, b.log_burst_rate, 1e-9);
  }
}

TEST(SymmetricGibbs, DualDerivativeMatchesFiniteDifference) {
  const SymmetricGibbs sym(8, {10.0, 500.0, 500.0}, Mode::kGroupput, 0.5);
  for (const double eta : {0.001, 0.004, 0.01}) {
    const double h = 1e-8;
    const double fd = (sym.dual_value(eta + h) - sym.dual_value(eta - h)) /
                      (2.0 * h);
    EXPECT_NEAR(sym.dual_derivative(eta), fd, 1e-3);
  }
}

TEST(SymmetricGibbs, OptimalEtaSatisfiesBudget) {
  const SymmetricGibbs sym(5, {10.0, 500.0, 500.0}, Mode::kGroupput, 0.5);
  const double eta = sym.solve_optimal_eta();
  const Marginals m = sym.marginals(eta);
  const double power = m.alpha.front() * 500.0 + m.beta.front() * 500.0;
  EXPECT_NEAR(power, 10.0, 1e-6);  // complementary slackness with η* > 0
  EXPECT_GT(eta, 0.0);
}

TEST(SymmetricGibbs, EnergyRichNetworkHasZeroEta) {
  // Budget large enough that damping is unnecessary.
  const SymmetricGibbs sym(4, {1e6, 1.0, 1.0}, Mode::kGroupput, 0.5);
  EXPECT_DOUBLE_EQ(sym.solve_optimal_eta(), 0.0);
}

TEST(SymmetricGibbs, ScalesToLargeN) {
  const SymmetricGibbs sym(200, {10.0, 500.0, 500.0}, Mode::kGroupput, 0.25);
  const double eta = sym.solve_optimal_eta();
  EXPECT_TRUE(std::isfinite(eta));
  const Marginals m = sym.marginals(eta);
  EXPECT_GT(m.expected_throughput, 0.0);
}

// ------------------------------------------------------------- burstiness --

TEST(Burstiness, AnyputClosedFormIndependentOfN) {
  // Eq. (35): B_a = exp(1/σ) regardless of N.
  for (const std::size_t n : {5u, 10u}) {
    const double b =
        average_burst_length(paper_nodes(n), Mode::kAnyput, 0.5);
    EXPECT_NEAR(b, std::exp(2.0), 0.02) << "N=" << n;
  }
  EXPECT_NEAR(anyput_burst_closed_form(0.25), std::exp(4.0), 1e-9);
}

TEST(Burstiness, GroupputGrowsAsSigmaShrinks) {
  double prev = 0.0;
  for (const double sigma : {1.0, 0.5, 0.25, 0.15}) {
    const double b =
        average_burst_length(paper_nodes(5), Mode::kGroupput, sigma);
    EXPECT_GT(b, prev) << "sigma=" << sigma;
    prev = b;
  }
}

TEST(Burstiness, GroupputGrowsWithN) {
  // Fig. 4(a): more listeners -> longer captures.
  const double b5 =
      average_burst_length(paper_nodes(5), Mode::kGroupput, 0.25);
  const double b10 =
      average_burst_length(paper_nodes(10), Mode::kGroupput, 0.25);
  EXPECT_GT(b10, b5);
}

TEST(Burstiness, GroupputAtLeastOnePacket) {
  EXPECT_GE(average_burst_length(paper_nodes(5), Mode::kGroupput, 1.0), 1.0);
}

TEST(Burstiness, PaperFigure4Magnitudes) {
  // §VII-D quotes an average burst length of ~85 for σ = 0.25, N = 10 and
  // ~4e5 for σ = 0.1 (we require the same order of magnitude).
  const double b25 =
      average_burst_length(paper_nodes(10), Mode::kGroupput, 0.25);
  EXPECT_GT(b25, 40.0);
  EXPECT_LT(b25, 200.0);
  const double b10 =
      average_burst_length(paper_nodes(10), Mode::kGroupput, 0.1);
  EXPECT_GT(b10, 5e4);
  EXPECT_LT(b10, 5e6);
}

TEST(Burstiness, RejectsBadSigma) {
  EXPECT_THROW(anyput_burst_closed_form(0.0), std::invalid_argument);
  EXPECT_THROW(anyput_burst_closed_form(-1.0), std::invalid_argument);
}

}  // namespace
