// Tests for the (P4) solvers: Algorithm 1, the accelerated dual method, the
// symmetric fast path, and the theoretical relationships of §VI (duality,
// σ → 0 convergence to the oracle — Theorem 1's deterministic core).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "gibbs/exact.h"
#include "gibbs/p4_solver.h"
#include "oracle/clique_oracle.h"
#include "reference_gibbs.h"
#include "util/random.h"

namespace {

using namespace econcast;
using namespace econcast::gibbs;
using model::Mode;

model::NodeSet paper_nodes(std::size_t n = 5) {
  return model::homogeneous(n, 10.0, 500.0, 500.0);
}

void expect_budget_respected(const model::NodeSet& nodes, const P4Result& r,
                             double rel_tol) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const double power = r.alpha[i] * nodes[i].listen_power +
                         r.beta[i] * nodes[i].transmit_power;
    EXPECT_LE(power, nodes[i].budget * (1.0 + rel_tol)) << "node " << i;
  }
}

TEST(P4Solver, SymmetricPathConverges) {
  const P4Result r = solve_p4(paper_nodes(), Mode::kGroupput, 0.5);
  EXPECT_TRUE(r.converged);
  expect_budget_respected(paper_nodes(), r, 1e-6);
  EXPECT_GT(r.throughput, 0.0);
  EXPECT_LT(r.throughput, 0.08);  // strictly below the oracle at σ > 0
}

TEST(P4Solver, StrongDualityAtOptimum) {
  // D(η*) equals the (P4) optimum (objective includes the entropy term).
  for (const Mode mode : {Mode::kGroupput, Mode::kAnyput}) {
    const P4Result r = solve_p4(paper_nodes(), mode, 0.5);
    EXPECT_NEAR(r.objective, r.dual, 1e-6 * std::abs(r.dual) + 1e-8);
  }
}

TEST(P4Solver, AcceleratedMatchesSymmetricOnHomogeneous) {
  const auto nodes = paper_nodes();
  P4Options accel;
  accel.method = P4Method::kAccelerated;
  accel.tolerance = 1e-9;
  const P4Result a = solve_p4(nodes, Mode::kGroupput, 0.5, accel);
  const P4Result s = solve_p4(nodes, Mode::kGroupput, 0.5);
  ASSERT_TRUE(a.converged);
  EXPECT_NEAR(a.throughput, s.throughput, 1e-5);
  EXPECT_NEAR(a.eta[0], s.eta[0], 1e-4 * s.eta[0] + 1e-8);
}

TEST(P4Solver, Algorithm1MatchesAccelerated) {
  // The paper's Algorithm 1 (δ_k = δ_0/k) on a small instance. The 1/k decay
  // converges slowly, so we compare multipliers (the throughput is steeply
  // sensitive to η near the optimum).
  const auto nodes = paper_nodes(3);
  P4Options alg1;
  alg1.method = P4Method::kAlgorithm1;
  alg1.max_iterations = 100000;
  alg1.tolerance = 1e-6;
  alg1.delta0 = 1e-5;  // scaled to the µW unit system
  const P4Result a = solve_p4(nodes, Mode::kGroupput, 0.5, alg1);
  const P4Result b = solve_p4(nodes, Mode::kGroupput, 0.5);
  EXPECT_NEAR(a.eta[0], b.eta[0], 0.05 * b.eta[0]);
  EXPECT_NEAR(a.throughput, b.throughput, 0.3 * b.throughput);
}

TEST(P4Solver, ThroughputIncreasesAsSigmaDecreases) {
  double prev = 0.0;
  for (const double sigma : {1.0, 0.5, 0.25, 0.1}) {
    const double t = solve_p4(paper_nodes(), Mode::kGroupput, sigma).throughput;
    EXPECT_GT(t, prev) << "sigma=" << sigma;
    prev = t;
  }
}

TEST(P4Solver, ConvergesToOracleAsSigmaVanishes) {
  // Theorem 1 (deterministic part): T^σ -> T* as σ -> 0.
  const auto nodes = paper_nodes();
  const double oracle_t = oracle::groupput(nodes).throughput;
  const double t_small = solve_p4(nodes, Mode::kGroupput, 0.02).throughput;
  EXPECT_GT(t_small / oracle_t, 0.9);
  const double t_tiny = solve_p4(nodes, Mode::kGroupput, 0.005).throughput;
  EXPECT_GT(t_tiny / oracle_t, 0.97);
}

TEST(P4Solver, AnyputConvergesToOracleAsSigmaVanishes) {
  const auto nodes = paper_nodes();
  const double oracle_t = oracle::anyput(nodes).throughput;
  const double t = solve_p4(nodes, Mode::kAnyput, 0.01).throughput;
  EXPECT_GT(t / oracle_t, 0.93);
}

TEST(P4Solver, NeverExceedsOracle) {
  util::Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    const auto nodes = model::sample_heterogeneous(5, 200.0, rng);
    for (const Mode mode : {Mode::kGroupput, Mode::kAnyput}) {
      const double t_sigma = solve_p4(nodes, mode, 0.3).throughput;
      const double t_star = oracle::solve(nodes, mode).throughput;
      EXPECT_LE(t_sigma, t_star + 1e-7);
    }
  }
}

TEST(P4Solver, HeterogeneousBudgetsRespected) {
  util::Rng rng(22);
  for (int trial = 0; trial < 8; ++trial) {
    const auto nodes = model::sample_heterogeneous(5, 150.0, rng);
    const P4Result r = solve_p4(nodes, Mode::kGroupput, 0.25);
    EXPECT_TRUE(r.converged);
    expect_budget_respected(nodes, r, 1e-5);
  }
}

TEST(P4Solver, PaperFigure3Ratios) {
  // §VII-C headline: at L = X = 500 µW the groupput ratio is ~6x Panda at
  // σ = 0.5 and ~17x at σ = 0.25, i.e. ratios ≈ 0.14 and ≈ 0.43.
  const auto nodes = paper_nodes();
  const double t_star = oracle::groupput(nodes).throughput;
  const double r_05 = solve_p4(nodes, Mode::kGroupput, 0.5).throughput / t_star;
  const double r_025 =
      solve_p4(nodes, Mode::kGroupput, 0.25).throughput / t_star;
  EXPECT_NEAR(r_05, 0.143, 0.03);
  EXPECT_NEAR(r_025, 0.428, 0.05);
  EXPECT_GT(r_025 / r_05, 2.0);
}

TEST(P4Solver, ThroughputRatioPeaksNearSymmetricPower) {
  // Fig. 3 shape: the ratio T^σ/T* improves as X/L -> 1.
  const double rho = 10.0;
  auto ratio_at = [&](double x_over_l) {
    const double x = 1000.0 * x_over_l / (1.0 + x_over_l);
    const double l = 1000.0 - x;
    const auto nodes = model::homogeneous(5, rho, l, x);
    return solve_p4(nodes, Mode::kGroupput, 0.5).throughput /
           oracle::groupput(nodes).throughput;
  };
  const double at_1 = ratio_at(1.0);
  EXPECT_GT(at_1, ratio_at(1.0 / 9.0));
  EXPECT_GT(at_1, ratio_at(9.0));
}

TEST(P4Solver, AnyputRatioDegradesForExpensiveTransmit) {
  // §VII-C: anyput degrades with large X/L.
  auto ratio_at = [&](double x_over_l) {
    const double x = 1000.0 * x_over_l / (1.0 + x_over_l);
    const double l = 1000.0 - x;
    const auto nodes = model::homogeneous(5, 10.0, l, x);
    return solve_p4(nodes, Mode::kAnyput, 0.25).throughput /
           oracle::anyput(nodes).throughput;
  };
  EXPECT_GT(ratio_at(1.0), ratio_at(9.0));
}

TEST(P4Solver, RejectsBadInputs) {
  EXPECT_THROW(solve_p4(model::homogeneous(1, 1, 1, 1), Mode::kGroupput, 0.5),
               std::invalid_argument);
  EXPECT_THROW(solve_p4(paper_nodes(), Mode::kGroupput, 0.0),
               std::invalid_argument);
}

// ------------------------------------------- pinned pre-table solver loops --
// The (P4) solvers as they ran before ExactGibbs kept a table of W: every
// η re-evaluated from scratch through the per-state reference loops
// (tests/reference_gibbs.h), with finalize recomputing the moments and the
// dual at the returned η. The table-driven solvers must match them bit for
// bit, iteration count included.
namespace ref = testing_support::reference_gibbs;

double reference_kkt_residual(const model::NodeSet& nodes,
                              const std::vector<double>& eta,
                              const Marginals& m) {
  double res = 0.0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const double power =
        m.alpha[i] * nodes[i].listen_power + m.beta[i] * nodes[i].transmit_power;
    const double rel = (power - nodes[i].budget) / nodes[i].budget;
    res = std::max(res, rel);
    if (eta[i] > 1e-14) res = std::max(res, std::abs(rel));
  }
  return res;
}

P4Result reference_finalize(const ExactGibbs& g, std::vector<double> eta,
                            std::size_t iters, bool converged) {
  const Marginals m = ref::marginals(g, eta);
  P4Result out;
  out.dual = ref::dual_value(g, eta);
  out.eta = std::move(eta);
  out.alpha = m.alpha;
  out.beta = m.beta;
  out.throughput = m.expected_throughput;
  out.objective = m.expected_throughput + g.sigma() * m.entropy;
  out.iterations = iters;
  out.converged = converged;
  return out;
}

P4Result reference_accelerated(const ExactGibbs& g, const P4Options& opt) {
  const std::size_t n = g.num_nodes();
  const model::NodeSet& nodes = g.nodes();
  std::vector<double> eta(n, 0.0);
  double dual = ref::dual_value(g, eta);
  double worst_power = 0.0;
  for (const auto& p : nodes)
    worst_power = std::max({worst_power, p.listen_power, p.transmit_power});
  double t = g.sigma() / (worst_power * worst_power * static_cast<double>(n));
  std::vector<double> candidate(n);
  for (std::size_t k = 1; k <= opt.max_iterations; ++k) {
    const Marginals m = ref::marginals(g, eta);
    if (reference_kkt_residual(nodes, eta, m) < opt.tolerance)
      return reference_finalize(g, std::move(eta), k, true);
    std::vector<double> grad(n);
    for (std::size_t i = 0; i < n; ++i)
      grad[i] = nodes[i].budget - (m.alpha[i] * nodes[i].listen_power +
                                   m.beta[i] * nodes[i].transmit_power);
    bool accepted = false;
    for (int bt = 0; bt < 60 && !accepted; ++bt) {
      double step_sq = 0.0, step_dot_grad = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        candidate[i] = std::max(0.0, eta[i] - t * grad[i]);
        const double d = candidate[i] - eta[i];
        step_sq += d * d;
        step_dot_grad += d * grad[i];
      }
      if (step_sq == 0.0) return reference_finalize(g, std::move(eta), k, true);
      const double cand_dual = ref::dual_value(g, candidate);
      if (cand_dual <= dual + step_dot_grad + step_sq / (2.0 * t) + 1e-15) {
        eta.swap(candidate);
        dual = cand_dual;
        t *= 1.3;
        accepted = true;
      } else {
        t *= 0.5;
      }
    }
    if (!accepted) return reference_finalize(g, std::move(eta), k, false);
  }
  return reference_finalize(g, std::move(eta), opt.max_iterations, false);
}

P4Result reference_algorithm1(const ExactGibbs& g, const P4Options& opt) {
  const std::size_t n = g.num_nodes();
  const model::NodeSet& nodes = g.nodes();
  std::vector<double> eta(n, 0.0);
  for (std::size_t k = 1; k <= opt.max_iterations; ++k) {
    const Marginals m = ref::marginals(g, eta);
    if (reference_kkt_residual(nodes, eta, m) < opt.tolerance)
      return reference_finalize(g, std::move(eta), k, true);
    const double delta = opt.delta0 / static_cast<double>(k);
    for (std::size_t i = 0; i < n; ++i) {
      const double grad = nodes[i].budget -
                          (m.alpha[i] * nodes[i].listen_power +
                           m.beta[i] * nodes[i].transmit_power);
      eta[i] = std::max(0.0, eta[i] - delta * grad);
    }
  }
  return reference_finalize(g, std::move(eta), opt.max_iterations, false);
}

void expect_identical(const P4Result& got, const P4Result& want) {
  EXPECT_EQ(got.eta, want.eta);
  EXPECT_EQ(got.alpha, want.alpha);
  EXPECT_EQ(got.beta, want.beta);
  EXPECT_EQ(got.throughput, want.throughput);
  EXPECT_EQ(got.objective, want.objective);
  EXPECT_EQ(got.dual, want.dual);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
}

TEST(P4Solver, AcceleratedMatchesPinnedPerStateLoopBitForBit) {
  // 36 Fig. 2-style cells: N = 5 networks sampled by the §VII-B process at
  // each h, crossed with σ and both modes (h = 10 is homogeneous, so this
  // forces the accelerated method there too).
  P4Options opt;
  opt.method = P4Method::kAccelerated;
  util::Rng rng(0xF162);
  std::size_t cells = 0;
  for (const double h : {10.0, 50.0, 100.0, 150.0, 200.0, 250.0}) {
    const auto nodes = model::sample_heterogeneous(5, h, rng);
    for (const double sigma : {0.1, 0.25, 0.5}) {
      for (const Mode mode : {Mode::kGroupput, Mode::kAnyput}) {
        SCOPED_TRACE(testing::Message() << "h=" << h << " sigma=" << sigma
                                        << " " << model::to_string(mode));
        const P4Result want =
            reference_accelerated(ExactGibbs(nodes, mode, sigma), opt);
        expect_identical(solve_p4(nodes, mode, sigma, opt), want);
        if (!model::is_homogeneous(nodes))
          expect_identical(solve_p4(nodes, mode, sigma), want);
        ++cells;
      }
    }
  }
  EXPECT_EQ(cells, 36u);
}

TEST(P4Solver, CappedSolversMatchPinnedPerStateLoopBitForBit) {
  // The iteration-cap exits (finalize at an η whose moments were not yet
  // taken), for both methods.
  util::Rng rng(0xA1);
  const auto nodes = model::sample_heterogeneous(5, 200.0, rng);
  for (const P4Method method :
       {P4Method::kAlgorithm1, P4Method::kAccelerated}) {
    P4Options opt;
    opt.method = method;
    opt.max_iterations = 40;
    opt.delta0 = 1e-5;
    const ExactGibbs g(nodes, Mode::kGroupput, 0.25);
    const P4Result want = method == P4Method::kAlgorithm1
                              ? reference_algorithm1(g, opt)
                              : reference_accelerated(g, opt);
    EXPECT_FALSE(want.converged);
    expect_identical(solve_p4(nodes, Mode::kGroupput, 0.25, opt), want);
  }
}

// Property sweep over (N, σ): budgets respected, duality gap closed,
// throughput within (0, T*].
class P4Sweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(P4Sweep, Invariants) {
  const auto [n, sigma] = GetParam();
  const auto nodes = paper_nodes(n);
  const P4Result r = solve_p4(nodes, Mode::kGroupput, sigma);
  EXPECT_TRUE(r.converged);
  expect_budget_respected(nodes, r, 1e-6);
  EXPECT_GT(r.throughput, 0.0);
  EXPECT_LE(r.throughput, oracle::groupput(nodes).throughput + 1e-9);
  EXPECT_NEAR(r.objective, r.dual, 1e-5 * std::abs(r.dual) + 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    GridOfNAndSigma, P4Sweep,
    ::testing::Combine(::testing::Values(std::size_t{2}, std::size_t{5},
                                         std::size_t{10}),
                       ::testing::Values(0.1, 0.25, 0.5, 1.0)));

}  // namespace
