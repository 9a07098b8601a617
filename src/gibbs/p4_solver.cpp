#include "gibbs/p4_solver.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "gibbs/exact.h"
#include "gibbs/symmetric.h"

namespace econcast::gibbs {

namespace {

// Relative KKT residual of the dual iterate: budget violations everywhere,
// complementary slackness where η_i is active.
double kkt_residual(const model::NodeSet& nodes,
                    const std::vector<double>& eta, const Marginals& m) {
  double res = 0.0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const double power =
        m.alpha[i] * nodes[i].listen_power + m.beta[i] * nodes[i].transmit_power;
    const double rel = (power - nodes[i].budget) / nodes[i].budget;
    res = std::max(res, rel);                        // infeasibility
    if (eta[i] > 1e-14) res = std::max(res, std::abs(rel));  // slackness
  }
  return res;
}

// `m` holds the moments at `eta` (its log_partition is log Z_η).
P4Result finalize(const ExactGibbs& gibbs, std::vector<double> eta,
                  const Marginals& m, std::size_t iters, bool converged) {
  P4Result out;
  out.dual = gibbs.dual_value(eta, m.log_partition);
  out.eta = std::move(eta);
  out.alpha = m.alpha;
  out.beta = m.beta;
  out.throughput = m.expected_throughput;
  out.objective = m.expected_throughput + gibbs.sigma() * m.entropy;
  out.iterations = iters;
  out.converged = converged;
  return out;
}

P4Result solve_algorithm1(const ExactGibbs& gibbs, const P4Options& opt) {
  const std::size_t n = gibbs.num_nodes();
  const model::NodeSet& nodes = gibbs.nodes();
  std::vector<double> eta(n, 0.0);
  std::vector<double> weights;
  for (std::size_t k = 1; k <= opt.max_iterations; ++k) {
    const double log_z = gibbs.log_weights(eta, weights);
    const Marginals m = gibbs.marginals(weights, log_z);
    if (kkt_residual(nodes, eta, m) < opt.tolerance)
      return finalize(gibbs, std::move(eta), m, k, true);
    const double delta = opt.delta0 / static_cast<double>(k);
    for (std::size_t i = 0; i < n; ++i) {
      const double grad = nodes[i].budget -
                          (m.alpha[i] * nodes[i].listen_power +
                           m.beta[i] * nodes[i].transmit_power);
      eta[i] = std::max(0.0, eta[i] - delta * grad);
    }
  }
  const double log_z = gibbs.log_weights(eta, weights);
  return finalize(gibbs, std::move(eta), gibbs.marginals(weights, log_z),
                  opt.max_iterations, false);
}

// The accepted candidate's log-weight pass becomes the next iterate's, so
// each iteration evaluates W once per backtracking candidate and then takes
// the moments from the stored weights.
P4Result solve_accelerated(const ExactGibbs& gibbs, const P4Options& opt) {
  const std::size_t n = gibbs.num_nodes();
  const model::NodeSet& nodes = gibbs.nodes();
  std::vector<double> eta(n, 0.0);
  std::vector<double> weights;
  double log_z = gibbs.log_weights(eta, weights);
  double dual = gibbs.dual_value(eta, log_z);

  // Initial step: the dual curvature scales like max(L,X)^2 / σ.
  double worst_power = 0.0;
  for (const auto& p : nodes)
    worst_power = std::max({worst_power, p.listen_power, p.transmit_power});
  double t = gibbs.sigma() / (worst_power * worst_power *
                              static_cast<double>(n));

  std::vector<double> candidate(n);
  std::vector<double> candidate_weights;
  std::vector<double> grad(n);
  for (std::size_t k = 1; k <= opt.max_iterations; ++k) {
    const Marginals m = gibbs.marginals(weights, log_z);
    if (kkt_residual(nodes, eta, m) < opt.tolerance)
      return finalize(gibbs, std::move(eta), m, k, true);

    for (std::size_t i = 0; i < n; ++i)
      grad[i] = nodes[i].budget - (m.alpha[i] * nodes[i].listen_power +
                                   m.beta[i] * nodes[i].transmit_power);

    // Backtracking proximal-gradient step on the convex dual.
    bool accepted = false;
    for (int bt = 0; bt < 60 && !accepted; ++bt) {
      double step_sq = 0.0, step_dot_grad = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        candidate[i] = std::max(0.0, eta[i] - t * grad[i]);
        const double d = candidate[i] - eta[i];
        step_sq += d * d;
        step_dot_grad += d * grad[i];
      }
      if (step_sq == 0.0) return finalize(gibbs, std::move(eta), m, k, true);
      const double candidate_log_z =
          gibbs.log_weights(candidate, candidate_weights);
      const double cand_dual = gibbs.dual_value(candidate, candidate_log_z);
      if (cand_dual <= dual + step_dot_grad + step_sq / (2.0 * t) + 1e-15) {
        eta.swap(candidate);
        weights.swap(candidate_weights);
        log_z = candidate_log_z;
        dual = cand_dual;
        t *= 1.3;  // optimistic growth for the next iteration
        accepted = true;
      } else {
        t *= 0.5;
      }
    }
    if (!accepted) return finalize(gibbs, std::move(eta), m, k, false);
  }
  return finalize(gibbs, std::move(eta), gibbs.marginals(weights, log_z),
                  opt.max_iterations, false);
}

P4Result solve_symmetric(const model::NodeSet& nodes, model::Mode mode,
                         double sigma, const P4Options& opt) {
  SymmetricGibbs gibbs(nodes.size(), nodes.front(), mode, sigma);
  const double eta = gibbs.solve_optimal_eta(opt.tolerance * 1e-2);
  const Marginals m = gibbs.marginals(eta);
  P4Result out;
  out.eta.assign(nodes.size(), eta);
  out.alpha = m.alpha;
  out.beta = m.beta;
  out.throughput = m.expected_throughput;
  out.objective = m.expected_throughput + sigma * m.entropy;
  out.dual = gibbs.dual_value(eta);
  out.iterations = 1;
  out.converged = true;
  return out;
}

}  // namespace

P4Result solve_p4(const model::NodeSet& nodes, model::Mode mode, double sigma,
                  const P4Options& options) {
  model::validate(nodes);
  if (nodes.size() < 2)
    throw std::invalid_argument("P4 needs at least two nodes");
  switch (options.method) {
    case P4Method::kAutomatic:
      if (model::is_homogeneous(nodes))
        return solve_symmetric(nodes, mode, sigma, options);
      return solve_accelerated(ExactGibbs(nodes, mode, sigma), options);
    case P4Method::kAlgorithm1:
      return solve_algorithm1(ExactGibbs(nodes, mode, sigma), options);
    case P4Method::kAccelerated:
      return solve_accelerated(ExactGibbs(nodes, mode, sigma), options);
  }
  throw std::logic_error("unreachable");
}

}  // namespace econcast::gibbs
