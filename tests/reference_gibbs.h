// Reference evaluation of the exact Gibbs distribution (19): the per-state
// loops ExactGibbs ran before it kept a table of W, i.e. model::for_each_state
// plus ExactGibbs::log_weight on every state, with log Z recomputed in every
// call. The table-driven ExactGibbs must reproduce these results bit for
// bit; test_gibbs and test_p4 compare against them with exact equality.
#ifndef ECONCAST_TESTS_REFERENCE_GIBBS_H
#define ECONCAST_TESTS_REFERENCE_GIBBS_H

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "gibbs/exact.h"
#include "model/state_space.h"
#include "util/logsumexp.h"

namespace econcast::testing_support::reference_gibbs {

inline double log_partition(const gibbs::ExactGibbs& g,
                            const std::vector<double>& eta) {
  util::LogSumExp log_z;
  model::for_each_state(g.num_nodes(), [&](const model::NetState& s) {
    log_z.add(g.log_weight(s, eta));
  });
  return log_z.value();
}

inline gibbs::Marginals marginals(const gibbs::ExactGibbs& g,
                                  const std::vector<double>& eta) {
  const std::size_t n = g.num_nodes();
  const double lz = log_partition(g, eta);
  gibbs::Marginals out;
  out.log_partition = lz;
  out.alpha.assign(n, 0.0);
  out.beta.assign(n, 0.0);
  double expected_t = 0.0;
  double expected_exponent = 0.0;
  model::for_each_state(n, [&](const model::NetState& s) {
    const double lw = g.log_weight(s, eta);
    const double p = std::exp(lw - lz);
    if (p == 0.0) return;
    std::uint64_t mask = s.listeners;
    while (mask) {
      const int i = std::countr_zero(mask);
      out.alpha[static_cast<std::size_t>(i)] += p;
      mask &= mask - 1;
    }
    if (s.has_transmitter())
      out.beta[static_cast<std::size_t>(s.transmitter)] += p;
    expected_t += p * model::state_throughput(s, g.mode());
    expected_exponent += p * lw;
  });
  out.expected_throughput = expected_t;
  out.entropy = lz - expected_exponent;
  return out;
}

inline gibbs::BurstSums burst_sums(const gibbs::ExactGibbs& g,
                                   const std::vector<double>& eta) {
  util::LogSumExp log_z, mass, rate;
  model::for_each_state(g.num_nodes(), [&](const model::NetState& s) {
    const double lw = g.log_weight(s, eta);
    log_z.add(lw);
    if (s.has_transmitter() && s.any_listener()) {
      mass.add(lw);
      const double end_rate = g.mode() == model::Mode::kGroupput
                                  ? static_cast<double>(s.listener_count())
                                  : 1.0;
      rate.add(lw - end_rate / g.sigma());
    }
  });
  const double lz = log_z.value();
  return gibbs::BurstSums{mass.value() - lz, rate.value() - lz};
}

inline std::vector<double> distribution(const gibbs::ExactGibbs& g,
                                        const std::vector<double>& eta) {
  const std::size_t n = g.num_nodes();
  std::vector<double> pi(model::state_space_size(n));
  const double lz = log_partition(g, eta);
  model::for_each_state(n, [&](const model::NetState& s) {
    pi[model::state_index(n, s)] = std::exp(g.log_weight(s, eta) - lz);
  });
  return pi;
}

inline double dual_value(const gibbs::ExactGibbs& g,
                         const std::vector<double>& eta) {
  double dual = g.sigma() * log_partition(g, eta);
  for (std::size_t i = 0; i < g.num_nodes(); ++i)
    dual += eta[i] * g.nodes()[i].budget;
  return dual;
}

}  // namespace econcast::testing_support::reference_gibbs

#endif  // ECONCAST_TESTS_REFERENCE_GIBBS_H
