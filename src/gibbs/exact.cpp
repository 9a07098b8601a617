#include "gibbs/exact.h"

#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "util/logsumexp.h"

namespace econcast::gibbs {

using model::NetState;

namespace {
constexpr std::size_t kMaxNodes = 16;
}  // namespace

ExactGibbs::ExactGibbs(model::NodeSet nodes, model::Mode mode, double sigma)
    : nodes_(std::move(nodes)), mode_(mode), sigma_(sigma) {
  model::validate(nodes_);
  if (!(sigma > 0.0)) throw std::invalid_argument("sigma must be positive");
  if (nodes_.size() > kMaxNodes)
    throw std::invalid_argument(
        "ExactGibbs supports N <= 16; use SymmetricGibbs for large "
        "homogeneous networks");
  states_.reserve(model::state_space_size(nodes_.size()));
  model::for_each_state(nodes_.size(), [&](const NetState& s) {
    states_.push_back(StateRow{static_cast<std::uint16_t>(s.listeners),
                               static_cast<std::int16_t>(s.transmitter)});
  });
}

void ExactGibbs::check_eta(const std::vector<double>& eta) const {
  if (eta.size() != nodes_.size())
    throw std::invalid_argument("eta size mismatch");
}

// model::state_throughput of the row's state.
double ExactGibbs::throughput(const StateRow& row) const noexcept {
  if (row.transmitter < 0) return 0.0;
  if (mode_ == model::Mode::kGroupput)
    return static_cast<double>(std::popcount(row.listeners));
  return row.listeners != 0 ? 1.0 : 0.0;
}

double ExactGibbs::log_weight(const NetState& state,
                              const std::vector<double>& eta) const {
  double exponent = model::state_throughput(state, mode_);
  std::uint64_t mask = state.listeners;
  while (mask) {
    const int i = std::countr_zero(mask);
    exponent -= eta[static_cast<std::size_t>(i)] *
                nodes_[static_cast<std::size_t>(i)].listen_power;
    mask &= mask - 1;
  }
  if (state.has_transmitter()) {
    const auto tx = static_cast<std::size_t>(state.transmitter);
    exponent -= eta[tx] * nodes_[tx].transmit_power;
  }
  return exponent / sigma_;
}

// Same arithmetic, in the same order, as log_weight on every state: start
// at T_w, subtract the listener terms in ascending bit order, then the
// transmitter term, divide by σ, and accumulate log Z in enumeration order.
// The products η_i L_i and η_i X_i are formed once per pass; they are the
// same doubles log_weight forms per state, so every weight is bit-identical.
double ExactGibbs::log_weights(const std::vector<double>& eta,
                               std::vector<double>& weights) const {
  check_eta(eta);
  std::array<double, kMaxNodes> listen_cost{};
  std::array<double, kMaxNodes> transmit_cost{};
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    listen_cost[i] = eta[i] * nodes_[i].listen_power;
    transmit_cost[i] = eta[i] * nodes_[i].transmit_power;
  }
  weights.resize(states_.size());
  util::LogSumExp log_z;
  for (std::size_t k = 0; k < states_.size(); ++k) {
    const StateRow row = states_[k];
    double exponent = throughput(row);
    unsigned mask = row.listeners;
    while (mask) {
      exponent -= listen_cost[static_cast<std::size_t>(std::countr_zero(mask))];
      mask &= mask - 1;
    }
    if (row.transmitter >= 0)
      exponent -= transmit_cost[static_cast<std::size_t>(row.transmitter)];
    const double lw = exponent / sigma_;
    weights[k] = lw;
    log_z.add(lw);
  }
  return log_z.value();
}

Marginals ExactGibbs::marginals(const std::vector<double>& eta) const {
  std::vector<double> lw;
  const double lz = log_weights(eta, lw);
  return marginals(lw, lz);
}

Marginals ExactGibbs::marginals(const std::vector<double>& weights,
                                double log_z) const {
  if (weights.size() != states_.size())
    throw std::invalid_argument("log-weight buffer size mismatch");
  Marginals out;
  out.log_partition = log_z;
  out.alpha.assign(nodes_.size(), 0.0);
  out.beta.assign(nodes_.size(), 0.0);
  double expected_t = 0.0;
  double expected_exponent = 0.0;  // E[log-weight] for the entropy
  for (std::size_t k = 0; k < states_.size(); ++k) {
    const double lw = weights[k];
    const double p = std::exp(lw - log_z);
    if (p == 0.0) continue;
    const StateRow row = states_[k];
    unsigned mask = row.listeners;
    while (mask) {
      out.alpha[static_cast<std::size_t>(std::countr_zero(mask))] += p;
      mask &= mask - 1;
    }
    if (row.transmitter >= 0)
      out.beta[static_cast<std::size_t>(row.transmitter)] += p;
    expected_t += p * throughput(row);
    expected_exponent += p * lw;
  }
  out.expected_throughput = expected_t;
  out.entropy = log_z - expected_exponent;
  return out;
}

BurstSums ExactGibbs::burst_sums(const std::vector<double>& eta) const {
  std::vector<double> lw;
  const double lz = log_weights(eta, lw);
  util::LogSumExp mass, rate;
  for (std::size_t k = 0; k < states_.size(); ++k) {
    const StateRow row = states_[k];
    if (row.transmitter < 0 || row.listeners == 0) continue;
    mass.add(lw[k]);
    // Groupput bursts end at rate exp(-c_w/σ), anyput at exp(-γ_w/σ).
    const double end_rate = mode_ == model::Mode::kGroupput
                                ? static_cast<double>(std::popcount(row.listeners))
                                : 1.0;
    rate.add(lw[k] - end_rate / sigma_);
  }
  return BurstSums{mass.value() - lz, rate.value() - lz};
}

std::vector<double> ExactGibbs::distribution(
    const std::vector<double>& eta) const {
  std::vector<double> pi;
  const double lz = log_weights(eta, pi);
  for (double& p : pi) p = std::exp(p - lz);
  return pi;
}

double ExactGibbs::dual_value(const std::vector<double>& eta) const {
  std::vector<double> lw;
  return dual_value(eta, log_weights(eta, lw));
}

double ExactGibbs::dual_value(const std::vector<double>& eta,
                              double log_z) const {
  check_eta(eta);
  double dual = sigma_ * log_z;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    dual += eta[i] * nodes_[i].budget;
  return dual;
}

std::vector<double> ExactGibbs::dual_gradient(
    const std::vector<double>& eta) const {
  const Marginals m = marginals(eta);
  std::vector<double> grad(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    grad[i] = nodes_[i].budget - (m.alpha[i] * nodes_[i].listen_power +
                                  m.beta[i] * nodes_[i].transmit_power);
  return grad;
}

}  // namespace econcast::gibbs
