#include "gibbs/symmetric.h"

#include <math.h>  // lgamma_r: POSIX, not declared by <cmath>

#include <cmath>
#include <stdexcept>

#include "util/logsumexp.h"

namespace econcast::gibbs {

namespace {
/// log Γ(x), via the reentrant lgamma_r: std::lgamma also stores the sign
/// of Γ(x) in the global `signgam`, a data race when sweeps build
/// SymmetricGibbs on several executor threads at once. The values are
/// bit-identical.
double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

std::vector<double> log_binomials(std::size_t n) {
  std::vector<double> out(n + 1);
  for (std::size_t c = 0; c <= n; ++c)
    out[c] = log_gamma(static_cast<double>(n) + 1.0) -
             log_gamma(static_cast<double>(c) + 1.0) -
             log_gamma(static_cast<double>(n - c) + 1.0);
  return out;
}
}  // namespace

SymmetricGibbs::SymmetricGibbs(std::size_t n, model::NodeParams params,
                               model::Mode mode, double sigma)
    : n_(n), params_(params), mode_(mode), sigma_(sigma) {
  params_.validate();
  if (n < 2) throw std::invalid_argument("SymmetricGibbs needs N >= 2");
  if (!(sigma > 0.0)) throw std::invalid_argument("sigma must be positive");
  log_choose_n_ = log_binomials(n);
  log_choose_nm1_ = log_binomials(n - 1);
}

double SymmetricGibbs::class_throughput(int nu, int c) const {
  if (nu == 0) return 0.0;
  return mode_ == model::Mode::kGroupput ? static_cast<double>(c)
                                         : (c >= 1 ? 1.0 : 0.0);
}

double SymmetricGibbs::state_log_weight(int nu, int c, double eta) const {
  const double exponent =
      class_throughput(nu, c) -
      eta * (static_cast<double>(c) * params_.listen_power +
             (nu ? params_.transmit_power : 0.0));
  return exponent / sigma_;
}

double SymmetricGibbs::class_log_weight(int nu, int c, double eta) const {
  const double log_mult =
      nu == 0 ? log_choose_n_[static_cast<std::size_t>(c)]
              : std::log(static_cast<double>(n_)) +
                    log_choose_nm1_[static_cast<std::size_t>(c)];
  return state_log_weight(nu, c, eta) + log_mult;
}

Marginals SymmetricGibbs::marginals(double eta) const {
  util::LogSumExp log_z;
  const int n = static_cast<int>(n_);
  for (int c = 0; c <= n; ++c) log_z.add(class_log_weight(0, c, eta));
  for (int c = 0; c <= n - 1; ++c) log_z.add(class_log_weight(1, c, eta));
  const double lz = log_z.value();

  double e_c = 0.0, e_nu = 0.0, e_t = 0.0, e_state_lw = 0.0;
  auto accumulate = [&](int nu, int c) {
    const double p = std::exp(class_log_weight(nu, c, eta) - lz);
    if (p == 0.0) return;
    e_c += p * static_cast<double>(c);
    e_nu += p * static_cast<double>(nu);
    e_t += p * class_throughput(nu, c);
    e_state_lw += p * state_log_weight(nu, c, eta);
  };
  for (int c = 0; c <= n; ++c) accumulate(0, c);
  for (int c = 0; c <= n - 1; ++c) accumulate(1, c);

  Marginals out;
  out.log_partition = lz;
  out.alpha.assign(n_, e_c / static_cast<double>(n_));
  out.beta.assign(n_, e_nu / static_cast<double>(n_));
  out.expected_throughput = e_t;
  // H = log Z - E[state log-weight]; multiplicities belong to the state
  // count, not the per-state probability, so use state_log_weight here.
  out.entropy = lz - e_state_lw;
  return out;
}

BurstSums SymmetricGibbs::burst_sums(double eta) const {
  util::LogSumExp log_z, mass, rate;
  const int n = static_cast<int>(n_);
  for (int c = 0; c <= n; ++c) log_z.add(class_log_weight(0, c, eta));
  for (int c = 0; c <= n - 1; ++c) {
    const double lw = class_log_weight(1, c, eta);
    log_z.add(lw);
    if (c >= 1) {
      mass.add(lw);
      const double end_rate =
          mode_ == model::Mode::kGroupput ? static_cast<double>(c) : 1.0;
      rate.add(lw - end_rate / sigma_);
    }
  }
  const double lz = log_z.value();
  return BurstSums{mass.value() - lz, rate.value() - lz};
}

double SymmetricGibbs::dual_value(double eta) const {
  util::LogSumExp log_z;
  const int n = static_cast<int>(n_);
  for (int c = 0; c <= n; ++c) log_z.add(class_log_weight(0, c, eta));
  for (int c = 0; c <= n - 1; ++c) log_z.add(class_log_weight(1, c, eta));
  return sigma_ * log_z.value() +
         static_cast<double>(n_) * eta * params_.budget;
}

double SymmetricGibbs::dual_derivative(double eta) const {
  const Marginals m = marginals(eta);
  return static_cast<double>(n_) *
         (params_.budget - (m.alpha.front() * params_.listen_power +
                            m.beta.front() * params_.transmit_power));
}

double SymmetricGibbs::solve_optimal_eta(double tol) const {
  // D is convex, so D' is nondecreasing; find its zero crossing (or return 0
  // when the budget is slack even with no damping).
  if (dual_derivative(0.0) >= 0.0) return 0.0;
  double lo = 0.0;
  double hi = sigma_ / std::min(params_.listen_power, params_.transmit_power);
  int guard = 0;
  while (dual_derivative(hi) < 0.0) {
    lo = hi;
    hi *= 2.0;
    if (++guard > 200) throw std::runtime_error("eta bracket failed");
  }
  while (hi - lo > tol * std::max(1.0, hi)) {
    const double mid = 0.5 * (lo + hi);
    (dual_derivative(mid) < 0.0 ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

}  // namespace econcast::gibbs
