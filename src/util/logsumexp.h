// Log-domain accumulation. The Gibbs distribution (19) has weights
// exp(T_w/σ - ...) whose exponents reach hundreds for small σ, so partition
// functions and marginals must be accumulated as log-sum-exp.
#ifndef ECONCAST_UTIL_LOGSUMEXP_H
#define ECONCAST_UTIL_LOGSUMEXP_H

#include <limits>

namespace econcast::util {

/// Identity element for log-sum-exp accumulation (represents log(0)).
inline constexpr double kLogZero = -std::numeric_limits<double>::infinity();

/// Streaming log-sum-exp accumulator: after adding log-values l_1..l_n,
/// value() returns log(sum_i exp(l_i)) without overflow.
class LogSumExp {
 public:
  void add(double log_value) noexcept;

  /// log of the accumulated sum; kLogZero if nothing was added.
  double value() const noexcept;

  bool empty() const noexcept { return max_ == kLogZero; }

 private:
  double max_ = kLogZero;   // running maximum exponent
  double sum_ = 0.0;        // sum of exp(l_i - max_)
};

}  // namespace econcast::util

#endif  // ECONCAST_UTIL_LOGSUMEXP_H
