#include "util/logsumexp.h"

#include <cmath>

namespace econcast::util {

void LogSumExp::add(double log_value) noexcept {
  if (log_value == kLogZero) return;
  if (log_value <= max_) {
    sum_ += std::exp(log_value - max_);
    return;
  }
  // New maximum: rescale the running sum.
  if (max_ == kLogZero) {
    sum_ = 1.0;
  } else {
    sum_ = sum_ * std::exp(max_ - log_value) + 1.0;
  }
  max_ = log_value;
}

double LogSumExp::value() const noexcept {
  if (max_ == kLogZero) return kLogZero;
  return max_ + std::log(sum_);
}

}  // namespace econcast::util
