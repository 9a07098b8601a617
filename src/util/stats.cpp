#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace econcast::util {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

RunningStats RunningStats::restore(std::size_t count, double mean, double m2,
                                   double min, double max) noexcept {
  RunningStats s;
  s.n_ = count;
  s.mean_ = mean;
  s.m2_ = m2;
  s.min_ = min;
  s.max_ = max;
  return s;
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::ci95_halfwidth() const noexcept {
  if (n_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

double SampleSet::mean() const noexcept {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (const double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

void SampleSet::ensure_sorted() const {
  if (!sorted_) {
    auto& mut = const_cast<std::vector<double>&>(samples_);
    std::sort(mut.begin(), mut.end());
    sorted_ = true;
  }
}

double SampleSet::percentile(double p) const {
  if (samples_.empty()) throw std::logic_error("percentile of empty SampleSet");
  ensure_sorted();
  p = std::clamp(p, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples_.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  return samples_[std::min(idx, samples_.size() - 1)];
}

double SampleSet::cdf(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

void Counter::add(std::size_t value, std::uint64_t weight) {
  if (value >= counts_.size()) counts_.resize(value + 1, 0);
  counts_[value] += weight;
  total_ += weight;
}

double Counter::fraction(std::size_t value) const noexcept {
  if (total_ == 0 || value >= counts_.size()) return 0.0;
  return static_cast<double>(counts_[value]) / static_cast<double>(total_);
}

std::uint64_t Counter::count(std::size_t value) const noexcept {
  return value < counts_.size() ? counts_[value] : 0;
}

}  // namespace econcast::util
