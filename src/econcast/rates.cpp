#include "econcast/rates.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace econcast::proto {

const char* to_string(Variant variant) noexcept {
  return variant == Variant::kCapture ? "EconCast-C" : "EconCast-NC";
}

namespace {
// exp with the exponent clamped to avoid inf/0-collapse during transients
// (η far from η* can momentarily produce huge exponents).
double safe_exp(double x) noexcept {
  return std::exp(std::clamp(x, -700.0, 700.0));
}
}  // namespace

RateController::RateController(double listen_power, double transmit_power,
                               double sigma, Variant variant, model::Mode mode)
    : listen_power_(listen_power),
      transmit_power_(transmit_power),
      sigma_(sigma),
      variant_(variant),
      mode_(mode) {
  if (!(listen_power > 0.0) || !(transmit_power > 0.0))
    throw std::invalid_argument("power levels must be positive");
  if (!(sigma > 0.0)) throw std::invalid_argument("sigma must be positive");
}

double RateController::effective_estimate(double listener_count) const noexcept {
  if (mode_ == model::Mode::kGroupput) return std::max(0.0, listener_count);
  return listener_count > 0.0 ? 1.0 : 0.0;
}

double RateController::sleep_to_listen(double eta,
                                       bool channel_idle) const noexcept {
  if (!channel_idle) return 0.0;
  return safe_exp(-eta * listen_power_ / sigma_);
}

double RateController::listen_to_sleep(bool channel_idle) const noexcept {
  return channel_idle ? 1.0 : 0.0;
}

double RateController::listen_to_transmit(double eta, double listener_count,
                                          bool channel_idle) const noexcept {
  if (!channel_idle) return 0.0;
  double exponent = eta * (listen_power_ - transmit_power_) / sigma_;
  if (variant_ == Variant::kNonCapture)
    exponent += effective_estimate(listener_count) / sigma_;
  return safe_exp(exponent);
}

double RateController::transmit_to_listen(double listener_count) const noexcept {
  if (variant_ == Variant::kNonCapture) return 1.0;  // (18f)
  return safe_exp(-effective_estimate(listener_count) / sigma_);  // (18e)
}

double RateController::continue_probability(double listener_count) const noexcept {
  if (variant_ == Variant::kNonCapture) return 0.0;
  return 1.0 - transmit_to_listen(listener_count);
}

}  // namespace econcast::proto
