// The EconCast transition-rate laws, eqs. (18a)-(18f). Rates are per
// packet-time; the carrier-sense indicator A(t) gates every sleep/listen
// transition ("stick to the current state" while the medium is busy, §V-E).
//
// Groupput mode drives rates with the listener-count estimate ĉ(t); anyput
// mode with the listener-existence estimate γ̂(t). The capture variant (C)
// applies the estimate to the transmit-release rate λ_xl; the non-capture
// variant (NC) applies it to the transmit-entry rate λ_lx.
#ifndef ECONCAST_ECONCAST_RATES_H
#define ECONCAST_ECONCAST_RATES_H

#include "model/state_space.h"

namespace econcast::proto {

enum class Variant {
  kCapture,     // EconCast-C: transmitter may keep the channel (§V-D)
  kNonCapture,  // EconCast-NC: one packet per channel acquisition
};

const char* to_string(Variant variant) noexcept;

class RateController {
 public:
  RateController(double listen_power, double transmit_power, double sigma,
                 Variant variant, model::Mode mode);

  /// Converts a raw listener count into the mode's driving estimate:
  /// ĉ = count (groupput) or γ̂ = 1{count > 0} (anyput).
  double effective_estimate(double listener_count) const noexcept;

  /// λ_sl, eq. (18a): A(t) · exp(-ηL/σ).
  double sleep_to_listen(double eta, bool channel_idle) const noexcept;

  /// λ_ls, eq. (18b): A(t).
  double listen_to_sleep(bool channel_idle) const noexcept;

  /// λ_lx, eqs. (18c)/(18d). `listener_count` is the count of *other* active
  /// listeners; it only matters for the non-capture variant.
  double listen_to_transmit(double eta, double listener_count,
                            bool channel_idle) const noexcept;

  /// λ_xl, eqs. (18e)/(18f). `listener_count` is the number of listeners the
  /// transmitter observed (pings).
  double transmit_to_listen(double listener_count) const noexcept;

  /// Packetized equivalent of λ_xl (§V-B): probability of sending another
  /// back-to-back unit packet, 1 - λ_xl. Always 0 for the non-capture
  /// variant.
  double continue_probability(double listener_count) const noexcept;

  double sigma() const noexcept { return sigma_; }
  Variant variant() const noexcept { return variant_; }
  model::Mode mode() const noexcept { return mode_; }

 private:
  double listen_power_;
  double transmit_power_;
  double sigma_;
  Variant variant_;
  model::Mode mode_;
};

}  // namespace econcast::proto

#endif  // ECONCAST_ECONCAST_RATES_H
