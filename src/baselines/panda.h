// Panda baseline (Margolies et al., JSAC'16 — ref [14] of the paper):
// neighbor discovery on a power-harvesting budget. Homogeneous nodes cycle
// sleep -> listen -> {receive | transmit}:
//   * sleep for Exp(λ);
//   * on waking, listen for a window of w packet-times;
//   * if a packet *starts* during the window, the window ends there: the
//     node keeps listening to the packet's end, receives it and sleeps;
//   * if the window expires with the channel idle, transmit one unit packet
//     and sleep; if it expires mid-packet (the node woke into an ongoing
//     transmission it cannot decode), abort and sleep.
// Panda needs to know N and ρ to tune λ (and w) — one of the coordination
// requirements EconCast removes (§V-B).
//
// The analytical model is a renewal-reward approximation: cycles of
// E[C] = 1/(Nλ) + w + 1 with (N-1)(1-e^{-λw}) expected receptions, and
// per-node energy
//   E = (1/N)(wL + X) + ((N-1)/N)[(1-e^{-λw})(w/2+1)L + e^{-λw}(1-e^{-λ})wL].
// We optimize both λ and w under P = E/E[C] <= ρ, which upper-bounds the
// published protocol (the paper itself compares against Panda's *analytical*
// throughput, §VIII-D). An event-driven simulator cross-checks the model.
// Its power reads above the model's (10.16 mW at a 10 mW design with
// L = X = 500, 5.27 mW at a 5 mW design with the eZ430 powers); the
// renewal model is an approximation and is left as it is.
#ifndef ECONCAST_BASELINES_PANDA_H
#define ECONCAST_BASELINES_PANDA_H

#include <cstdint>
#include <vector>

namespace econcast::baselines {

struct PandaDesign {
  double wake_rate = 0.0;       // λ (per packet-time)
  double listen_window = 0.0;   // w (packet-times)
  double throughput = 0.0;      // analytical groupput at (λ, w)
  double power = 0.0;           // analytical per-node power at (λ, w)
};

/// Analytical groupput and per-node power for given (λ, w).
double panda_throughput(std::size_t n, double wake_rate, double listen_window);
double panda_power(std::size_t n, double wake_rate, double listen_window,
                   double listen_power, double transmit_power);

/// Maximizes the analytical groupput over (λ, w) subject to power <= ρ.
PandaDesign optimize_panda(std::size_t n, double budget, double listen_power,
                           double transmit_power);

/// Full per-node accounting of one event-driven Panda run — the payload the
/// protocol::Protocol adapter maps onto the unified SimResult.
struct PandaSimDetail {
  double duration = 0.0;
  std::uint64_t packets = 0;      // transmissions
  std::uint64_t receptions = 0;   // (packet, receiver) deliveries
  std::uint64_t packets_received_any = 0;  // packets with >= 1 receiver
  std::vector<double> listen_time;    // per node
  std::vector<double> transmit_time;  // per node
};

/// Event-driven simulation of the protocol at fixed (λ, w). Deterministic
/// per seed (project Rng); powers are not needed during the run — energy is
/// an after-the-fact integral of the per-node state times.
PandaSimDetail simulate_panda_detailed(std::size_t n, double wake_rate,
                                       double listen_window, double duration,
                                       std::uint64_t seed);

}  // namespace econcast::baselines

#endif  // ECONCAST_BASELINES_PANDA_H
