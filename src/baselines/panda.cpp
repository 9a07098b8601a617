#include "baselines/panda.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.h"
#include "sim/node_id.h"
#include "util/random.h"

namespace econcast::baselines {

double panda_throughput(std::size_t n, double wake_rate,
                        double listen_window) {
  if (n < 2 || wake_rate <= 0.0 || listen_window <= 0.0) return 0.0;
  const double nd = static_cast<double>(n);
  const double cycle = 1.0 / (nd * wake_rate) + listen_window + 1.0;
  const double receptions =
      (nd - 1.0) * (1.0 - std::exp(-wake_rate * listen_window));
  return receptions / cycle;
}

double panda_power(std::size_t n, double wake_rate, double listen_window,
                   double listen_power, double transmit_power) {
  const double nd = static_cast<double>(n);
  const double w = listen_window;
  const double cycle = 1.0 / (nd * wake_rate) + w + 1.0;
  const double p_join = 1.0 - std::exp(-wake_rate * w);
  const double p_mid = std::exp(-wake_rate * w) *
                       (1.0 - std::exp(-wake_rate));  // wakes into the packet
  const double energy =
      (w * listen_power + transmit_power) / nd +
      (nd - 1.0) / nd *
          (p_join * (0.5 * w + 1.0) * listen_power + p_mid * w * listen_power);
  return energy / cycle;
}

PandaDesign optimize_panda(std::size_t n, double budget, double listen_power,
                           double transmit_power) {
  if (n < 2) throw std::invalid_argument("panda: need N >= 2");
  if (!(budget > 0.0) || !(listen_power > 0.0) || !(transmit_power > 0.0))
    throw std::invalid_argument("panda: positive parameters required");

  // Power is increasing in λ (shorter cycles, more joiners), so the maximal
  // budget-feasible λ for a window w is found by bisection.
  auto lambda_for = [&](double w) {
    double lo = 0.0, hi = 1.0;
    if (panda_power(n, hi, w, listen_power, transmit_power) < budget) {
      // Even aggressive waking stays within budget: cap at hi (activity is
      // then limited by the protocol, not the budget).
      return hi;
    }
    for (int it = 0; it < 200; ++it) {
      const double mid = 0.5 * (lo + hi);
      (panda_power(n, mid, w, listen_power, transmit_power) <= budget ? lo
                                                                      : hi) =
          mid;
    }
    return lo;
  };

  PandaDesign best;
  // Window sweep on a log grid with golden refinement around the best point.
  auto value_at = [&](double w) {
    const double lambda = lambda_for(w);
    return panda_throughput(n, lambda, w);
  };
  double best_w = 0.0;
  for (double lw = -3.0; lw <= 3.0; lw += 0.01) {
    const double w = std::pow(10.0, lw);
    const double v = value_at(w);
    if (v > best.throughput) {
      best.throughput = v;
      best_w = w;
    }
  }
  double lo = best_w / std::pow(10.0, 0.01), hi = best_w * std::pow(10.0, 0.01);
  constexpr double kInvPhi = 0.6180339887498949;
  double a = hi - (hi - lo) * kInvPhi, b = lo + (hi - lo) * kInvPhi;
  double fa = value_at(a), fb = value_at(b);
  for (int it = 0; it < 120; ++it) {
    if (fa < fb) {
      lo = a;
      a = b;
      fa = fb;
      b = lo + (hi - lo) * kInvPhi;
      fb = value_at(b);
    } else {
      hi = b;
      b = a;
      fb = fa;
      a = hi - (hi - lo) * kInvPhi;
      fa = value_at(a);
    }
  }
  best.listen_window = 0.5 * (lo + hi);
  best.wake_rate = lambda_for(best.listen_window);
  best.throughput = panda_throughput(n, best.wake_rate, best.listen_window);
  best.power = panda_power(n, best.wake_rate, best.listen_window, listen_power,
                           transmit_power);
  return best;
}

PandaSimDetail simulate_panda_detailed(std::size_t n, double wake_rate,
                                       double listen_window, double duration,
                                       std::uint64_t seed) {
  if (n < 2 || wake_rate <= 0.0 || listen_window <= 0.0)
    throw std::invalid_argument("panda sim: bad parameters");
  util::Rng rng(seed);
  enum class S : std::uint8_t { kSleep, kListen, kTransmit };
  std::vector<S> state(n, S::kSleep);
  std::vector<std::uint8_t> locked(n, 0);  // receiving the current packet
  std::vector<double> state_since(n, 0.0);
  std::vector<double> listen_time(n, 0.0), transmit_time(n, 0.0);
  bool on_air = false;  // a packet is being transmitted

  // A node's wake-up (while asleep) and its window expiry (while listening)
  // share its kTransition slot, so scheduling one replaces the other.
  sim::EventQueue q;
  q.reserve_for_nodes(n);
  for (sim::NodeId i = 0; i < n; ++i)
    q.schedule(rng.exponential(wake_rate), sim::EventKind::kTransition, i);

  PandaSimDetail result;
  result.duration = duration;
  double now = 0.0;
  auto set_state = [&](std::size_t i, S next) {
    const double dt = now - state_since[i];
    if (state[i] == S::kListen) listen_time[i] += dt;
    if (state[i] == S::kTransmit) transmit_time[i] += dt;
    state[i] = next;
    state_since[i] = now;
  };
  auto go_to_sleep = [&](sim::NodeId i) {
    set_state(i, S::kSleep);
    q.schedule(now + rng.exponential(wake_rate), sim::EventKind::kTransition,
               i);
  };

  while (!q.empty() && q.top().time <= duration) {
    const sim::Event e = q.pop();
    now = e.time;
    const sim::NodeId i = e.node;
    if (e.kind == sim::EventKind::kPacketEnd) {
      on_air = false;
      bool delivered = false;
      for (sim::NodeId j = 0; j < n; ++j) {
        if (locked[j]) {
          locked[j] = 0;
          ++result.receptions;
          delivered = true;
          go_to_sleep(j);
        }
      }
      if (delivered) ++result.packets_received_any;
      go_to_sleep(i);
    } else if (state[i] == S::kSleep) {  // wake-up
      set_state(i, S::kListen);
      q.schedule(now + listen_window, sim::EventKind::kTransition, i);
    } else if (on_air) {
      // Window expired mid-packet: the node woke into an ongoing packet it
      // cannot decode, so it aborts and sleeps.
      go_to_sleep(i);
    } else {
      set_state(i, S::kTransmit);
      on_air = true;
      ++result.packets;
      // Every listener hears the packet start and receives the packet to its
      // end, so its window expiry no longer applies.
      for (sim::NodeId j = 0; j < n; ++j) {
        if (state[j] == S::kListen) {
          locked[j] = 1;
          q.cancel(j, sim::EventKind::kTransition);
        }
      }
      q.push(now + 1.0, sim::EventKind::kPacketEnd, i);
    }
  }
  now = duration;
  for (std::size_t i = 0; i < n; ++i) set_state(i, state[i]);  // close interval
  result.listen_time = std::move(listen_time);
  result.transmit_time = std::move(transmit_time);
  return result;
}

}  // namespace econcast::baselines
