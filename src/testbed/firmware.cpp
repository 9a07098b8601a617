#include "testbed/firmware.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "econcast/multiplier.h"
#include "econcast/rates.h"
#include "sim/energy.h"
#include "sim/event_queue.h"
#include "sim/node_id.h"
#include "util/random.h"

namespace econcast::testbed {

using sim::NodeId;

namespace {

enum class S : std::uint8_t { kSleep, kListen, kTransmit };

struct Node {
  proto::MultiplierTracker multiplier;  // η, eq. (17)
  S state = S::kSleep;
  double drift = 1.0;  // sleep-clock factor
  double consumed_at_warmup = 0.0;
  double interval_start_balance = 0.0;  // virtual battery at interval start
};

}  // namespace

TestbedResult run_testbed(const TestbedConfig& cfg) {
  if (cfg.n < 2) throw std::invalid_argument("testbed: need N >= 2");
  if (!(cfg.sigma > 0.0)) throw std::invalid_argument("sigma > 0 required");
  if (!(cfg.duration_ms > cfg.warmup_ms))
    throw std::invalid_argument("duration must exceed warmup");

  const Ez430Constants& hw = cfg.hw;
  const double L = hw.listen_power_mw;
  const double X = hw.transmit_power_mw;
  const double packet = hw.packet_ms;
  // Rates (18a)-(18e) per packet-time; the theory's unit packet is `packet`
  // ms long, so a per-ms rate is the controller's rate over `packet`.
  const proto::RateController rates(L, X, cfg.sigma, proto::Variant::kCapture,
                                    model::Mode::kGroupput);
  // Eq. (17) with constant (δ, τ), δ auto-scaled to the mW unit system (see
  // SimConfig); τ ticks on each node's drifting clock.
  const proto::MultiplierConfig multiplier{
      proto::StepSchedule::kConstant,
      cfg.step_gain * cfg.sigma / (L * cfg.budget_mw), cfg.tau_ms, 0.0};

  util::Rng rng(cfg.seed);
  std::vector<Node> nodes(cfg.n, Node{proto::MultiplierTracker(multiplier)});
  for (auto& nd : nodes)
    nd.drift = rng.uniform(1.0 - hw.sleep_clock_drift,
                           1.0 + hw.sleep_clock_drift);
  // Modeled consumption, mW*ms. Only consumed() is read: the virtual battery
  // below is budget·now − consumed, as the firmware keeps it.
  sim::EnergyLedger ledger;
  ledger.reserve(cfg.n);
  for (std::size_t i = 0; i < cfg.n; ++i) ledger.add(cfg.budget_mw, 0.0);

  // The same queue, capacity policy and cancel-on-reschedule contract as
  // proto::Simulation and the Panda simulator.
  sim::EventQueue queue;
  queue.reserve_for_nodes(cfg.n);
  double now = 0.0;

  int transmitter = -1;  // clique: at most one
  int pending_estimate = 0;
  bool burst_any = false;
  double group_credit = 0.0;

  TestbedResult result;

  auto draw_of = [&](S s) {
    switch (s) {
      case S::kListen:
        return L;
      case S::kTransmit:
        return X;
      case S::kSleep:
        return 0.0;
    }
    return 0.0;
  };
  auto settle = [&](std::size_t i) {
    ledger.set_draw(i, draw_of(nodes[i].state), now);
  };
  auto set_state = [&](std::size_t i, S next) {
    ledger.set_draw(i, draw_of(next), now);
    nodes[i].state = next;
  };
  auto balance = [&](std::size_t i) {
    settle(i);
    return cfg.budget_mw * now - ledger.consumed(i, now);  // virtual battery
  };

  // Per-ms rates out of listening on an idle channel: to sleep (18b) and to
  // transmit (18c).
  auto listen_rates = [&](std::size_t i) {
    return std::pair{
        rates.listen_to_sleep(true) / packet,
        rates.listen_to_transmit(nodes[i].multiplier.eta(), 0.0, true) /
            packet};
  };

  auto schedule_transition = [&](NodeId i) {
    // The queue owns invalidation: a re-schedule (or a bare cancel when the
    // node is gated) removes the pending transition.
    queue.cancel(i, sim::EventKind::kTransition);
    if (transmitter >= 0) return;  // gated: resampled on release
    double rate = 0.0;
    switch (nodes[i].state) {
      case S::kSleep:  // (18a); the sleep timer runs on the drifting clock
        rate = rates.sleep_to_listen(nodes[i].multiplier.eta(), true) /
               (packet * nodes[i].drift);
        break;
      case S::kListen: {
        const auto [r_s, r_x] = listen_rates(i);
        rate = r_s + r_x;
        break;
      }
      case S::kTransmit:
        return;
    }
    if (rate <= 0.0) return;
    queue.schedule(now + rng.exponential(rate), sim::EventKind::kTransition,
                   i);
  };
  auto resample_all_idle = [&] {
    for (NodeId i = 0; i < cfg.n; ++i)
      if (nodes[i].state != S::kTransmit) schedule_transition(i);
  };

  auto start_packet = [&](NodeId i) {
    queue.push(now + packet, sim::EventKind::kPacketEnd, i);
  };

  auto begin_burst = [&](NodeId i) {
    set_state(i, S::kTransmit);
    transmitter = static_cast<int>(i);
    burst_any = false;
    start_packet(i);
  };

  auto finish_burst = [&](NodeId i) {
    transmitter = -1;
    if (now >= cfg.warmup_ms && burst_any) ++result.bursts;
    set_state(i, S::kListen);  // x -> l
    resample_all_idle();
  };

  // The pinging interval of §VIII-C, evaluated in closed form at packet end:
  // every recipient picks a uniform ping time; pings whose intervals overlap
  // collide; survivors decode with ping_detect_prob.
  auto run_ping_interval = [&](int recipients) {
    std::vector<double> times(static_cast<std::size_t>(recipients));
    for (auto& t : times)
      t = rng.uniform(0.0, hw.ping_interval_ms - hw.ping_ms);
    std::sort(times.begin(), times.end());
    int detected = 0;
    const auto count = times.size();
    result.pings_sent += now >= cfg.warmup_ms ? count : 0;
    for (std::size_t k = 0; k < count; ++k) {
      const bool collides =
          (k > 0 && times[k] - times[k - 1] < hw.ping_ms) ||
          (k + 1 < count && times[k + 1] - times[k] < hw.ping_ms);
      if (collides) {
        if (now >= cfg.warmup_ms) ++result.pings_lost_collision;
        continue;
      }
      if (!rng.bernoulli(hw.ping_detect_prob)) {
        if (now >= cfg.warmup_ms) ++result.pings_lost_decode;
        continue;
      }
      ++detected;
    }
    return detected;
  };

  // --- initialization ------------------------------------------------------
  for (NodeId i = 0; i < cfg.n; ++i) {
    schedule_transition(i);
    queue.push(nodes[i].multiplier.next_interval_length() * nodes[i].drift,
               sim::EventKind::kIntervalEnd, i);
  }
  queue.push(cfg.warmup_ms, sim::EventKind::kCustom, 0);

  // --- main loop -----------------------------------------------------------
  while (!queue.empty() && queue.top().time <= cfg.duration_ms) {
    const sim::Event e = queue.pop();
    now = e.time;
    const NodeId i = e.node;
    switch (e.kind) {
      case sim::EventKind::kTransition: {
        if (transmitter >= 0) break;  // cancelled events never surface
        if (nodes[i].state == S::kSleep) {
          set_state(i, S::kListen);
          schedule_transition(i);
        } else if (nodes[i].state == S::kListen) {
          const auto [r_s, r_x] = listen_rates(i);
          if (rng.uniform() * (r_s + r_x) < r_s) {
            set_state(i, S::kSleep);
            schedule_transition(i);
          } else {
            begin_burst(i);
          }
        }
        break;
      }
      case sim::EventKind::kPacketEnd: {
        // Recipients: every node currently listening (clique, single
        // transmitter, gated listeners -> all receive cleanly).
        int recipients = 0;
        for (std::size_t j = 0; j < cfg.n; ++j)
          if (nodes[j].state == S::kListen) ++recipients;
        if (now >= cfg.warmup_ms) {
          ++result.packets;
          group_credit += packet * static_cast<double>(recipients);
        }
        burst_any |= recipients > 0;
        // Pinging interval: recipients ping (paying the TX-ping premium on
        // top of their listen draw); the transmitter listens for pings.
        for (std::size_t j = 0; j < cfg.n; ++j)
          if (nodes[j].state == S::kListen)
            ledger.charge(j, (X - L) * hw.ping_ms);
        set_state(i, S::kListen);  // transmitter listens during the interval
        pending_estimate = run_ping_interval(recipients);
        if (now >= cfg.warmup_ms)
          result.ping_distribution.add(
              static_cast<std::size_t>(pending_estimate));
        queue.push(now + hw.ping_interval_ms, sim::EventKind::kPingSlot, i);
        break;
      }
      case sim::EventKind::kPingSlot: {
        // End of the pinging interval: capture decision per (18e).
        if (rng.bernoulli(rates.continue_probability(pending_estimate))) {
          set_state(i, S::kTransmit);
          start_packet(i);
        } else {
          finish_burst(i);
        }
        break;
      }
      case sim::EventKind::kIntervalEnd: {
        Node& nd = nodes[i];
        const double level = balance(i);
        nd.multiplier.update(level - nd.interval_start_balance);
        nd.interval_start_balance = level;
        queue.push(now + nd.multiplier.next_interval_length() * nd.drift,
                   sim::EventKind::kIntervalEnd, i);
        if (nd.state != S::kTransmit && transmitter < 0)
          schedule_transition(i);
        break;
      }
      case sim::EventKind::kCustom:
        for (std::size_t j = 0; j < cfg.n; ++j) {
          settle(j);
          nodes[j].consumed_at_warmup = ledger.consumed(j, now);
        }
        break;
      case sim::EventKind::kEnergyDepleted:
        break;  // the firmware's virtual battery is unbounded (§VIII-A)
    }
  }
  now = cfg.duration_ms;

  // --- results ---------------------------------------------------------------
  const double window = cfg.duration_ms - cfg.warmup_ms;
  result.measured_window_ms = window;
  result.groupput = group_credit / window;
  result.modeled_power_mw.resize(cfg.n);
  result.actual_power_mw.resize(cfg.n);
  result.final_eta.resize(cfg.n);
  double ratio_sum = 0.0, ratio_min = 1e300, ratio_max = -1e300;
  for (std::size_t j = 0; j < cfg.n; ++j) {
    settle(j);
    const double modeled =
        (ledger.consumed(j, now) - nodes[j].consumed_at_warmup) / window;
    result.modeled_power_mw[j] = modeled;
    result.actual_power_mw[j] =
        modeled * (1.0 + hw.overhead_fraction) + hw.overhead_const_mw;
    const double ratio = modeled / cfg.budget_mw;
    ratio_sum += ratio;
    ratio_min = std::min(ratio_min, ratio);
    ratio_max = std::max(ratio_max, ratio);
    result.final_eta[j] = nodes[j].multiplier.eta();
  }
  result.queue_stats = queue.stats();
  result.battery_ratio_mean = ratio_sum / static_cast<double>(cfg.n);
  result.battery_ratio_min = ratio_min;
  result.battery_ratio_max = ratio_max;
  return result;
}

}  // namespace econcast::testbed
