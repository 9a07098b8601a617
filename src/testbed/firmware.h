// EconCast-C firmware emulation (§VIII): the protocol as it runs on the
// eZ430 nodes, in real milliseconds, with the practical pinging mechanism of
// §VIII-C and the hardware imperfections of §VIII-D:
//   * 40 ms data packets followed by a fixed 8 ms pinging interval in which
//     each recipient sends one 0.4 ms ping at a uniformly random time;
//     overlapping pings collide and are lost, and even clean pings decode
//     only with probability ping_detect_prob;
//   * the transmitter counts decoded pings -> ĉ and keeps the channel with
//     probability 1 - exp(-ĉ/σ);
//   * a software virtual battery drives the multiplier update (17);
//   * per-node sleep-clock drift stretches/compresses sleep and interval
//     timers;
//   * the regulator overhead makes actual consumption exceed the virtual
//     battery's model (the paper's P > ρ observation);
//   * an optional observer node listens permanently (reporting only — it
//     does not ping and its receptions are not counted as throughput).
//
// The network is a clique (the paper's nodes sit "in proximity").
#ifndef ECONCAST_TESTBED_FIRMWARE_H
#define ECONCAST_TESTBED_FIRMWARE_H

#include <cstdint>
#include <vector>

#include "sim/event_queue.h"
#include "testbed/ez430.h"
#include "util/stats.h"

namespace econcast::testbed {

struct TestbedConfig {
  std::size_t n = 5;          // protocol nodes (observer not included)
  double budget_mw = 1.0;     // ρ (per node)
  double sigma = 0.25;
  double duration_ms = 4.0 * 3600.0 * 1000.0;  // emulated wall-clock
  double warmup_ms = 20.0 * 60.0 * 1000.0;     // adaptation transient
  std::uint64_t seed = 1;
  bool observer = true;

  // Multiplier adaptation (same auto-scaling rationale as SimConfig).
  double tau_ms = 30.0 * 1000.0;  // update interval
  double step_gain = 0.01;        // δ = gain·σ/(L·ρ) in mW units

  Ez430Constants hw;
};

struct TestbedResult {
  double measured_window_ms = 0.0;

  /// Experimental groupput T̃^σ_g in the theory's units: received
  /// packet-time per unit time, counted over protocol nodes only.
  double groupput = 0.0;

  /// Virtual-battery (modeled) power per node, mW.
  std::vector<double> modeled_power_mw;
  /// Actual power per node including regulator overhead, mW — what the
  /// capacitor measurement of §VIII-B sees.
  std::vector<double> actual_power_mw;

  /// Fig. 7 "Battery Variance": per-node modeled power / ρ.
  double battery_ratio_mean = 0.0;
  double battery_ratio_min = 0.0;
  double battery_ratio_max = 0.0;

  /// Table IV: distribution of decoded pings after each packet.
  util::Counter ping_distribution;

  std::uint64_t packets = 0;
  std::uint64_t bursts = 0;
  std::uint64_t pings_sent = 0;
  std::uint64_t pings_lost_collision = 0;
  std::uint64_t pings_lost_decode = 0;
  std::vector<double> final_eta;

  /// Event-queue instrumentation for this run.
  sim::QueueStats queue_stats;
};

/// Runs the firmware emulation.
TestbedResult run_testbed(const TestbedConfig& config);

}  // namespace econcast::testbed

#endif  // ECONCAST_TESTBED_FIRMWARE_H
