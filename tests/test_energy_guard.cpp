// End-to-end coverage of the energy-guard brown-out path (SimConfig
// energy_guard / initial_energy): nodes that cannot pay for
// listening are forced to sleep and must recharge before competing to wake
// again, transmitters do not extend bursts they cannot afford, and the
// system keeps operating (finite throughput, bounded power) instead of
// borrowing unbounded energy like the paper's idealized §VII model.
#include <gtest/gtest.h>

#include <cmath>

#include "econcast/simulation.h"
#include "model/network.h"
#include "model/node_params.h"

namespace {

using namespace econcast;

constexpr double kBudget = 10.0;   // ρ (µW)
constexpr double kListen = 500.0;  // L
constexpr double kTransmit = 500.0;

proto::SimConfig guarded_cfg(double duration, double initial_energy) {
  proto::SimConfig cfg;
  cfg.sigma = 0.5;
  cfg.duration = duration;
  cfg.warmup = 0.0;
  cfg.seed = 4242;
  cfg.energy_guard = true;
  cfg.initial_energy = initial_energy;
  return cfg;
}

proto::SimResult run_clique(std::size_t n, const proto::SimConfig& cfg) {
  proto::Simulation sim(model::homogeneous(n, kBudget, kListen, kTransmit),
                        model::Topology::clique(n), cfg);
  return sim.run();
}

TEST(EnergyGuard, RechargeHysteresisDelaysFirstWake) {
  // Starting at the floor, a node may not listen until it has harvested one
  // packet-time of listening energy (L = 500 at ρ = 10 → 50 packet-times).
  // Within a shorter horizon than that, nothing can happen at all.
  const auto r = run_clique(5, guarded_cfg(/*duration=*/40.0,
                                           /*initial_energy=*/0.0));
  EXPECT_EQ(r.packets_sent, 0u);
  EXPECT_EQ(r.packets_received, 0u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(r.listen_fraction[i], 0.0) << i;
    EXPECT_EQ(r.transmit_fraction[i], 0.0) << i;
  }
}

TEST(EnergyGuard, BrownOutKeepsSystemLiveAndWithinHarvest) {
  // From an empty store, every node lives hand-to-mouth: wake after
  // recharging, listen until the store hits the floor, brown out, repeat.
  // The run must stay live (packets flow) with finite throughput, and no
  // node can spend meaningfully more than it harvests.
  const auto r = run_clique(5, guarded_cfg(/*duration=*/4e5,
                                           /*initial_energy=*/0.0));
  EXPECT_TRUE(std::isfinite(r.groupput));
  EXPECT_GT(r.groupput, 0.0);
  EXPECT_GT(r.packets_sent, 0u);
  EXPECT_GT(r.packets_received, 0u);
  for (std::size_t i = 0; i < 5; ++i) {
    // Forced sleep + recharge bound the duty cycle near the energy-neutral
    // point α·L + β·X ≈ ρ; the 25% headroom covers the affordability
    // granularity (a burst's first packet is not pre-paid).
    EXPECT_GT(r.listen_fraction[i], 0.0) << i;  // recharge path re-arms wake
    EXPECT_LE(r.avg_power[i], kBudget * 1.25) << i;
    EXPECT_LE(r.listen_fraction[i], 1.25 * kBudget / kListen) << i;
  }
}

TEST(EnergyGuard, TruncatesGiantCapturesAtSmallSigma) {
  // σ = 0.25 is where unbounded storage hurts: the idealized model produces
  // e^{(N-1)/σ}-scale captures. A physical store (here ~1000 packet-times
  // of listening) cannot pay for them, so the guarded run's longest burst
  // must come in far below the unguarded one's, while throughput stays
  // finite and positive.
  proto::SimConfig cfg = guarded_cfg(/*duration=*/3e5,
                                     /*initial_energy=*/5e5);
  cfg.sigma = 0.25;
  cfg.warmup = 1e4;
  const auto guarded = run_clique(5, cfg);

  cfg.energy_guard = false;
  const auto unguarded = run_clique(5, cfg);

  ASSERT_GT(guarded.burst_lengths.count(), 0u);
  ASSERT_GT(unguarded.burst_lengths.count(), 0u);
  EXPECT_TRUE(std::isfinite(guarded.groupput));
  EXPECT_GT(guarded.groupput, 0.0);
  // An affordability ceiling: a burst is only extended while the store can
  // pay for the next packet, so its length is bounded by what the initial
  // charge plus a full run of harvesting can buy (X per packet).
  const double affordable =
      (cfg.initial_energy + kBudget * cfg.duration) / kTransmit;
  EXPECT_LE(guarded.burst_lengths.max(), affordable);
  EXPECT_LT(guarded.burst_lengths.max(), unguarded.burst_lengths.max());
}

TEST(EnergyGuard, GuardedRunStaysDeterministicPerSeed) {
  const proto::SimConfig cfg = guarded_cfg(5e4, 0.0);
  const auto a = run_clique(4, cfg);
  const auto b = run_clique(4, cfg);
  EXPECT_EQ(a.groupput, b.groupput);
  EXPECT_EQ(a.packets_received, b.packets_received);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.avg_power, b.avg_power);
}

}  // namespace
