// Tests for the eZ430 testbed emulation: capacitor measurement math
// (eqs. (25)-(26)), the firmware loop, ping collisions, regulator overhead,
// and the §VIII observations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "gibbs/p4_solver.h"
#include "testbed/ez430.h"
#include "testbed/firmware.h"

namespace {

using namespace econcast;
using namespace econcast::testbed;

// -------------------------------------------------------------- capacitor --

TEST(Capacitor, UsableEnergyMatchesPaper) {
  // 0.5 * 5F * (3.6² - 3.0²) = 9.9 J.
  const CapacitorMeter meter(5.0);
  EXPECT_NEAR(meter.usable_energy_mj(), 9900.0, 1.0);
}

TEST(Capacitor, PaperLifetimes) {
  // §VIII-B: ~135 minutes at 1 mW, ~27 minutes at 5 mW (5 F capacitor).
  const CapacitorMeter meter(5.0);
  EXPECT_NEAR(meter.lifetime_minutes(1.0), 165.0, 40.0);
  EXPECT_NEAR(meter.lifetime_minutes(5.0), 33.0, 8.0);
}

TEST(Capacitor, VoltageAfterDischarge) {
  const CapacitorMeter meter(5.0);
  const double v1 = meter.voltage_after(9900.0 / 2.0);  // half the charge
  EXPECT_GT(v1, 3.0);
  EXPECT_LT(v1, 3.6);
  EXPECT_THROW(meter.voltage_after(20000.0), std::domain_error);
}

TEST(Capacitor, NoiselessMeasurementExact) {
  const CapacitorMeter meter(5.0);
  util::Rng rng(1);
  // 1 mW for 30 minutes = 1800 s = 1.8e6 ms -> 1800 mJ.
  const double p = meter.measure_power_mw(1800.0, 1.8e6, 0.0, rng);
  EXPECT_NEAR(p, 1.0, 1e-9);
}

TEST(Capacitor, NoisyMeasurementUnbiasedIsh) {
  const CapacitorMeter meter(5.0);
  util::Rng rng(2);
  double sum = 0.0;
  for (int i = 0; i < 400; ++i)
    sum += meter.measure_power_mw(1800.0, 1.8e6, 0.005, rng);
  EXPECT_NEAR(sum / 400.0, 1.0, 0.05);
}

TEST(Capacitor, RejectsBadConstruction) {
  EXPECT_THROW(CapacitorMeter(0.0), std::invalid_argument);
  EXPECT_THROW(CapacitorMeter(1.0, 3.0, 3.6), std::invalid_argument);
}

// ---------------------------------------------------------------- firmware --

TestbedConfig quick_config(double rho, double sigma, std::uint64_t seed) {
  TestbedConfig cfg;
  cfg.budget_mw = rho;
  cfg.sigma = sigma;
  // The multiplier loop (τ = 30 s) needs emulated hours to settle, as on the
  // real testbed ("each experiment is conducted for up to 24 hours", §VIII);
  // 12 emulated hours cost ~tens of ms here.
  cfg.duration_ms = 12.0 * 3600e3;
  cfg.warmup_ms = 4.0 * 3600e3;
  cfg.seed = seed;
  return cfg;
}

TEST(Firmware, ConsumesNearTargetBudget) {
  // §VIII-D: consumption within ~7% of ρ at σ = 0.25, ~3% at σ = 0.5.
  for (const double sigma : {0.25, 0.5}) {
    const TestbedResult r = run_testbed(quick_config(1.0, sigma, 3));
    EXPECT_NEAR(r.battery_ratio_mean, 1.0, 0.08) << "sigma=" << sigma;
  }
}

TEST(Firmware, ActualPowerExceedsTargetByPaperMargins) {
  // §VIII-B: P exceeds ρ by ~11% at 1 mW and ~4% at 5 mW.
  const TestbedResult r1 = run_testbed(quick_config(1.0, 0.5, 4));
  double p1 = 0.0;
  for (const double p : r1.actual_power_mw) p1 += p;
  p1 /= static_cast<double>(r1.actual_power_mw.size());
  EXPECT_NEAR((p1 - 1.0) / 1.0, 0.11, 0.07);

  const TestbedResult r5 = run_testbed(quick_config(5.0, 0.5, 4));
  double p5 = 0.0;
  for (const double p : r5.actual_power_mw) p5 += p;
  p5 /= static_cast<double>(r5.actual_power_mw.size());
  EXPECT_NEAR((p5 - 5.0) / 5.0, 0.04, 0.06);
}

TEST(Firmware, ThroughputWithinPaperBandOfAchievable) {
  // Fig. 7: experimental throughput lands between ~45% and ~85% of T^σ_g.
  for (const double rho : {1.0, 5.0}) {
    const TestbedConfig cfg = quick_config(rho, 0.5, 5);
    const TestbedResult r = run_testbed(cfg);
    const auto nodes = model::homogeneous(cfg.n, rho, cfg.hw.listen_power_mw,
                                          cfg.hw.transmit_power_mw);
    const double t_sigma =
        gibbs::solve_p4(nodes, model::Mode::kGroupput, cfg.sigma).throughput;
    const double ratio = r.groupput / t_sigma;
    EXPECT_GT(ratio, 0.40) << "rho=" << rho;
    EXPECT_LT(ratio, 1.0) << "rho=" << rho;
  }
}

TEST(Firmware, PingDistributionShapeMatchesTableIV) {
  // Table IV: at ρ=1 mW most packets see no listener; at ρ=5 mW the mass
  // shifts toward 1-2 listeners.
  const TestbedResult r1 = run_testbed(quick_config(1.0, 0.25, 6));
  const TestbedResult r5 = run_testbed(quick_config(5.0, 0.25, 6));
  EXPECT_GT(r1.ping_distribution.fraction(0), 0.55);
  EXPECT_GT(r1.ping_distribution.fraction(0),
            r5.ping_distribution.fraction(0));
  EXPECT_GT(r5.ping_distribution.fraction(1) + r5.ping_distribution.fraction(2),
            r1.ping_distribution.fraction(1) + r1.ping_distribution.fraction(2));
}

TEST(Firmware, PingLossesAreAccounted) {
  const TestbedResult r = run_testbed(quick_config(5.0, 0.25, 7));
  EXPECT_GT(r.pings_sent, 0u);
  // With the default detect probability some decode losses must appear.
  EXPECT_GT(r.pings_lost_decode + r.pings_lost_collision, 0u);
  EXPECT_LT(r.pings_lost_decode + r.pings_lost_collision, r.pings_sent);
}

TEST(Firmware, HigherBudgetYieldsMoreThroughput) {
  const TestbedResult r1 = run_testbed(quick_config(1.0, 0.5, 8));
  const TestbedResult r5 = run_testbed(quick_config(5.0, 0.5, 8));
  EXPECT_GT(r5.groupput, r1.groupput);
}

TEST(Firmware, DeterministicPerSeed) {
  TestbedConfig cfg = quick_config(1.0, 0.5, 12);
  cfg.duration_ms = 30.0 * 60e3;
  cfg.warmup_ms = 10.0 * 60e3;
  const TestbedResult a = run_testbed(cfg);
  const TestbedResult b = run_testbed(cfg);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_DOUBLE_EQ(a.groupput, b.groupput);
}

// Exact results of two 2 h runs, bit for bit: the paper benches print the
// testbed only at table precision, so these pins are what holds a refactor
// of the firmware loop to the same bits.
struct FirmwarePin {
  std::size_t n;
  double budget_mw, sigma;
  std::uint64_t seed;
  double groupput;
  std::uint64_t packets, bursts, pings_sent, pings_lost_collision,
      pings_lost_decode;
  std::vector<double> final_eta, modeled_power_mw;
};

TEST(Firmware, MatchesPinnedRuns) {
  const std::vector<FirmwarePin> pins = {
      {5, 1.0, 0.5, 11, 0x1.66054f43e32d2p-7, 8989, 210, 1475, 6, 34,
       {0x1.50cd52b4bbc3p-5, 0x1.525767527a2f6p-5, 0x1.4836f3ed569dep-5,
        0x1.488130d8a9dc9p-5, 0x1.53dfa4c1e2cep-5},
       {0x1.79e04ee5bc826p+0, 0x1.7e9ed88e1c95dp+0, 0x1.79fbb0d408cf7p+0,
        0x1.4947ad748632fp+0, 0x1.784f7b67f27cp+0}},
      {8, 5.0, 0.25, 12, 0x1.0c7188f9287d6p-1, 76597, 2605, 70781, 1363, 1380,
       {0x1.f79f8bc203cb1p-7, 0x1.fd7842acb771cp-7, 0x1.0bf79b837c51dp-6,
        0x1.02a00aef66b56p-6, 0x1.09c6008e46448p-6, 0x1.0f7729d03a9fap-6,
        0x1.064b5811d17b5p-6, 0x1.098a359df46aep-6},
       {0x1.39059f6085c5p+3, 0x1.511c8ef528adbp+3, 0x1.4791462ff0b8bp+3,
        0x1.527007fbb1142p+3, 0x1.62b20ac2f68b2p+3, 0x1.6e9fd7383b8a9p+3,
        0x1.538bd1c603051p+3, 0x1.680d88e8b8c8ep+3}},
  };
  for (const FirmwarePin& pin : pins) {
    SCOPED_TRACE("n=" + std::to_string(pin.n));
    TestbedConfig cfg;
    cfg.n = pin.n;
    cfg.budget_mw = pin.budget_mw;
    cfg.sigma = pin.sigma;
    cfg.seed = pin.seed;
    cfg.duration_ms = 2.0 * 3600e3;
    cfg.warmup_ms = 0.5 * 3600e3;
    const TestbedResult r = run_testbed(cfg);
    EXPECT_EQ(r.groupput, pin.groupput);
    EXPECT_EQ(r.packets, pin.packets);
    EXPECT_EQ(r.bursts, pin.bursts);
    EXPECT_EQ(r.pings_sent, pin.pings_sent);
    EXPECT_EQ(r.pings_lost_collision, pin.pings_lost_collision);
    EXPECT_EQ(r.pings_lost_decode, pin.pings_lost_decode);
    EXPECT_EQ(r.final_eta, pin.final_eta);
    EXPECT_EQ(r.modeled_power_mw, pin.modeled_power_mw);
  }
}

TEST(Firmware, RejectsBadConfig) {
  TestbedConfig one_node;
  one_node.n = 1;
  EXPECT_THROW(run_testbed(one_node), std::invalid_argument);
  TestbedConfig bad_warmup;
  bad_warmup.duration_ms = 10.0;
  bad_warmup.warmup_ms = 20.0;
  EXPECT_THROW(run_testbed(bad_warmup), std::invalid_argument);
}

TEST(Firmware, CollisionProbabilityGrowsWithTighterPingInterval) {
  // Sanity of the ping-collision model: squeezing the pinging interval makes
  // simultaneously-sent pings overlap far more often (robust in direction,
  // unlike comparing collision counts across budgets, which is dominated by
  // how often multi-listener packets occur at all).
  TestbedConfig wide = quick_config(5.0, 0.25, 9);
  TestbedConfig tight = wide;
  tight.hw.ping_interval_ms = 1.0;  // 0.4 ms pings in a 1 ms window
  const TestbedResult rw = run_testbed(wide);
  const TestbedResult rt = run_testbed(tight);
  auto loss = [](const TestbedResult& r) {
    return r.pings_sent ? static_cast<double>(r.pings_lost_collision) /
                              static_cast<double>(r.pings_sent)
                        : 0.0;
  };
  EXPECT_GT(loss(rt), loss(rw));
}

}  // namespace
