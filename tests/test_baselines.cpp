// Tests for the prior-art baselines: Birthday, Panda (model vs simulation),
// and Searchlight (incl. the paper's 125 s worst-case latency).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "baselines/birthday.h"
#include "baselines/panda.h"
#include "baselines/searchlight.h"
#include "oracle/clique_oracle.h"

namespace {

using namespace econcast;
using namespace econcast::baselines;
using model::Mode;

// ---------------------------------------------------------------- birthday --

TEST(Birthday, ClosedFormKnownValue) {
  // N=2: groupput = 2 p_x p_l (1-p_x)^0.
  EXPECT_NEAR(birthday_throughput(2, 0.1, 0.2, Mode::kGroupput), 0.04, 1e-12);
  // Anyput with N=2 equals groupput (one possible listener).
  EXPECT_NEAR(birthday_throughput(2, 0.1, 0.2, Mode::kAnyput),
              2.0 * 0.1 * 0.9 * (1.0 - (1.0 - 0.2 / 0.9)), 1e-12);
}

TEST(Birthday, SimulationMatchesClosedForm) {
  for (const Mode mode : {Mode::kGroupput, Mode::kAnyput}) {
    const double analytic = birthday_throughput(5, 0.01, 0.01, mode);
    const BirthdaySimDetail d =
        simulate_birthday_detailed(5, 0.01, 0.01, 4000000, 9);
    const double credit =
        mode == Mode::kGroupput ? d.groupput_credit : d.anyput_credit;
    const double sim = credit / static_cast<double>(d.slots);
    EXPECT_NEAR(sim, analytic, 0.05 * analytic + 1e-5)
        << model::to_string(mode);
  }
}

TEST(Birthday, OptimizerRespectsBudget) {
  const BirthdayDesign d =
      optimize_birthday(5, 10.0, 500.0, 500.0, Mode::kGroupput);
  EXPECT_LE(d.p_listen * 500.0 + d.p_transmit * 500.0, 10.0 + 1e-9);
  EXPECT_GT(d.throughput, 0.0);
}

TEST(Birthday, OptimizerBeatsNaiveSplits) {
  const BirthdayDesign d =
      optimize_birthday(5, 10.0, 500.0, 500.0, Mode::kGroupput);
  for (const double split : {0.1, 0.3, 0.7, 0.9}) {
    const double px = 0.02 * split;
    const double pl = 0.02 * (1.0 - split);
    EXPECT_GE(d.throughput,
              birthday_throughput(5, px, pl, Mode::kGroupput) - 1e-9);
  }
}

TEST(Birthday, PaperSettingFarBelowOracle) {
  // At the Fig. 3 operating point, Birthday reaches only a few percent of
  // the oracle groupput (the gap EconCast closes).
  const BirthdayDesign d =
      optimize_birthday(5, 10.0, 500.0, 500.0, Mode::kGroupput);
  const double oracle_t =
      oracle::groupput(model::homogeneous(5, 10.0, 500.0, 500.0)).throughput;
  const double ratio = d.throughput / oracle_t;
  EXPECT_GT(ratio, 0.005);
  EXPECT_LT(ratio, 0.08);
}

TEST(Birthday, ZeroProbabilitiesGiveZeroThroughput) {
  EXPECT_DOUBLE_EQ(birthday_throughput(5, 0.0, 0.5, Mode::kGroupput), 0.0);
  EXPECT_DOUBLE_EQ(birthday_throughput(5, 0.5, 0.0, Mode::kGroupput), 0.0);
  EXPECT_DOUBLE_EQ(birthday_throughput(1, 0.5, 0.5, Mode::kGroupput), 0.0);
}

// ------------------------------------------------------------------- panda --

TEST(Panda, PowerModelMonotoneInWakeRate) {
  double prev = 0.0;
  for (const double lambda : {0.001, 0.005, 0.02, 0.1}) {
    const double p = panda_power(5, lambda, 1.0, 500.0, 500.0);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(Panda, OptimizerSaturatesBudget) {
  const PandaDesign d = optimize_panda(5, 10.0, 500.0, 500.0);
  EXPECT_NEAR(d.power, 10.0, 0.05);
  EXPECT_GT(d.throughput, 0.0);
  EXPECT_GT(d.wake_rate, 0.0);
  EXPECT_GT(d.listen_window, 0.0);
}

TEST(Panda, SimulationValidatesAnalyticalModel) {
  const PandaDesign d = optimize_panda(5, 10.0, 500.0, 500.0);
  const PandaSimDetail sim =
      simulate_panda_detailed(5, d.wake_rate, d.listen_window, 3e6, 21);
  const double groupput = static_cast<double>(sim.receptions) / sim.duration;
  double energy = 0.0;
  for (std::size_t i = 0; i < 5; ++i)
    energy += (sim.listen_time[i] + sim.transmit_time[i]) * 500.0;
  const double avg_power = energy / (5.0 * sim.duration);
  // The renewal model is approximate; require agreement within 15%.
  EXPECT_NEAR(groupput, d.throughput, 0.15 * d.throughput);
  EXPECT_NEAR(avg_power, d.power, 0.15 * d.power);
}

TEST(Panda, PaperHeadlineGapVersusOracle) {
  // §VII-C: Panda lands at roughly 2-3% of the oracle groupput at the
  // symmetric-power operating point (enabling the 6x/17x claims).
  const PandaDesign d = optimize_panda(5, 10.0, 500.0, 500.0);
  const double oracle_t =
      oracle::groupput(model::homogeneous(5, 10.0, 500.0, 500.0)).throughput;
  const double ratio = d.throughput / oracle_t;
  EXPECT_GT(ratio, 0.01);
  EXPECT_LT(ratio, 0.06);
}

TEST(Panda, ThroughputImprovesWithBudget) {
  const double t1 = optimize_panda(5, 1.0, 67.08, 56.29).throughput;
  const double t5 = optimize_panda(5, 5.0, 67.08, 56.29).throughput;
  EXPECT_GT(t5, t1);
}

TEST(Panda, RejectsBadInputs) {
  EXPECT_THROW(optimize_panda(1, 10.0, 500.0, 500.0), std::invalid_argument);
  EXPECT_THROW(optimize_panda(5, 0.0, 500.0, 500.0), std::invalid_argument);
  EXPECT_THROW(simulate_panda_detailed(5, 0.0, 1.0, 1e4, 1),
               std::invalid_argument);
}

TEST(Panda, SimDeterministicPerSeed) {
  const PandaSimDetail a = simulate_panda_detailed(5, 0.01, 1.0, 1e5, 5);
  const PandaSimDetail b = simulate_panda_detailed(5, 0.01, 1.0, 1e5, 5);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.receptions, b.receptions);
}

// Exact results of the event-driven simulation, bit for bit: no golden digest
// covers it (the paper benches run the analytic model), so these pins are
// what holds a refactor of the simulator to the same event sequence.
struct PandaPin {
  std::size_t n;
  double wake_rate, listen_window, duration;
  std::uint64_t seed;
  std::uint64_t packets, receptions, packets_received_any;
  std::vector<double> listen_time, transmit_time;
};

TEST(Panda, SimMatchesPinnedRuns) {
  const std::vector<PandaPin> pins = {
      // w < 1.
      {5, 0.06022, 0.6615, 2e4, 3, 4399, 701, 659,
       {0x1.a36bfcbc84b12p+9, 0x1.973255a0873f3p+9, 0x1.a610d852af506p+9,
        0x1.8e53bfc3f846p+9, 0x1.81f3a1ee6e2fap+9},
       {0x1.d1p+9, 0x1.bc8p+9, 0x1.c6p+9, 0x1.a7p+9, 0x1.9dp+9}},
      // w > 1.
      {8, 0.02, 2.5, 3e4, 4, 3375, 1172, 1024,
       {0x1.403e8920733fp+10, 0x1.4cd624fdb1601p+10, 0x1.5e666479e85e2p+10,
        0x1.5d4544d45da1bp+10, 0x1.59c8aaab749e8p+10, 0x1.541cc86c8e2a2p+10,
        0x1.5fd9fbd69de0cp+10, 0x1.6ebce85164cffp+10},
       {0x1.83p+8, 0x1.a4p+8, 0x1.a6p+8, 0x1.b1p+8, 0x1.adp+8, 0x1.99p+8,
        0x1.a6p+8, 0x1.c5p+8}},
      // n = 2.
      {2, 0.1, 0.4, 2e4, 5, 3188, 119, 119,
       {0x1.723a6e12b8e24p+9, 0x1.7829bba96fa39p+9},
       {0x1.8e4p+10, 0x1.8ecp+10}},
  };
  for (const PandaPin& pin : pins) {
    SCOPED_TRACE("n=" + std::to_string(pin.n) +
                 " w=" + std::to_string(pin.listen_window));
    const PandaSimDetail d = simulate_panda_detailed(
        pin.n, pin.wake_rate, pin.listen_window, pin.duration, pin.seed);
    EXPECT_EQ(d.packets, pin.packets);
    EXPECT_EQ(d.receptions, pin.receptions);
    EXPECT_EQ(d.packets_received_any, pin.packets_received_any);
    EXPECT_EQ(d.listen_time, pin.listen_time);
    EXPECT_EQ(d.transmit_time, pin.transmit_time);
  }
}

// ------------------------------------------------------------- searchlight --

TEST(Searchlight, PaperPeriodAndDutyCycle) {
  SearchlightConfig cfg;  // defaults are the paper's setting
  const SearchlightResult r = analyze_searchlight(cfg);
  EXPECT_EQ(r.period_slots, 100);       // t = 2L/ρ
  EXPECT_NEAR(r.duty_cycle, 0.02, 1e-12);
}

TEST(Searchlight, PaperWorstCaseLatencyNear125s) {
  // Fig. 5(a) reference line: 125 s with slot 50 ms, beacon 1 ms.
  SearchlightConfig cfg;
  const SearchlightResult r = analyze_searchlight(cfg);
  EXPECT_NEAR(r.worst_latency_seconds, 125.0, 6.0);
  EXPECT_LT(r.mean_latency_seconds, r.worst_latency_seconds);
  EXPECT_GT(r.mean_latency_seconds, 20.0);
}

TEST(Searchlight, HigherBudgetShortensLatency) {
  SearchlightConfig lean;
  SearchlightConfig rich;
  rich.budget = 50e-6;
  const double worst_lean = analyze_searchlight(lean).worst_latency_seconds;
  const double worst_rich = analyze_searchlight(rich).worst_latency_seconds;
  EXPECT_LT(worst_rich, worst_lean);
}

TEST(Searchlight, GroupputUpperBoundScalesWithN) {
  SearchlightConfig cfg;
  const SearchlightResult r = analyze_searchlight(cfg);
  EXPECT_DOUBLE_EQ(r.groupput_upper_bound(5), 4.0 * r.pairwise_throughput);
  EXPECT_DOUBLE_EQ(r.groupput_upper_bound(1), 0.0);
}

TEST(Searchlight, FarBelowOracleAtPaperPoint) {
  SearchlightConfig cfg;
  cfg.budget = 10.0;  // µW-scale unit system
  cfg.listen_power = 500.0;
  const SearchlightResult r = analyze_searchlight(cfg);
  const double oracle_t =
      oracle::groupput(model::homogeneous(5, 10.0, 500.0, 500.0)).throughput;
  const double ratio = r.groupput_upper_bound(5) / oracle_t;
  EXPECT_GT(ratio, 0.003);
  EXPECT_LT(ratio, 0.10);
}

TEST(Searchlight, RejectsNonDutyCycledInputs) {
  SearchlightConfig cfg;
  cfg.budget = 1.0;
  cfg.listen_power = 0.5;  // budget above listen power: no duty cycling
  EXPECT_THROW(analyze_searchlight(cfg), std::invalid_argument);
}

}  // namespace
