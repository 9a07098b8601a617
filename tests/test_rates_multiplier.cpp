// Tests for the transition-rate laws (18a)-(18f), the multiplier update
// (17), and the listener estimators.
#include <gtest/gtest.h>

#include <cmath>

#include "econcast/estimator.h"
#include "econcast/multiplier.h"
#include "econcast/rates.h"
#include "util/random.h"

namespace {

using namespace econcast;
using namespace econcast::proto;
using model::Mode;

// ------------------------------------------------------------------ rates --

TEST(Rates, SleepToListenFormula) {
  // (18a): λ_sl = A exp(-ηL/σ).
  const RateController rc(500.0, 500.0, 0.5, Variant::kCapture,
                          Mode::kGroupput);
  EXPECT_DOUBLE_EQ(rc.sleep_to_listen(0.0, true), 1.0);
  EXPECT_NEAR(rc.sleep_to_listen(0.001, true), std::exp(-1.0), 1e-12);
  EXPECT_DOUBLE_EQ(rc.sleep_to_listen(0.001, false), 0.0);  // gated
}

TEST(Rates, ListenToSleepIsCarrierGatedUnitRate) {
  // (18b): λ_ls = A.
  const RateController rc(500.0, 500.0, 0.5, Variant::kCapture,
                          Mode::kGroupput);
  EXPECT_DOUBLE_EQ(rc.listen_to_sleep(true), 1.0);
  EXPECT_DOUBLE_EQ(rc.listen_to_sleep(false), 0.0);
}

TEST(Rates, ListenToTransmitCapture) {
  // (18c): λ_lx = A exp(η(L-X)/σ) — independent of the listener count.
  const RateController rc(600.0, 400.0, 0.5, Variant::kCapture,
                          Mode::kGroupput);
  EXPECT_NEAR(rc.listen_to_transmit(0.001, 0.0, true),
              std::exp(0.001 * 200.0 / 0.5), 1e-12);
  EXPECT_DOUBLE_EQ(rc.listen_to_transmit(0.001, 3.0, true),
                   rc.listen_to_transmit(0.001, 0.0, true));
  EXPECT_DOUBLE_EQ(rc.listen_to_transmit(0.001, 3.0, false), 0.0);
}

TEST(Rates, ListenToTransmitNonCaptureUsesEstimate) {
  // (18d): λ_lx = A exp(η(L-X)/σ + ĉ/σ).
  const RateController rc(500.0, 500.0, 0.5, Variant::kNonCapture,
                          Mode::kGroupput);
  const double base = rc.listen_to_transmit(0.0, 0.0, true);
  EXPECT_DOUBLE_EQ(base, 1.0);
  EXPECT_NEAR(rc.listen_to_transmit(0.0, 2.0, true), std::exp(4.0), 1e-9);
}

TEST(Rates, TransmitReleaseCapture) {
  // (18e): λ_xl = exp(-ĉ/σ); continue probability 1 - λ_xl (§V-B).
  const RateController rc(500.0, 500.0, 0.5, Variant::kCapture,
                          Mode::kGroupput);
  EXPECT_DOUBLE_EQ(rc.transmit_to_listen(0.0), 1.0);
  EXPECT_NEAR(rc.transmit_to_listen(1.0), std::exp(-2.0), 1e-12);
  EXPECT_NEAR(rc.continue_probability(1.0), 1.0 - std::exp(-2.0), 1e-12);
  EXPECT_DOUBLE_EQ(rc.continue_probability(0.0), 0.0);
}

TEST(Rates, TransmitReleaseNonCaptureIsUnit) {
  // (18f): λ_xl = 1; never continues.
  const RateController rc(500.0, 500.0, 0.5, Variant::kNonCapture,
                          Mode::kGroupput);
  EXPECT_DOUBLE_EQ(rc.transmit_to_listen(5.0), 1.0);
  EXPECT_DOUBLE_EQ(rc.continue_probability(5.0), 0.0);
}

TEST(Rates, AnyputUsesGammaNotCount) {
  const RateController rc(500.0, 500.0, 0.5, Variant::kCapture, Mode::kAnyput);
  EXPECT_DOUBLE_EQ(rc.effective_estimate(0.0), 0.0);
  EXPECT_DOUBLE_EQ(rc.effective_estimate(1.0), 1.0);
  EXPECT_DOUBLE_EQ(rc.effective_estimate(4.0), 1.0);  // existence only
  EXPECT_DOUBLE_EQ(rc.transmit_to_listen(4.0), rc.transmit_to_listen(1.0));
}

TEST(Rates, PaperPingProbabilities) {
  // §VIII-D: with one ping received, the continue probability is 0.8647 at
  // σ = 0.5 and 0.9817 at σ = 0.25.
  const RateController half(67.08, 56.29, 0.5, Variant::kCapture,
                            Mode::kGroupput);
  EXPECT_NEAR(half.continue_probability(1.0), 0.8647, 1e-4);
  const RateController quarter(67.08, 56.29, 0.25, Variant::kCapture,
                               Mode::kGroupput);
  EXPECT_NEAR(quarter.continue_probability(1.0), 0.9817, 1e-4);
}

TEST(Rates, ExtremeEtaDoesNotOverflow) {
  const RateController rc(500.0, 100.0, 0.01, Variant::kCapture,
                          Mode::kGroupput);
  EXPECT_TRUE(std::isfinite(rc.listen_to_transmit(100.0, 0.0, true)));
  EXPECT_GE(rc.sleep_to_listen(1e9, true), 0.0);
}

TEST(Rates, RejectsBadConstruction) {
  EXPECT_THROW(RateController(0.0, 1.0, 0.5, Variant::kCapture,
                              Mode::kGroupput),
               std::invalid_argument);
  EXPECT_THROW(RateController(1.0, 1.0, 0.0, Variant::kCapture,
                              Mode::kGroupput),
               std::invalid_argument);
}

TEST(Rates, VariantToString) {
  EXPECT_STREQ(to_string(Variant::kCapture), "EconCast-C");
  EXPECT_STREQ(to_string(Variant::kNonCapture), "EconCast-NC");
}

// -------------------------------------------------------------- multiplier --

TEST(Multiplier, UpdateFollowsEquation17) {
  MultiplierConfig mc;
  mc.delta = 0.1;
  mc.tau = 10.0;
  mc.eta_init = 1.0;
  MultiplierTracker t(mc);
  // η <- (η - δ/τ · Δb)⁺ = 1 - 0.01 * 20 = 0.8.
  t.update(20.0);
  EXPECT_NEAR(t.eta(), 0.8, 1e-12);
  // Negative storage delta (over-consumption) raises η.
  t.update(-20.0);
  EXPECT_NEAR(t.eta(), 1.0, 1e-12);
}

TEST(Multiplier, ProjectionAtZero) {
  MultiplierConfig mc;
  mc.delta = 1.0;
  mc.tau = 1.0;
  mc.eta_init = 0.05;
  MultiplierTracker t(mc);
  t.update(1000.0);
  EXPECT_DOUBLE_EQ(t.eta(), 0.0);  // (·)⁺ projection
}

TEST(Multiplier, ConstantScheduleIntervals) {
  MultiplierConfig mc;
  mc.tau = 42.0;
  MultiplierTracker t(mc);
  EXPECT_DOUBLE_EQ(t.next_interval_length(), 42.0);
  t.update(0.0);
  EXPECT_DOUBLE_EQ(t.next_interval_length(), 42.0);
}

TEST(Multiplier, Theorem1Schedule) {
  // δ_k = 1/((k+1) ln(k+1)), τ_k = k.
  MultiplierConfig mc;
  mc.schedule = StepSchedule::kTheorem1;
  mc.eta_init = 1.0;
  MultiplierTracker t(mc);
  EXPECT_DOUBLE_EQ(t.next_interval_length(), 1.0);  // τ_1 = 1
  const double delta1 = 1.0 / (2.0 * std::log(2.0));
  t.update(1.0);  // η <- 1 - (δ_1/τ_1)·1
  EXPECT_NEAR(t.eta(), 1.0 - delta1, 1e-12);
  EXPECT_DOUBLE_EQ(t.next_interval_length(), 2.0);  // τ_2 = 2
}

TEST(Multiplier, Theorem1StepsDiminish) {
  MultiplierConfig mc;
  mc.schedule = StepSchedule::kTheorem1;
  mc.eta_init = 10.0;
  MultiplierTracker t(mc);
  double prev_eta = 10.0;
  double prev_step = 1e9;
  for (int k = 0; k < 50; ++k) {
    t.update(1.0);
    const double step = prev_eta - t.eta();
    EXPECT_LT(step, prev_step);
    prev_step = step;
    prev_eta = t.eta();
  }
}

TEST(Multiplier, SyntheticConvergenceToBudgetBalance) {
  // Feedback loop: consumption(η) = c0 exp(-η); harvest ρ. The equilibrium
  // is η* = ln(c0/ρ); (17) with a small constant step converges to it.
  MultiplierConfig mc;
  mc.delta = 0.05;
  mc.tau = 1.0;
  MultiplierTracker t(mc);
  const double c0 = 5.0, rho = 1.0;
  for (int k = 0; k < 3000; ++k) {
    const double consumption = c0 * std::exp(-t.eta());
    t.update(rho - consumption);  // Δb over a unit interval
  }
  EXPECT_NEAR(t.eta(), std::log(c0 / rho), 0.02);
}

TEST(Multiplier, RejectsBadConfig) {
  MultiplierConfig mc;
  mc.delta = 0.0;
  EXPECT_THROW(MultiplierTracker{mc}, std::invalid_argument);
  MultiplierConfig neg;
  neg.eta_init = -1.0;
  EXPECT_THROW(MultiplierTracker{neg}, std::invalid_argument);
}

// -------------------------------------------------------------- estimators --

TEST(Estimator, PerfectReturnsTruth) {
  util::Rng rng(1);
  const ListenerEstimator est{EstimatorConfig{}};
  for (int c = 0; c <= 5; ++c) EXPECT_EQ(est.estimate(c, rng), c);
}

TEST(Estimator, BinomialThinningMean) {
  util::Rng rng(2);
  EstimatorConfig cfg;
  cfg.kind = EstimatorKind::kBinomialThinning;
  cfg.detect_prob = 0.6;
  const ListenerEstimator est(cfg);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) sum += est.estimate(5, rng);
  EXPECT_NEAR(sum / 20000.0, 3.0, 0.05);
}

TEST(Estimator, ExistenceOnlyCollapsesCounts) {
  util::Rng rng(3);
  EstimatorConfig cfg;
  cfg.kind = EstimatorKind::kExistenceOnly;
  const ListenerEstimator est(cfg);
  EXPECT_EQ(est.estimate(0, rng), 0);
  EXPECT_EQ(est.estimate(1, rng), 1);
  EXPECT_EQ(est.estimate(7, rng), 1);
}

TEST(Estimator, RejectsBadDetectProb) {
  EstimatorConfig cfg;
  cfg.kind = EstimatorKind::kBinomialThinning;
  cfg.detect_prob = 1.5;
  EXPECT_THROW(ListenerEstimator{cfg}, std::invalid_argument);
}

}  // namespace
