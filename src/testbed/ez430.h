// Hardware model of the TI eZ430-RF2500-SEH node used in §VIII: the measured
// power levels, the packet/ping geometry chosen in §VIII-C, the regulator
// overhead that makes the actual draw exceed the modeled draw (§VIII-B), and
// the capacitor-discharge energy-measurement procedure of eqs. (25)-(26).
//
// This substitutes for the physical testbed (firmware.h runs the protocol
// on it): every loss mechanism the paper attributes to the hardware —
// ping-interval overhead, ping collisions and failed decodings, sleep-clock
// drift, regulator draw — is modeled explicitly so the same code paths are
// exercised.
#ifndef ECONCAST_TESTBED_EZ430_H
#define ECONCAST_TESTBED_EZ430_H

#include "util/random.h"

namespace econcast::testbed {

struct Ez430Constants {
  // Measured in §VIII-A at -16 dBm transmit power, 2.4 GHz, 250 kbps.
  double listen_power_mw = 67.08;    // L
  double transmit_power_mw = 56.29;  // X

  // §VIII-C packet geometry (milliseconds).
  double packet_ms = 40.0;        // data packet ("unit packet" of the theory)
  double ping_ms = 0.4;           // shortest transmittable frame
  double ping_interval_ms = 8.0;  // fixed listening window after each packet

  // Regulator & peripherals overhead (§VIII-B): the actual power exceeds the
  // virtual-battery model. Calibrated so that P exceeds ρ by ~11% at
  // ρ = 1 mW and ~4% at ρ = 5 mW, as measured in the paper:
  //   actual = modeled * (1 + overhead_fraction) + overhead_const_mw.
  double overhead_const_mw = 0.0875;
  double overhead_fraction = 0.0225;

  // Low-power sleep clock accuracy: per-node multiplicative drift factor
  // drawn from U[1 - drift, 1 + drift] (the VLO of the MSP430 is specified
  // to a few percent and is environment-sensitive, §VIII-D).
  double sleep_clock_drift = 0.02;

  // Probability a non-colliding ping is successfully decoded by the
  // transmitter (threshold/decode failures, §VIII-D).
  double ping_detect_prob = 0.98;
};

/// Capacitor-discharge power measurement (§VIII-B): the node runs from a
/// pre-charged capacitor; power is inferred from the voltage drop via
///   E = 1/2 C (V_t0² - V_t1²),  P = E / (t1 - t0).          (25)-(26)
class CapacitorMeter {
 public:
  /// capacitance in farads, v0 the pre-charge voltage, v_min the lowest
  /// stable working voltage (3.0 V for the eZ430 regulator).
  CapacitorMeter(double capacitance_f, double v0 = 3.6, double v_min = 3.0);

  /// Voltage after drawing `energy_mj` millijoules; throws std::domain_error
  /// if the capacitor would fall below the working range (node lifetime
  /// exceeded, cf. the 135/27-minute lifetimes quoted in §VIII-B).
  double voltage_after(double energy_mj) const;

  /// Emulates one measurement run: given the true consumed energy over
  /// `duration_ms`, reads both voltages with additive Gaussian-ish noise of
  /// `noise_v` volts (multimeter quantization) and applies (25)-(26).
  /// Returns the empirically measured power in mW.
  double measure_power_mw(double energy_mj, double duration_ms, double noise_v,
                          util::Rng& rng) const;

  /// Usable energy between v0 and v_min, in millijoules.
  double usable_energy_mj() const noexcept;

  /// Node lifetime at a constant draw, in minutes.
  double lifetime_minutes(double power_mw) const noexcept;

 private:
  double cap_f_;
  double v0_;
  double v_min_;
};

}  // namespace econcast::testbed

#endif  // ECONCAST_TESTBED_EZ430_H
