// Continuous-time discrete-event simulation of a network running EconCast
// (§V). Each node holds exponential sojourn times with the rates of eq. (18),
// gated by carrier sense; the capture variant is packetized via the §V-B
// equivalence (continue with probability 1 - λ_xl per unit packet). Nodes
// adapt their multipliers from energy-storage deltas (eq. (17)).
//
// Works on any topology; on cliques with N <= 16 it can additionally tally
// the empirical network-state occupancy for direct comparison against the
// Gibbs distribution (19) (the Lemma 2 cross-check used by the test suite).
//
// Hot-path layout: the per-node fields the inner loops touch on every event
// (state, state_since, the η mirror, the energy balance) live in parallel
// arrays backed by a per-scenario bump arena, not in the per-node struct.
// The rate state is sized by what the variant reads: λ_sl and capture's λ_lx
// depend on η alone, so each is one exponential per node, refreshed on η
// updates; non-capture's λ_lx also reads the listener count (the channel's
// incremental per-node count) and is evaluated per query.
#ifndef ECONCAST_ECONCAST_SIMULATION_H
#define ECONCAST_ECONCAST_SIMULATION_H

#include <cstdint>
#include <vector>

#include "econcast/estimator.h"
#include "econcast/multiplier.h"
#include "econcast/rates.h"
#include "model/network.h"
#include "model/node_params.h"
#include "model/state_space.h"
#include "sim/arena.h"
#include "sim/channel.h"
#include "sim/energy.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "sim/node_id.h"
#include "util/stats.h"

namespace econcast::proto {

struct SimConfig {
  model::Mode mode = model::Mode::kGroupput;
  Variant variant = Variant::kCapture;
  double sigma = 0.5;

  MultiplierConfig multiplier;         // shared adaptation parameters
  bool adapt_multiplier = true;        // false: freeze η at its initial value
  std::vector<double> eta_init;        // optional per-node override

  /// Auto-scale the constant step δ to the node's own power scale:
  /// δ_i = auto_step_gain · σ / (L_i · ρ_i). The multiplier's natural scale
  /// is σ/L_i and the storage delta's natural scale per interval is ρ_i·τ,
  /// so this makes the per-interval η drift a fixed fraction of σ/L_i —
  /// eq. (17) is unit-sensitive and the paper leaves the calibration of δ
  /// open ("some small constant δ", §V-F). Ignored for kTheorem1.
  bool auto_step = true;
  double auto_step_gain = 0.02;

  EstimatorConfig estimator;

  double duration = 1e6;   // total simulated packet-times
  double warmup = 0.0;     // metrics discarded before this time
  std::uint64_t seed = 1;
  double initial_energy = 0.0;

  /// Physical-storage guard (off by default to match the paper's idealized
  /// §VII model, where b(t) is unbounded). When enabled, a node whose
  /// storage runs empty browns out: it is forced to sleep (an
  /// in-progress reception is lost) and may not wake again until it has
  /// recharged enough to afford one packet-time of listening. A transmitter
  /// will not extend a burst it cannot pay for. This bounds the giant
  /// captures that unbounded storage permits at small σ.
  ///
  /// Pair the guard with a realistic `initial_energy` — a receiver can only
  /// take bursts it can pay for, so starting empty collapses
  /// reception into one-packet snippets. A small storage capacitor's worth
  /// (e.g. ~1000 packet-times of listening, 0.5 mJ at the paper's scale)
  /// makes the guard invisible in steady state while still truncating the
  /// e^{(N-1)/σ}-packet transient captures.
  bool energy_guard = false;

  /// Tally time per network state (cliques, N <= 16 only).
  bool track_state_occupancy = false;
};

struct SimResult {
  double measured_window = 0.0;  // duration - warmup
  double groupput = 0.0;         // received packet-time per unit time
  double anyput = 0.0;

  std::vector<double> avg_power;          // measured consumption rate per node
  std::vector<double> listen_fraction;    // measured α_i
  std::vector<double> transmit_fraction;  // measured β_i
  std::vector<double> final_eta;

  util::RunningStats burst_lengths;  // packets per received burst
  util::SampleSet latencies;         // inter-burst gaps incl. >= 1 sleep

  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t bursts = 0;
  std::uint64_t corrupted_receptions = 0;
  /// Events handled by the main loop (cancelled events never leave the
  /// queue; they are counted in queue_stats.cancels).
  std::uint64_t events_processed = 0;

  /// Event-queue instrumentation (always collected — it is a handful of
  /// counters). protocol::SimResult does not carry it.
  sim::QueueStats queue_stats;

  /// Normalized time-in-state (indexed by model::state_index); empty unless
  /// track_state_occupancy was set.
  std::vector<double> state_occupancy;
};

class Simulation {
 public:
  Simulation(model::NodeSet nodes, model::Topology topology, SimConfig config);

  /// Runs to config.duration and collects results. Call once.
  SimResult run();

 private:
  enum class NodeState : std::uint8_t { kSleep, kListen, kTransmit };

  /// Cold per-node state: touched once per multiplier interval or once per
  /// burst, not on every event. The hot fields (state, state_since, η,
  /// energy balance) live in the SoA arrays below.
  struct NodeRuntime {
    MultiplierTracker multiplier;
    double interval_start_level = 0.0;
    // Burst bookkeeping while transmitting:
    std::uint64_t burst_packets = 0;
    bool burst_received_any = false;
    double packet_start = 0.0;

    explicit NodeRuntime(const MultiplierConfig& mc) : multiplier(mc) {}
  };

  // Event handlers.
  void fire_transition(sim::NodeId i);
  void handle_packet_end(sim::NodeId i);
  void handle_interval_end(sim::NodeId i);
  void handle_energy_guard(sim::NodeId i);

  // State machinery.
  void set_state(sim::NodeId i, NodeState next);
  /// Re-samples the node's rate-driven events for its current state: the
  /// slots that get a new event are re-armed in place, the others are
  /// cancelled.
  void schedule_transition(sim::NodeId i);
  /// Cancels the node's pending rate-driven events (the next transition and
  /// any energy-guard wake-up/watchdog); the queue removes them in place.
  void invalidate_transition(sim::NodeId i) {
    queue_.cancel(i, sim::EventKind::kTransition);
    queue_.cancel(i, sim::EventKind::kEnergyDepleted);
  }
  void resample_toggled();
  void resample_listening_neighbors_nc(sim::NodeId i);
  void begin_packet_timer(sim::NodeId i);
  void finish_burst(sim::NodeId i);

  // Estimation.
  int observed_listeners(sim::NodeId i) const;

  // Rate evaluation (the rate-state layout is in the file comment). The
  // memos hold the exact RateController expressions, so the memoized rates
  // are bit-equal to evaluating them inline.
  void refresh_eta(sim::NodeId i);
  double wake_rate(sim::NodeId i, bool idle);
  double listen_tx_rate(sim::NodeId i, bool idle);

  // Occupancy tracking.
  void occupancy_advance();
  void occupancy_apply_state(sim::NodeId i, NodeState next);

  model::NodeSet nodes_;
  model::Topology topo_;
  SimConfig config_;
  std::vector<RateController> rates_;  // per node (heterogeneous powers)
  ListenerEstimator estimator_;
  util::Rng rng_;

  double now_ = 0.0;
  // The scenario arena backs every member below it; it is declared first so
  // it is destroyed last (and Simulation is immovable because of it — the
  // containers hold raw pointers into it).
  sim::Arena arena_;
  sim::EventQueue queue_;
  sim::Channel channel_;
  sim::MetricsCollector metrics_;
  std::vector<NodeRuntime> nodes_rt_;  // cold per-node state

  // Hot per-node state, struct-of-arrays (all arena-backed, assigned after
  // validation in the constructor):
  sim::ArenaVector<NodeState> state_;
  sim::ArenaVector<double> state_since_;
  sim::ArenaVector<double> listen_time_;    // inside the measured window
  sim::ArenaVector<double> transmit_time_;
  sim::ArenaVector<double> eta_;        // mirror of nodes_rt_[i].multiplier
  sim::ArenaVector<double> wake_rate_;  // λ_sl(η) at idle; refreshed with η
  sim::ArenaVector<double> tx_rate_;    // λ_lx(η, 0) at idle, capture's
                                        //   count-free rate; refreshed with η
  sim::EnergyLedger energy_;

  sim::ArenaVector<std::uint8_t> burst_rx_flag_;  // receivers of current burst
  sim::ArenaVector<sim::NodeId> burst_rx_list_;
  std::uint64_t events_processed_ = 0;

  // Occupancy tracker state.
  std::vector<double> occupancy_;
  std::uint64_t occ_mask_ = 0;
  int occ_tx_ = -1;
  double occ_since_ = 0.0;
};

}  // namespace econcast::proto

#endif  // ECONCAST_ECONCAST_SIMULATION_H
