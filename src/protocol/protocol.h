// Protocol-agnostic simulation API. The paper's evaluation is comparative —
// every figure overlays EconCast against Panda, Birthday and Searchlight
// under identical (N, ρ, L, X) settings — so the protocols must be
// interchangeable units of work: a `Protocol` builds a runnable `Sim` from
// (nodes, topology, seed), every `Sim` produces the same `SimResult` shape,
// and a string-keyed `ProtocolRegistry` lets scenario descriptions refer to
// protocols by name ("econcast", "panda", "birthday", "searchlight-bound",
// ...). runner::ScenarioRunner executes any mix of them in one batch under
// one determinism contract.
//
// Analytic baselines (the Panda/Birthday closed-form optima, the Searchlight
// bound, the P4 achievable throughput, the oracle) fit the same interface:
// their `Sim` ignores the seed and returns the deterministic model values,
// which is exactly how the paper's Fig. 3 / Table III columns are defined.
#ifndef ECONCAST_PROTOCOL_PROTOCOL_H
#define ECONCAST_PROTOCOL_PROTOCOL_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "econcast/simulation.h"
#include "model/network.h"
#include "model/node_params.h"
#include "model/state_space.h"
#include "util/stats.h"

namespace econcast::protocol {

/// The metric surface every protocol reports. Fields a protocol does not
/// measure stay at their empty defaults; protocol-specific scalars (wake
/// rate, ping losses, iteration counts, ...) go into `extras`.
struct SimResult {
  double measured_window = 0.0;  // simulated time covered (0 for analytic)
  double groupput = 0.0;         // received packet-time per unit time
  double anyput = 0.0;

  std::vector<double> avg_power;          // measured consumption per node
  std::vector<double> listen_fraction;    // measured α_i
  std::vector<double> transmit_fraction;  // measured β_i

  util::RunningStats burst_lengths;  // packets per received burst
  util::SampleSet latencies;         // inter-delivery gaps (protocol units)

  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;

  /// Protocol-specific scalars, keyed by stable snake_case names (e.g.
  /// "events_processed", "wake_rate", "worst_latency_seconds").
  std::map<std::string, double> extras;

  /// extras[key], or `fallback` when the protocol did not report it.
  double extra(const std::string& key, double fallback = 0.0) const;
};

/// A runnable simulation instance bound to one (nodes, topology, seed).
class Sim {
 public:
  virtual ~Sim() = default;

  /// Runs to completion and collects results. Call once.
  virtual SimResult run() = 0;
};

/// A protocol: a factory of Sims. Implementations carry their own tuned
/// parameters (σ, wake rate, slot probabilities, ...); the network and the
/// seed arrive per run so one Protocol instance can serve a whole sweep.
class Protocol {
 public:
  virtual ~Protocol() = default;

  /// The registry key this protocol answers to (diagnostics only).
  virtual std::string name() const = 0;

  /// Builds a runnable sim. Throws std::invalid_argument when the protocol
  /// cannot operate on the given network (e.g. Panda requires a homogeneous
  /// clique). Analytic protocols ignore `seed`.
  virtual std::unique_ptr<Sim> make_sim(const model::NodeSet& nodes,
                                        const model::Topology& topology,
                                        std::uint64_t seed) const = 0;
};

// ---------------------------------------------------------------------------
// Typed per-protocol parameters. A ProtocolSpec pairs a registry name with
// one of these; the registry factory checks it received the matching type.
// ---------------------------------------------------------------------------

/// "econcast": the §V discrete-event simulation (config.seed is overridden
/// by the per-run seed).
struct EconCastParams {
  proto::SimConfig config;
};

/// "econcast-p4": the analytic achievable throughput T^σ via the (P4)
/// solver — the curve the paper normalizes everything against.
struct P4Params {
  model::Mode mode = model::Mode::kGroupput;
  double sigma = 0.5;
};

/// "oracle": the centralized upper bound T* ((P2)/(P3) LPs).
struct OracleParams {
  model::Mode mode = model::Mode::kGroupput;
};

/// "panda": Margolies et al. neighbor discovery. With `optimize` the
/// (λ, w) design is derived from the node budget/powers (the paper's
/// comparison point); otherwise `wake_rate`/`listen_window` are used as
/// given. With `simulate` the event-driven simulator runs for `duration`
/// packet-times; otherwise the renewal-reward model values are reported.
struct PandaParams {
  bool optimize = true;
  double wake_rate = 0.0;
  double listen_window = 0.0;
  bool simulate = false;
  double duration = 1e6;
};

/// "birthday": McGlynn & Borbash slotted discovery. Same optimize/simulate
/// split as Panda; `slots` is the simulated horizon (1 slot = 1 packet-time).
struct BirthdayParams {
  model::Mode mode = model::Mode::kGroupput;
  bool optimize = true;
  double p_transmit = 0.0;
  double p_listen = 0.0;
  bool simulate = false;
  std::uint64_t slots = 1000000;
};

/// "searchlight-bound": the paper's Searchlight groupput upper bound
/// ((N-1) × pairwise throughput) plus the latency analysis. Budget and
/// listen power come from the (homogeneous) node set; the slot (50 ms) and
/// beacon (1 ms) lengths are baselines::SearchlightConfig's constants, so
/// the protocol has no parameters of its own.
struct SearchlightParams {};

/// "econcast-testbed": the eZ430 firmware emulation of §VIII (mW units,
/// real milliseconds; groupput is converted back to the theory's units).
/// Budget and radio powers come from the (homogeneous) node set, the rest
/// of testbed::TestbedConfig keeps its defaults.
struct TestbedParams {
  double sigma = 0.25;
  double duration_ms = 4.0 * 3600.0 * 1000.0;
  double warmup_ms = 20.0 * 60.0 * 1000.0;
};

using ProtocolParams =
    std::variant<EconCastParams, P4Params, OracleParams, PandaParams,
                 BirthdayParams, SearchlightParams, TestbedParams>;

/// A serialization-ready protocol reference: registry name + typed
/// parameters. This is what runner::Scenario carries, so one batch can mix
/// protocols freely.
struct ProtocolSpec {
  std::string name = "econcast";
  ProtocolParams params = EconCastParams{};

  /// Seed used when the runner's batch reseeding is disabled (reseed=false)
  /// and the parameter struct does not carry its own seed — see
  /// effective_seed. With reseeding on, the runner derives the seed from
  /// (base_seed, index) and both fields are ignored.
  std::uint64_t seed = 1;
};

/// The seed an unreseeded run of this spec uses. Parameter structs that
/// embed a seed are authoritative (EconCastParams uses config.seed, exactly
/// like a direct proto::Simulation run); every other protocol falls back to
/// spec.seed. This keeps one source of truth per spec — mutating
/// EconCastParams::config.seed after construction behaves as expected.
std::uint64_t effective_seed(const ProtocolSpec& spec) noexcept;

/// Convenience constructors for the built-in protocols.
ProtocolSpec econcast_spec(proto::SimConfig config);
ProtocolSpec p4_spec(model::Mode mode, double sigma);
ProtocolSpec oracle_spec(model::Mode mode);
ProtocolSpec panda_spec(PandaParams params = {});
ProtocolSpec birthday_spec(BirthdayParams params = {});
ProtocolSpec searchlight_spec(SearchlightParams params = {});
ProtocolSpec testbed_spec(TestbedParams params = {});

/// Applies sweep axes to a spec: sets `mode` and `sigma` on parameter
/// structs that have those knobs (EconCast, P4, Birthday [mode only],
/// Testbed [sigma only]) and leaves the others untouched. Used by
/// runner::SweepSpec to cross protocols with mode/σ axes.
ProtocolSpec specialized(ProtocolSpec spec, model::Mode mode, double sigma);

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// String-keyed protocol factory table. `global()` is pre-populated with the
/// built-ins; register custom protocols there before constructing batches.
/// Lookups (`create`, `contains`, `names`) are const and safe to call from
/// runner worker threads; `add` is not thread-safe and belongs in startup
/// code.
class ProtocolRegistry {
 public:
  using Factory =
      std::function<std::shared_ptr<const Protocol>(const ProtocolParams&)>;

  /// The process-wide registry with the built-ins pre-registered.
  static ProtocolRegistry& global();

  /// Registers a factory under `name`. Throws std::invalid_argument when the
  /// name is empty or already taken.
  void add(std::string name, Factory factory);

  bool contains(const std::string& name) const;
  std::vector<std::string> names() const;  // sorted

  /// Instantiates the protocol a spec refers to. Throws
  /// std::invalid_argument for an unknown name and std::invalid_argument
  /// when spec.params holds the wrong alternative for the protocol.
  std::shared_ptr<const Protocol> create(const ProtocolSpec& spec) const;

 private:
  std::map<std::string, Factory> factories_;
};

/// Registers the built-in protocols into `registry` (called automatically
/// for `ProtocolRegistry::global()`; exposed for custom registries).
void register_builtin_protocols(ProtocolRegistry& registry);

}  // namespace econcast::protocol

#endif  // ECONCAST_PROTOCOL_PROTOCOL_H
