// Parallel batch execution of simulation scenarios.
//
// The paper's evaluation (and the related throughput-optimal-broadcast
// literature) is built on sweeps: hundreds of sampled networks per
// heterogeneity point, several (N, σ, mode) cells per figure, and every
// figure overlays several protocols under identical settings. ScenarioRunner
// makes that batch workload first-class: it executes a vector of
// (NodeSet, Topology, ProtocolSpec) scenarios — the protocols are resolved
// through protocol::ProtocolRegistry, so one batch can mix EconCast, Panda,
// Birthday, analytic bounds and custom protocols — and aggregates the
// per-scenario SimResults into summary statistics.
//
// Execution is a thin client of the persistent exec::Executor: batches are
// submitted to exec::Executor::shared() (or an executor of the caller's
// choosing) instead of spinning up and joining a fresh thread pool per
// batch, so back-to-back sweeps reuse one warm pool.
//
// Determinism contract: each scenario i runs with
//   seed = derive_seed(base_seed, i)
// (unless reseeding is disabled, in which case the scenario's own seed —
// protocol::effective_seed(scenario.protocol) — is used), every worker
// writes only to its own result slot,
// and aggregation happens in index order after the batch drains. The
// aggregate output is therefore bit-identical for any thread count,
// including 1 — covered by tests/test_runner.cpp.
//
// The per-scenario body — resolve the protocol, make_sim, run, attribute a
// failure to the scenario — is run_scenario, which runner::SweepSession
// calls from its own executor tasks.
#ifndef ECONCAST_RUNNER_SCENARIO_RUNNER_H
#define ECONCAST_RUNNER_SCENARIO_RUNNER_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "econcast/simulation.h"
#include "exec/executor.h"
#include "model/network.h"
#include "model/node_params.h"
#include "protocol/protocol.h"
#include "util/stats.h"

namespace econcast::runner {

/// Derives the seed for scenario `index` from a batch-level base seed via
/// splitmix64, so scenarios get decorrelated streams and the mapping depends
/// only on (base_seed, index) — never on which thread picks the scenario up.
std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t index) noexcept;

/// One unit of work: a network and the protocol to run on it. There is no
/// default topology — a Scenario cannot be constructed without one, and
/// ScenarioRunner::run rejects a topology whose size differs from the node
/// count (the old clique(1) placeholder default made both mistakes silent).
struct Scenario {
  /// Free-form label for the caller's own reporting; the runner ignores it.
  std::string name;
  model::NodeSet nodes;
  model::Topology topology;
  protocol::ProtocolSpec protocol;
};

/// Convenience constructor for the most common scenario: the EconCast
/// discrete-event simulation with an explicit config.
Scenario econcast_scenario(std::string name, model::NodeSet nodes,
                           model::Topology topology, proto::SimConfig config);

/// Completion notice for one scenario of a running batch. Hooks are invoked
/// in completion order (not index order), serialized under a mutex — `done`
/// advances by exactly one per call and the hook body needs no locking of
/// its own. `scenario` and `result` point into the submitted batch / the
/// result vector under construction; `result` is fully written and any slot
/// whose hook already fired is safe to read.
struct ScenarioProgress {
  std::size_t index = 0;  // position in the submitted batch
  std::size_t done = 0;   // scenarios completed so far, including this one
  std::size_t total = 0;
  const Scenario* scenario = nullptr;
  const protocol::SimResult* result = nullptr;
  /// Observed wall clock of this scenario's run, milliseconds. Telemetry
  /// only (progress display, cache metadata) — it never feeds result bytes,
  /// which stay a pure function of the spec and seed.
  double wall_ms = 0.0;
};

struct RunnerOptions {
  RunnerOptions() = default;
  /// Positional form used all over the benches/tests; executor and hook are
  /// set by assignment when needed.
  RunnerOptions(std::size_t threads, std::uint64_t seed,
                bool reseed_cells = true)
      : num_threads(threads), base_seed(seed), reseed(reseed_cells) {}

  /// Cap on worker threads for this runner's batches; 0 means
  /// std::thread::hardware_concurrency() (exec::resolve_threads). The
  /// executor may have fewer workers, in which case its pool size is the
  /// effective cap.
  std::size_t num_threads = 0;

  /// Batch-level seed from which per-scenario seeds are derived.
  std::uint64_t base_seed = 1;

  /// When false, each scenario runs with its own seed untouched — see
  /// protocol::effective_seed (EconCast uses config.seed, others the
  /// spec-level seed). Useful to reproduce a previously-logged run.
  bool reseed = true;

  /// Executor the batches are submitted to; null means
  /// exec::Executor::shared().
  std::shared_ptr<exec::Executor> executor;

  /// Opt-in per-scenario completion hook (progress lines, cache publish).
  /// See ScenarioProgress for the invocation contract.
  std::function<void(const ScenarioProgress&)> on_scenario_done;
};

/// Index-ordered summary statistics over a batch (one sample per scenario).
struct BatchSummary {
  util::RunningStats groupput;
  util::RunningStats anyput;
  util::RunningStats burst_length;   // per-scenario mean burst length
  util::RunningStats node_power;     // per-scenario mean of avg_power
  util::RunningStats packets_received;
};

struct BatchResult {
  /// Index-aligned with the submitted batch.
  std::vector<protocol::SimResult> results;
  BatchSummary summary;
};

class ScenarioRunner {
 public:
  explicit ScenarioRunner(RunnerOptions options = {});

  /// Runs every scenario of the batch (possibly in parallel) and aggregates.
  /// Throws std::invalid_argument before starting any work when a scenario's
  /// topology size does not match its node count or its protocol name is not
  /// registered. The first exception thrown by any scenario is rethrown here
  /// after all workers have stopped.
  BatchResult run(const std::vector<Scenario>& batch) const;

  /// Same, but scenario i runs with seeds[i] (RunnerOptions seeding is
  /// bypassed — the caller owns seed derivation). Throws
  /// std::invalid_argument when seeds has the wrong size.
  BatchResult run_with_seeds(const std::vector<Scenario>& batch,
                             const std::vector<std::uint64_t>& seeds) const;

 private:
  RunnerOptions options_;
};

/// One scenario's result and the wall clock its simulation took.
struct ScenarioRun {
  protocol::SimResult result;
  double wall_ms = 0.0;  // telemetry only, as ScenarioProgress::wall_ms
};

/// Runs one scenario with `seed` on the calling thread: resolves its
/// protocol through protocol::ProtocolRegistry::global(), builds the Sim and
/// runs it. Resolution failures and std::invalid_argument from make_sim or
/// the run (e.g. Panda on a non-clique) are rethrown as
/// std::invalid_argument naming the scenario and `index`, so a bad cell in
/// a large expanded sweep is locatable.
ScenarioRun run_scenario(const Scenario& scenario, std::uint64_t seed,
                         std::size_t index);

/// Aggregates results in index order (deterministic regardless of the thread
/// count that produced them). Exposed for callers that post-process results
/// before summarizing.
BatchSummary summarize(const std::vector<protocol::SimResult>& results);

}  // namespace econcast::runner

#endif  // ECONCAST_RUNNER_SCENARIO_RUNNER_H
