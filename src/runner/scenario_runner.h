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
// Execution is a thin client of the persistent work-stealing
// exec::Executor: batches are submitted to exec::Executor::shared() (or an
// executor of the caller's choosing) instead of spinning up and joining a
// fresh thread pool per batch, so back-to-back sweeps reuse one warm pool.
//
// Determinism contract: each scenario i runs with
//   seed = derive_seed(base_seed, seed_offset + i)
// (unless reseeding is disabled, in which case the scenario's own seed —
// protocol::effective_seed(scenario.protocol) — is used), every worker
// writes only to its own result slot,
// and aggregation happens in index order after the batch drains. The
// aggregate output is therefore bit-identical for any thread count,
// including 1 — covered by tests/test_runner.cpp. The seed_offset overload
// lets a checkpointed sweep (runner::SweepSession) run any suffix of a batch
// with exactly the seeds the full batch would have used.
//
// Worker-side hooks (RunnerOptions) run on the thread that computes a
// scenario: before_scenario right before it, and may skip it (a distributed
// sweep claims the cell there); on_scenario_computed right after it.
// on_scenario_done is the serialized completion hook.
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
                          // (0 in on_scenario_computed: not yet counted)
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
  /// std::thread::hardware_concurrency(). The executor may have fewer
  /// workers, in which case its pool size is the effective cap.
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

  /// Opt-in per-scenario completion hook (progress lines, checkpoint
  /// streaming). See ScenarioProgress for the invocation contract. For a
  /// scenario skipped by before_scenario, `result` is null.
  std::function<void(const ScenarioProgress&)> on_scenario_done;

  /// Opt-in worker-side predicate: runs on the worker thread right before
  /// scenario `index` is computed (calls are not serialized). Returning
  /// false skips the scenario: no simulation runs, on_scenario_computed is
  /// not called, on_scenario_done reports `result == nullptr`, and its
  /// result slot stays default-constructed and out of the summary. This is
  /// where a distributed sweep claims the cell it is about to compute. An
  /// exception thrown here fails the scenario like one thrown by its
  /// simulation.
  std::function<bool(std::size_t index)> before_scenario;

  /// Opt-in per-scenario worker-side hook: runs on the thread that computed
  /// scenario `index`, right after its result is written and before that
  /// scenario's on_scenario_done. Calls are *not* serialized — concurrent
  /// invocations for different scenarios overlap — so the body must confine
  /// its writes to per-index state or synchronize itself. This is where
  /// per-cell work that needs no ordering (cache publish, result encoding)
  /// belongs, off the serialized hook. `done` is 0. An exception thrown
  /// here fails the scenario like one thrown by its simulation.
  std::function<void(const ScenarioProgress&)> on_scenario_computed;
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

  /// Same, but scenario i derives its seed from global index
  /// (seed_offset + i) — the primitive behind resumable sweeps: running
  /// cells [k, n) of an expanded sweep with seed_offset = k reproduces
  /// exactly the seeds of positions [k, n) of the full batch.
  BatchResult run(const std::vector<Scenario>& batch,
                  std::uint64_t seed_offset) const;

  /// Fully explicit form: scenario i runs with seeds[i] (RunnerOptions
  /// seeding is bypassed — the caller owns seed derivation), and tasks are
  /// *submitted* in the order submit_order[0], submit_order[1], ... —
  /// a permutation of [0, batch size), or empty for submission in index
  /// order. Results, summaries and every ScenarioProgress field stay keyed
  /// by the original batch index, so the submission order can never change
  /// any output — it only changes makespan (see cost_model.h, which
  /// builds LPT permutations for it). Throws std::invalid_argument when
  /// seeds/submit_order have the wrong size or submit_order is not a
  /// permutation.
  BatchResult run_with_seeds(const std::vector<Scenario>& batch,
                             const std::vector<std::uint64_t>& seeds,
                             const std::vector<std::size_t>& submit_order =
                                 {}) const;

  /// Low-level parallel for: invokes fn(i) for every i in [0, n) across the
  /// executor. fn must confine its writes to per-index state. The first
  /// exception thrown by any invocation is rethrown after the batch drains;
  /// remaining indices are abandoned. Exposed for sweeps whose unit of work
  /// is not a protocol Sim (e.g. the Fig. 2 oracle-ratio cells).
  void for_each(std::size_t n,
                const std::function<void(std::size_t)>& fn) const;

  /// How many participants a batch of n scenarios is spread over: the
  /// executor's exec::Executor::participants under this runner's thread
  /// cap. SweepSession deals its LPT submission order across this many
  /// chunks (cost_model.h).
  std::size_t participants(std::size_t n) const;

 private:
  exec::Executor& executor() const;
  std::size_t effective_threads() const noexcept;

  RunnerOptions options_;
};

/// Aggregates results in index order (deterministic regardless of the thread
/// count that produced them). Exposed for callers that post-process results
/// before summarizing.
BatchSummary summarize(const std::vector<protocol::SimResult>& results);

}  // namespace econcast::runner

#endif  // ECONCAST_RUNNER_SCENARIO_RUNNER_H
