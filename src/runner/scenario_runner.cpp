#include "runner/scenario_runner.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "util/random.h"

namespace econcast::runner {

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t index) noexcept {
  // Two splitmix64 steps over a base/index mix: adjacent indices land in
  // unrelated regions of the 2^64 stream space, and index 0 is not the
  // identity on base_seed.
  std::uint64_t state = base_seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  util::splitmix64_next(state);
  return util::splitmix64_next(state);
}

ScenarioRunner::ScenarioRunner(RunnerOptions options)
    : options_(std::move(options)) {}

Scenario econcast_scenario(std::string name, model::NodeSet nodes,
                           model::Topology topology, proto::SimConfig config) {
  return Scenario{std::move(name), std::move(nodes), std::move(topology),
                  protocol::econcast_spec(std::move(config))};
}

namespace {

std::invalid_argument scenario_error(const Scenario& s, std::size_t index,
                                     const std::string& what) {
  return std::invalid_argument("scenario '" + s.name + "' (index " +
                               std::to_string(index) + "): " + what);
}

std::shared_ptr<const protocol::Protocol> resolve(const Scenario& s,
                                                  std::size_t index) {
  try {
    return protocol::ProtocolRegistry::global().create(s.protocol);
  } catch (const std::exception& e) {
    throw scenario_error(s, index, e.what());
  }
}

}  // namespace

ScenarioRun run_scenario(const Scenario& scenario, std::uint64_t seed,
                         std::size_t index) {
  const std::shared_ptr<const protocol::Protocol> protocol =
      resolve(scenario, index);
  ScenarioRun run;
  // NOLINT-DETERMINISM(wall-clock): telemetry only — the measured wall
  // clock feeds cache metadata and progress output, never results.
  const auto started = std::chrono::steady_clock::now();
  try {
    run.result =
        protocol->make_sim(scenario.nodes, scenario.topology, seed)->run();
  } catch (const std::invalid_argument& e) {
    // Protocol network-requirement failures (e.g. Panda on a non-clique)
    // surface only at make_sim time.
    throw scenario_error(scenario, index, e.what());
  }
  // NOLINT-DETERMINISM(wall-clock): telemetry only, as above.
  const auto finished = std::chrono::steady_clock::now();
  run.wall_ms =
      std::chrono::duration<double, std::milli>(finished - started).count();
  return run;
}

BatchResult ScenarioRunner::run(const std::vector<Scenario>& batch) const {
  std::vector<std::uint64_t> seeds(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    seeds[i] = options_.reseed ? derive_seed(options_.base_seed, i)
                               : protocol::effective_seed(batch[i].protocol);
  return run_with_seeds(batch, seeds);
}

BatchResult ScenarioRunner::run_with_seeds(
    const std::vector<Scenario>& batch,
    const std::vector<std::uint64_t>& seeds) const {
  if (seeds.size() != batch.size())
    throw std::invalid_argument(
        "run_with_seeds: " + std::to_string(seeds.size()) + " seeds for a " +
        std::to_string(batch.size()) + "-scenario batch");

  // Validate the whole batch up front so a misconfigured scenario fails with
  // a deterministic, index-attributed error before any work is spawned:
  // topology/node-count mismatches, and protocol resolution (unknown name or
  // wrong parameter type).
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Scenario& s = batch[i];
    if (s.nodes.size() != s.topology.size())
      throw scenario_error(s, i,
                           std::to_string(s.nodes.size()) +
                               " nodes but topology of size " +
                               std::to_string(s.topology.size()));
    resolve(s, i);
  }

  BatchResult out;
  out.results.resize(batch.size());
  std::vector<double> wall_ms(batch.size(), 0.0);
  const auto task = [&](std::size_t i) {
    ScenarioRun run = run_scenario(batch[i], seeds[i], i);
    out.results[i] = std::move(run.result);
    wall_ms[i] = run.wall_ms;
  };

  exec::Executor::ProgressFn progress;
  if (options_.on_scenario_done) {
    progress = [&](const exec::TaskProgress& p) {
      options_.on_scenario_done(ScenarioProgress{p.index, p.done, p.total,
                                                 &batch[p.index],
                                                 &out.results[p.index],
                                                 wall_ms[p.index]});
    };
  }

  exec::Executor& executor =
      options_.executor ? *options_.executor : exec::Executor::shared();
  executor.parallel_for(batch.size(), task,
                        exec::resolve_threads(options_.num_threads), progress);
  out.summary = summarize(out.results);
  return out;
}

BatchSummary summarize(const std::vector<protocol::SimResult>& results) {
  BatchSummary summary;
  for (const protocol::SimResult& r : results) {
    summary.groupput.add(r.groupput);
    summary.anyput.add(r.anyput);
    // A run that completed no bursts has no burst-length sample — adding its
    // 0.0 placeholder mean would bias the batch toward 0 exactly when bursts
    // are too long to finish.
    if (r.burst_lengths.count() > 0) {
      summary.burst_length.add(r.burst_lengths.mean());
    }
    util::RunningStats power;
    for (const double p : r.avg_power) power.add(p);
    summary.node_power.add(power.mean());
    summary.packets_received.add(static_cast<double>(r.packets_received));
  }
  return summary;
}

}  // namespace econcast::runner
