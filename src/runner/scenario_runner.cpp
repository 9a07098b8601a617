#include "runner/scenario_runner.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
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

std::size_t ScenarioRunner::effective_threads() const noexcept {
  if (options_.num_threads > 0) return options_.num_threads;
  // NOLINT-DETERMINISM(raw-thread): reads the core count; results are
  // bit-identical for any thread count by the executor contract.
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void ScenarioRunner::for_each(std::size_t n,
                              const std::function<void(std::size_t)>& fn) const {
  exec::Executor& executor =
      options_.executor ? *options_.executor : exec::Executor::shared();
  executor.parallel_for(n, fn, effective_threads());
}

Scenario econcast_scenario(std::string name, model::NodeSet nodes,
                           model::Topology topology, proto::SimConfig config) {
  return Scenario{std::move(name), std::move(nodes), std::move(topology),
                  protocol::econcast_spec(std::move(config))};
}

BatchResult ScenarioRunner::run(const std::vector<Scenario>& batch) const {
  return run(batch, 0);
}

BatchResult ScenarioRunner::run(const std::vector<Scenario>& batch,
                                std::uint64_t seed_offset) const {
  std::vector<std::uint64_t> seeds(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    seeds[i] = options_.reseed
                   ? derive_seed(options_.base_seed, seed_offset + i)
                   : protocol::effective_seed(batch[i].protocol);
  return run_with_seeds(batch, seeds);
}

BatchResult ScenarioRunner::run_with_seeds(
    const std::vector<Scenario>& batch,
    const std::vector<std::uint64_t>& seeds,
    const std::vector<std::size_t>& submit_order) const {
  if (seeds.size() != batch.size())
    throw std::invalid_argument(
        "run_with_seeds: " + std::to_string(seeds.size()) + " seeds for a " +
        std::to_string(batch.size()) + "-scenario batch");
  if (!submit_order.empty()) {
    if (submit_order.size() != batch.size())
      throw std::invalid_argument(
          "run_with_seeds: submit order of size " +
          std::to_string(submit_order.size()) + " for a " +
          std::to_string(batch.size()) + "-scenario batch");
    std::vector<bool> seen(batch.size(), false);
    for (const std::size_t i : submit_order) {
      if (i >= batch.size() || seen[i])
        throw std::invalid_argument(
            "run_with_seeds: submit order is not a permutation of the batch");
      seen[i] = true;
    }
  }

  // Validate the whole batch up front so a misconfigured scenario fails with
  // a deterministic, index-attributed error before any work is spawned:
  // topology/node-count mismatches, and protocol resolution (unknown name or
  // wrong parameter type). The resolved protocols are reused by the workers.
  const protocol::ProtocolRegistry& registry =
      protocol::ProtocolRegistry::global();
  std::vector<std::shared_ptr<const protocol::Protocol>> protocols(
      batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Scenario& s = batch[i];
    if (s.nodes.size() != s.topology.size())
      throw std::invalid_argument(
          "scenario '" + s.name + "' (index " + std::to_string(i) + "): " +
          std::to_string(s.nodes.size()) + " nodes but topology of size " +
          std::to_string(s.topology.size()));
    try {
      protocols[i] = registry.create(s.protocol);
    } catch (const std::exception& e) {
      throw std::invalid_argument("scenario '" + s.name + "' (index " +
                                  std::to_string(i) + "): " + e.what());
    }
  }

  BatchResult out;
  out.results.resize(batch.size());
  std::vector<double> wall_ms(batch.size(), 0.0);
  std::vector<char> skipped(batch.size(), 0);

  // `k` is the submission index; the scenario it runs is submit_order[k]
  // (or k itself when no permutation was given). Every write below is
  // confined to the *original* index i, so the permutation touches only
  // which worker picks what up when — never any output.
  const auto task = [&](std::size_t k) {
    const std::size_t i = submit_order.empty() ? k : submit_order[k];
    const Scenario& s = batch[i];
    if (options_.before_scenario && !options_.before_scenario(i)) {
      skipped[i] = 1;
      return;
    }
    // NOLINT-DETERMINISM(wall-clock): telemetry only — the measured wall
    // clock feeds cost-model calibration and progress ETAs, never results.
    const auto started = std::chrono::steady_clock::now();
    try {
      out.results[i] = protocols[i]->make_sim(s.nodes, s.topology,
                                              seeds[i])->run();
    } catch (const std::invalid_argument& e) {
      // Protocol network-requirement failures (e.g. Panda on a non-clique)
      // surface only at make_sim time; attribute them to the scenario so a
      // bad cell in a large expanded sweep is locatable.
      throw std::invalid_argument("scenario '" + s.name + "' (index " +
                                  std::to_string(i) + "): " + e.what());
    }
    // NOLINT-DETERMINISM(wall-clock): telemetry only, as above.
    const auto finished = std::chrono::steady_clock::now();
    wall_ms[i] =
        std::chrono::duration<double, std::milli>(finished - started).count();
    if (options_.on_scenario_computed)
      options_.on_scenario_computed(ScenarioProgress{
          i, 0, batch.size(), &s, &out.results[i], wall_ms[i]});
  };

  exec::Executor::ProgressFn progress;
  if (options_.on_scenario_done) {
    progress = [&](const exec::TaskProgress& p) {
      const std::size_t i =
          submit_order.empty() ? p.index : submit_order[p.index];
      options_.on_scenario_done(ScenarioProgress{
          i, p.done, p.total, &batch[i],
          skipped[i] ? nullptr : &out.results[i], wall_ms[i]});
    };
  }

  exec::Executor& executor =
      options_.executor ? *options_.executor : exec::Executor::shared();
  executor.parallel_for(batch.size(), task, effective_threads(), progress);

  if (std::find(skipped.begin(), skipped.end(), 1) == skipped.end()) {
    out.summary = summarize(out.results);
  } else {
    std::vector<protocol::SimResult> computed;
    for (std::size_t i = 0; i < batch.size(); ++i)
      if (!skipped[i]) computed.push_back(out.results[i]);
    out.summary = summarize(computed);
  }
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
