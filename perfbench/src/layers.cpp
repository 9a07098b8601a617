#include "layers.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "protocol/protocol.h"
#include "protocol/protocol_json.h"
#include "runner/scenario_runner.h"
#include "sim/event_queue.h"
#include "util/json.h"
#include "util/random.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace json = econcast::util::json;
namespace protocol = econcast::protocol;
namespace runner = econcast::runner;

Setup set_up(const std::string& workload, std::uint64_t seed, Scale scale,
             const std::string& dir,
             const std::shared_ptr<econcast::exec::Executor>& executor,
             std::size_t threads) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  Setup setup{make_manifest(workload, seed, scale), nullptr, nullptr};
  runner::SweepSession::Options options;
  options.num_threads = threads;
  options.executor = executor;
  if (uses_cache(workload)) {
    setup.cache = std::make_shared<runner::CellCache>(dir + "/cache");
    options.cache = setup.cache;
  }
  setup.session = std::make_unique<runner::SweepSession>(
      setup.manifest, dir + "/results.jsonl", options);
  if (!setup.cache) return setup;

  // Pre-warm exactly as an earlier sweep would have: compute the chosen
  // cells on the executor and publish each with its observed wall clock.
  const std::vector<runner::Scenario>& all = setup.session->cells();
  std::vector<runner::Scenario> cells;
  std::vector<std::uint64_t> seeds;
  for (const std::size_t i : warm_half(all.size(), seed)) {
    cells.push_back(all[i]);
    seeds.push_back(runner::derive_seed(setup.manifest.base_seed, i));
  }
  runner::RunnerOptions warm;
  warm.num_threads = threads;
  warm.executor = executor;
  runner::CellCache& cache = *setup.cache;
  warm.on_scenario_done = [&](const runner::ScenarioProgress& p) {
    cache.publish(cells[p.index], seeds[p.index], *p.result, p.wall_ms);
  };
  runner::ScenarioRunner(warm).run_with_seeds(cells, seeds);
  return setup;
}

namespace {

const char* run_span_name(const std::string& protocol_name) {
  if (protocol_name == "econcast") return "sim.run";
  if (protocol_name == "econcast-p4") return "gibbs.p4_solve";
  if (protocol_name == "oracle") return "lp.oracle_solve";
  return "protocol.run";
}

}  // namespace

TracedPass traced_pass(Setup& setup, econcast::exec::Executor& executor,
                       std::size_t threads, Tracer& tracer,
                       const std::string& results_path) {
  const std::vector<runner::Scenario>& cells = setup.session->cells();
  const std::size_t n = cells.size();
  const std::uint64_t base_seed = setup.manifest.base_seed;
  const std::size_t first_span = tracer.spans().size();
  TracedPass pass;
  pass.cell_results.resize(n);
  std::ofstream out(results_path, std::ios::binary | std::ios::trunc);
  // The session serializes its completion hook (publish + append); here
  // each call gets its own lock, taken outside the call's span, so a span
  // times its layer rather than the wait for another layer's call.
  std::mutex out_mu;
  std::mutex cache_mu;

  const std::int64_t start = now_ns();
  std::vector<std::size_t> misses;
  if (setup.cache) {
    runner::CellCache& cache = *setup.cache;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t seed = runner::derive_seed(base_seed, i);
      CellTrace trace(i);
      {
        const CellTrace::Scope probe_phase(trace, "runner.probe");
        {
          const CellTrace::Scope key(trace, "cache.key");
          (void)cache.entry_path(cache.cell_key(cells[i], seed));
        }
        std::optional<runner::CellCache::Probe> probe;
        {
          CellTrace::Scope span(trace, "cache.probe");
          probe = cache.probe(cells[i], seed);
          span.set(probe->hit ? "hit" : "miss");
        }
        if (probe->hit) {
          const CellTrace::Scope encode(trace, "json.encode");
          pass.cell_results[i] = json::dump(protocol::to_json(probe->result));
          out << pass.cell_results[i] << '\n';
        } else {
          misses.push_back(i);
        }
      }
      tracer.add(trace);
    }
  } else {
    misses.resize(n);
    for (std::size_t i = 0; i < n; ++i) misses[i] = i;
  }

  const std::int64_t batch_start = now_ns();
  const protocol::ProtocolRegistry& registry =
      protocol::ProtocolRegistry::global();
  executor.parallel_for(
      misses.size(),
      [&](std::size_t k) {
        const std::size_t i = misses[k];
        const runner::Scenario& cell = cells[i];
        const std::uint64_t seed = runner::derive_seed(base_seed, i);
        CellTrace trace(i);
        {
          const CellTrace::Scope cell_span(trace, "runner.cell");
          const std::int64_t compute_start = now_ns();
          std::unique_ptr<protocol::Sim> sim;
          {
            CellTrace::Scope span(trace, "protocol.make_sim");
            span.set(cell.protocol.name == "econcast" ? "des" : "analytic");
            sim = registry.create(cell.protocol)
                      ->make_sim(cell.nodes, cell.topology, seed);
          }
          protocol::SimResult result;
          {
            CellTrace::Scope span(trace, run_span_name(cell.protocol.name));
            result = sim->run();
            span.set(cell.topology.is_clique() ? "clique" : "grid",
                     result.extra("events_processed"));
          }
          const double wall_ms =
              static_cast<double>(now_ns() - compute_start) / 1e6;
          {
            const CellTrace::Scope span(trace, "json.encode");
            pass.cell_results[i] = json::dump(protocol::to_json(result));
            const std::lock_guard<std::mutex> lock(out_mu);
            out << pass.cell_results[i] << '\n';
          }
          if (setup.cache) {
            const std::lock_guard<std::mutex> lock(cache_mu);
            const CellTrace::Scope span(trace, "cache.publish");
            setup.cache->publish(cell, seed, result, wall_ms);
          }
        }
        tracer.add(trace);
      },
      threads);
  const std::int64_t end = now_ns();
  if (!out.flush())
    throw std::runtime_error("cannot write '" + results_path + "'");

  pass.wall_s = static_cast<double>(end - start) / 1e9;
  pass.metrics = span_metrics(tracer.spans(), first_span, tracer.spans().size());
  double busy_ns = 0.0;
  for (std::size_t s = first_span; s < tracer.spans().size(); ++s)
    if (std::string(tracer.spans()[s].name) == "runner.cell")
      busy_ns += tracer.spans()[s].duration_ns();
  const double batch_ns = static_cast<double>(end - batch_start);
  if (!misses.empty() && batch_ns > 0.0)
    pass.metrics["exec.busy_frac"] =
        busy_ns / (static_cast<double>(threads) * batch_ns);
  if (setup.cache)
    pass.metrics["cache.entry_bytes"] = mean_entry_bytes(setup.cache->dir());
  return pass;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      std::min(values.size(), static_cast<std::size_t>(std::max(rank, 1.0)));
  return values[index - 1];
}

Metrics span_metrics(const std::vector<Span>& spans, std::size_t begin,
                     std::size_t end) {
  std::map<std::string, std::vector<double>> durations;  // by name[/tag]
  std::map<std::string, double> events_by_topology, run_ns_by_topology;
  std::map<std::string, double> self_ns;  // by layer
  std::vector<double> child_ns(end - begin, 0.0);
  double hits = 0.0, probes = 0.0, events = 0.0, encodes = 0.0,
         encode_ns = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    const Span& s = spans[i];
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent) - begin] += s.duration_ns();
  }
  for (std::size_t i = begin; i < end; ++i) {
    const Span& s = spans[i];
    const std::string name(s.name);
    const std::string tag(s.tag);
    const double ns = s.duration_ns();
    self_ns[s.layer()] += ns - child_ns[i - begin];
    durations[name].push_back(ns);
    if (!tag.empty()) durations[name + "/" + tag].push_back(ns);
    if (name == "sim.run") {
      events += s.count;
      events_by_topology[tag] += s.count;
      run_ns_by_topology[tag] += ns;
    } else if (name == "cache.probe") {
      probes += 1.0;
      if (tag == "hit") hits += 1.0;
    } else if (name == "json.encode") {
      encodes += 1.0;
      encode_ns += ns;
    }
  }

  Metrics m;
  const auto put_median = [&](const char* metric, const std::string& key,
                              double scale) {
    const auto it = durations.find(key);
    if (it != durations.end()) m[metric] = median(it->second) / scale;
  };
  if (const auto it = durations.find("runner.cell"); it != durations.end()) {
    m["runner.cell_ms_p50"] = median(it->second) / 1e6;
    m["runner.cell_ms_p99"] = percentile(it->second, 99.0) / 1e6;
  }
  for (const char* topology : {"grid", "clique"}) {
    const double e = events_by_topology[topology];
    if (e > 0.0)
      m[std::string("sim.ns_per_event.") + topology] =
          run_ns_by_topology[topology] / e;
  }
  if (events > 0.0) m["sim.events"] = events;
  put_median("sim.run_ms_p50", "sim.run", 1e6);
  put_median("protocol.make_sim_ms_p50", "protocol.make_sim/des", 1e6);
  put_median("p4.solve_us_p50", "gibbs.p4_solve", 1e3);
  put_median("oracle.solve_us_p50", "lp.oracle_solve", 1e3);
  put_median("cache.key_us", "cache.key", 1e3);
  put_median("cache.probe_hit_us", "cache.probe/hit", 1e3);
  put_median("cache.probe_miss_us", "cache.probe/miss", 1e3);
  put_median("cache.publish_us", "cache.publish", 1e3);
  if (probes > 0.0) m["cache.hit_frac"] = hits / probes;
  if (encodes > 0.0) m["json.encode_us_per_cell"] = encode_ns / encodes / 1e3;
  for (const auto& [layer, ns] : self_ns) m["self_ms." + layer] = ns / 1e6;
  return m;
}

double mean_entry_bytes(const std::string& dir) {
  double bytes = 0.0, entries = 0.0;
  if (!fs::exists(dir)) return 0.0;
  for (const fs::directory_entry& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file() || e.path().extension() != ".jsonl") continue;
    std::ifstream in(e.path(), std::ios::binary);
    const std::string text{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    const json::Value entry = json::parse(text);
    const std::string wall = json::dump(entry.at("wall_ms"));
    bytes += static_cast<double>(text.size() - wall.size());
    entries += 1.0;
  }
  return entries > 0.0 ? bytes / entries : 0.0;
}

double queue_ns_per_op(std::size_t nodes, std::uint64_t seed) {
  namespace sim = econcast::sim;
  constexpr std::size_t kPops = 100000;
  constexpr int kReplays = 7;
  std::vector<double> ns_per_op;
  for (int replay = 0; replay < kReplays; ++replay) {
    econcast::util::Rng rng(runner::derive_seed(seed, nodes));
    sim::EventQueue queue;
    std::uint64_t ops = 0;
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < nodes; ++i) {
      queue.schedule(rng.exponential(1.0), sim::EventKind::kTransition,
                     static_cast<sim::NodeId>(i));
      ++ops;
    }
    const auto reschedule = [&](double now, sim::NodeId node) {
      queue.cancel(node, sim::EventKind::kTransition);
      queue.cancel(node, sim::EventKind::kEnergyDepleted);
      queue.schedule(now + rng.exponential(1.0), sim::EventKind::kTransition,
                     node);
      ops += 3;
    };
    for (std::size_t p = 0; p < kPops && !queue.empty(); ++p) {
      const sim::Event e = queue.pop();
      ++ops;
      reschedule(e.time, e.node);
      for (int k = 0; k < 2; ++k)
        reschedule(e.time,
                   static_cast<sim::NodeId>(rng.uniform_int(nodes)));
    }
    ns_per_op.push_back(static_cast<double>(now_ns() - start) /
                        static_cast<double>(ops));
  }
  return median(ns_per_op);
}

double executor_us_per_task(econcast::exec::Executor& executor,
                            std::size_t tasks, std::size_t threads) {
  constexpr int kBatches = 9;
  std::vector<double> us;
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t start = now_ns();
    executor.parallel_for(tasks, [](std::size_t) {}, threads);
    us.push_back(static_cast<double>(now_ns() - start) / 1e3 /
                 static_cast<double>(tasks));
  }
  return median(us);
}

}  // namespace perfbench
