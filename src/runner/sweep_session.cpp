#include "runner/sweep_session.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <utility>

#include "protocol/protocol_json.h"
#include "runner/cost_model.h"

namespace econcast::runner {

namespace {
using util::json::Object;
using util::json::Value;
}  // namespace

std::uint64_t manifest_cell_seed(const SweepManifest& manifest,
                                 const Scenario& cell,
                                 std::size_t global_index) noexcept {
  return manifest.reseed ? derive_seed(manifest.base_seed, global_index)
                         : protocol::effective_seed(cell.protocol);
}

SweepSession::SweepSession(SweepManifest manifest, std::string results_path,
                           Options options)
    : manifest_(std::move(manifest)),
      results_path_(std::move(results_path)),
      options_(std::move(options)),
      batch_(manifest_.spec.expand()) {
  completed_.reserve(cell_count());
  load_existing();
}

SweepSession::SweepSession(SweepManifest manifest, std::string results_path)
    : SweepSession(std::move(manifest), std::move(results_path), Options{}) {}

SweepSession SweepSession::open(const std::string& manifest_path,
                                Options options) {
  return SweepSession(load_manifest(manifest_path),
                      default_results_path(manifest_path),
                      std::move(options));
}

SweepSession SweepSession::open(const std::string& manifest_path) {
  return open(manifest_path, Options{});
}

std::string SweepSession::default_results_path(
    const std::string& manifest_path) {
  static constexpr std::string_view kJson = ".json";
  std::string base = manifest_path;
  if (base.size() > kJson.size() &&
      base.compare(base.size() - kJson.size(), kJson.size(), kJson) == 0)
    base.resize(base.size() - kJson.size());
  return base + ".results.jsonl";
}

std::uint64_t SweepSession::cell_seed(std::size_t global_index) const noexcept {
  return manifest_cell_seed(manifest_, batch_[global_index], global_index);
}

std::string SweepSession::record_line(std::size_t global_index,
                                      const protocol::SimResult& result) const {
  Object record;
  record.set("index", static_cast<double>(global_index))
      .set("name", batch_[global_index].name)
      .set("seed", util::json::u64_to_string(cell_seed(global_index)))
      .set("result", protocol::to_json(result));
  return util::json::dump(Value(std::move(record))) + "\n";
}

void SweepSession::load_existing() {
  std::ifstream in(results_path_, std::ios::binary);
  if (!in) return;  // no checkpoint yet

  std::string line;
  std::uintmax_t good_bytes = 0;
  while (std::getline(in, line)) {
    if (in.eof()) break;  // no trailing '\n': a kill mid-write — truncate it
    const std::size_t index = completed_.size();
    if (index >= cell_count())
      throw std::runtime_error(
          "results file '" + results_path_ + "' has more cells than the " +
          std::to_string(cell_count()) + "-cell sweep '" +
          manifest_.spec.name() + "'");
    const Value record = util::json::parse(line);
    const Object& o = record.as_object();
    const auto recorded_index =
        static_cast<std::size_t>(o.at("index").as_number());
    const std::string& recorded_name = o.at("name").as_string();
    const std::uint64_t recorded_seed =
        util::json::u64_from_string(o.at("seed").as_string());
    if (recorded_index != index || recorded_name != batch_[index].name ||
        recorded_seed != cell_seed(index))
      throw std::runtime_error(
          "results file '" + results_path_ + "' line " +
          std::to_string(completed_.size() + 1) +
          " does not match sweep '" + manifest_.spec.name() + "' cell " +
          std::to_string(index) + " ('" + batch_[index].name +
          "'): the file belongs to a different manifest");
    completed_.push_back(protocol::sim_result_from_json(o.at("result")));
    good_bytes += line.size() + 1;
  }
  in.close();

  // Drop whatever follows the last complete line (a partially written
  // record); the owning cell reruns on resume.
  std::error_code ec;
  const std::uintmax_t file_size =
      std::filesystem::file_size(results_path_, ec);
  if (!ec && file_size > good_bytes)
    std::filesystem::resize_file(results_path_, good_bytes);
}

std::size_t SweepSession::run(std::size_t limit) {
  // `offset` is the index of the first cell still to run; `local` indices
  // below are relative to it.
  const std::size_t offset = completed_.size();
  std::size_t todo = cell_count() - offset;
  if (limit > 0 && limit < todo) todo = limit;
  deferred_ = 0;
  if (todo == 0) return 0;

  std::ofstream out(results_path_, std::ios::binary | std::ios::app);
  if (!out)
    throw std::runtime_error("cannot append to results file '" +
                             results_path_ + "'");

  exec::Executor& executor =
      options_.executor ? *options_.executor : exec::Executor::shared();
  const std::size_t threads = exec::resolve_threads(options_.num_threads);
  CellCache* const cache = options_.cache.get();

  // `results[local]` holds the cell's result once it is final: a hit's from
  // the cache probe pass (in parallel, each probe writing only its own
  // slot), a miss's from the worker that computed it. Only the misses run.
  std::vector<std::optional<protocol::SimResult>> results(todo);
  if (cache)
    executor.parallel_for(
        todo,
        [&](std::size_t local) {
          const std::size_t g = offset + local;
          CellCache::Probe probe = cache->probe(batch_[g], cell_seed(g));
          if (probe.hit) results[local] = std::move(probe.result);
        },
        threads);

  // Completion-order reorder buffer: `ready` marks cells whose result is
  // final and is only touched on the submitting thread or under the
  // executor's serialized progress hook. flush_ready encodes and appends
  // the ready prefix so the file never has gaps, then reports
  // session-global progress. Lines are encoded only as they are written:
  // a cell completed far ahead of the flush frontier holds its result, not
  // an encoded copy too. The file bytes depend only on cell indices — never
  // on where a result came from (cache or execution) or what order the
  // executor finished in.
  std::vector<char> ready(todo, 0);
  std::vector<std::size_t> misses;  // local indices
  for (std::size_t local = 0; local < todo; ++local) {
    if (results[local])
      ready[local] = 1;
    else
      misses.push_back(local);
  }
  std::size_t next_flush = 0;
  const auto flush_ready = [&] {
    while (next_flush < todo && ready[next_flush]) {
      const std::size_t local = next_flush;
      out << record_line(offset + local, *results[local]);
      completed_.push_back(std::move(*results[local]));
      if (!out.flush())
        throw std::runtime_error("write to results file '" + results_path_ +
                                 "' failed");
      ++next_flush;
      if (options_.on_cell_done) {
        ScenarioProgress global;
        global.index = completed_.size() - 1;
        global.done = completed_.size();
        global.total = cell_count();
        global.scenario = &batch_[global.index];
        global.result = &completed_.back();
        options_.on_cell_done(global);
      }
    }
  };

  // Checkpoint the cached prefix before any execution: if a later miss
  // throws, every hit already flushed stays on disk.
  flush_ready();
  if (misses.empty()) return completed_.size() - offset;

  // Submission k runs miss order[k]: longest expected first, and
  // parallel_for starts tasks in submission order (cost_model.h).
  std::vector<double> units;
  units.reserve(misses.size());
  for (const std::size_t local : misses)
    units.push_back(estimate_units(batch_[offset + local]));
  const std::vector<std::size_t> order = cost_submit_order(units);

  // Each task claims, computes, publishes and releases its own cell,
  // writing only that cell's slots; the serialized hook marks it ready and
  // appends. A cell another worker holds (or has published since the probe)
  // is deferred: it stays not-ready, so the flush stops in front of it.
  std::vector<char> claimed(misses.size(), 0);
  std::vector<char> deferred(misses.size(), 0);
  const auto task = [&](std::size_t k) {
    const std::size_t i = order[k];
    const std::size_t g = offset + misses[i];
    const Scenario& cell = batch_[g];
    const std::uint64_t seed = cell_seed(g);
    if (cache) {
      try {
        claimed[i] = cache->try_claim(cell, seed);
        deferred[i] = !claimed[i];
      } catch (const std::exception&) {
        // An unwritable cache, or one on a filesystem without hard links,
        // cannot coordinate: compute unclaimed.
      }
      if (deferred[i]) return;
    }
    ScenarioRun run = run_scenario(cell, seed, g);
    if (cache) {
      try {
        cache->publish(cell, seed, run.result, run.wall_ms);
      } catch (const std::exception&) {
        // The cache is an optimization: a read-only or full cache
        // directory degrades to recomputing, it never fails the sweep.
      }
      if (claimed[i]) {
        cache->release(cell, seed);
        claimed[i] = 0;
      }
    }
    results[misses[i]] = std::move(run.result);
  };
  const auto progress = [&](const exec::TaskProgress& p) {
    const std::size_t i = order[p.index];
    if (deferred[i]) return;
    ready[misses[i]] = 1;
    flush_ready();
  };
  try {
    executor.parallel_for(order.size(), task, threads, progress);
  } catch (...) {
    for (std::size_t i = 0; i < misses.size(); ++i)
      if (claimed[i]) {
        const std::size_t g = offset + misses[i];
        cache->release(batch_[g], cell_seed(g));
      }
    throw;
  }
  deferred_ = static_cast<std::size_t>(
      std::count(deferred.begin(), deferred.end(), 1));
  return completed_.size() - offset;
}

BatchResult SweepSession::results() const {
  if (!complete())
    throw std::logic_error("sweep '" + manifest_.spec.name() + "' has " +
                           std::to_string(completed_.size()) + "/" +
                           std::to_string(cell_count()) +
                           " cells completed; run() it to completion first");
  BatchResult out;
  out.results = completed_;
  out.summary = summarize(out.results);
  return out;
}

}  // namespace econcast::runner
