#include "runner/sweep_session.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
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
  // `offset` is the index of the first cell still to run.
  const std::size_t offset = completed_.size();
  std::size_t todo = cell_count() - offset;
  if (limit > 0 && limit < todo) todo = limit;
  deferred_ = 0;
  if (todo == 0) return 0;

  std::ofstream out(results_path_, std::ios::binary | std::ios::app);
  if (!out)
    throw std::runtime_error("cannot append to results file '" +
                             results_path_ + "'");

  RunnerOptions runner_options;
  runner_options.num_threads = options_.num_threads;
  runner_options.executor = options_.executor;

  // Cache probe pass, in parallel on the session's executor (each probe
  // writes only its own slot). Hits park their decoded (and re-validated)
  // results in `cached` — stable storage, the vector never resizes — and
  // skip execution entirely; only the misses in `miss_local` run.
  std::vector<std::optional<protocol::SimResult>> cached(todo);
  std::vector<std::size_t> miss_local;  // local (offset-relative) indices
  if (options_.cache) {
    CellCache& cache = *options_.cache;
    ScenarioRunner(runner_options).for_each(todo, [&](std::size_t local) {
      const std::size_t g = offset + local;
      CellCache::Probe probe = cache.probe(batch_[g], cell_seed(g));
      if (probe.hit) cached[local] = std::move(probe.result);
    });
    for (std::size_t local = 0; local < todo; ++local)
      if (!cached[local]) miss_local.push_back(local);
  } else {
    miss_local.resize(todo);
    std::iota(miss_local.begin(), miss_local.end(), std::size_t{0});
  }

  // Completion-order reorder buffer: `ready` marks cells whose result is
  // final, `lines` holds their encoded records. A computed cell's line is
  // encoded on its worker thread; a hit's is encoded only when it is
  // flushed, and every line is freed once written, so at most the
  // out-of-order window is held encoded. flush_ready (called on the
  // submitting thread, then under the executor's serialized hook) appends
  // the ready prefix so the file never has gaps, then reports
  // session-global progress. The file bytes depend only on cell indices —
  // never on where a result came from (cache or execution) or what order
  // the executor finished in.
  std::vector<const protocol::SimResult*> ready(todo, nullptr);
  std::vector<std::string> lines(todo);
  for (std::size_t local = 0; local < todo; ++local)
    if (cached[local]) ready[local] = &*cached[local];
  std::size_t next_flush = 0;
  const auto flush_ready = [&] {
    while (next_flush < todo && ready[next_flush] != nullptr) {
      const std::size_t local = next_flush;
      std::string& line = lines[local];
      if (line.empty()) line = record_line(offset + local, *ready[local]);
      // A hit's result is owned here and moves; a computed one is copied
      // out of the runner's batch.
      if (cached[local])
        completed_.push_back(std::move(*cached[local]));
      else
        completed_.push_back(*ready[local]);
      out << line;
      std::string().swap(line);
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

  if (!miss_local.empty()) {
    std::vector<Scenario> pending;
    std::vector<std::uint64_t> seeds;
    pending.reserve(miss_local.size());
    seeds.reserve(miss_local.size());
    for (const std::size_t local : miss_local) {
      pending.push_back(batch_[offset + local]);
      seeds.push_back(cell_seed(offset + local));
    }

    // p.index / i is the cell's position in `pending` regardless of the
    // submission permutation (run_with_seeds keys progress by original
    // batch index). The worker-side hooks do everything that needs no
    // ordering — claim, publish, release and encode — on the cell's own
    // thread, writing only that cell's slot; the serialized hook just marks
    // it ready and appends. A cell left to another worker reports a null
    // result and stays not-ready, so the flush stops in front of it.
    std::vector<char> claimed(pending.size(), 0);
    std::vector<char> skipped(pending.size(), 0);
    if (options_.cache) {
      runner_options.before_scenario = [&](std::size_t i) {
        try {
          claimed[i] = options_.cache->try_claim(pending[i], seeds[i]);
          skipped[i] = !claimed[i];
        } catch (const std::exception&) {
          // An unwritable cache, or one on a filesystem without hard
          // links, cannot coordinate: compute unclaimed.
        }
        return !skipped[i];
      };
    }
    runner_options.on_scenario_computed = [&](const ScenarioProgress& p) {
      const std::size_t local = miss_local[p.index];
      if (options_.cache) {
        try {
          options_.cache->publish(pending[p.index], seeds[p.index], *p.result,
                                  p.wall_ms);
        } catch (const std::exception&) {
          // The cache is an optimization: a read-only or full cache
          // directory degrades to recomputing, it never fails the sweep.
        }
        if (claimed[p.index]) {
          options_.cache->release(pending[p.index], seeds[p.index]);
          claimed[p.index] = 0;
        }
      }
      lines[local] = record_line(offset + local, *p.result);
    };
    runner_options.on_scenario_done = [&](const ScenarioProgress& p) {
      ready[miss_local[p.index]] = p.result;
      flush_ready();
    };

    const ScenarioRunner runner(runner_options);
    std::vector<std::size_t> order;  // empty = submission in index order
    if (options_.order == SubmitOrder::kCost && pending.size() > 1) {
      CostModel model;
      if (options_.cache) model.calibrate_from_cache(options_.cache->dir());
      order = cost_submit_order(pending, model, runner.effective_threads());
    }
    try {
      runner.run_with_seeds(pending, seeds, order);
    } catch (...) {
      for (std::size_t i = 0; i < pending.size(); ++i)
        if (claimed[i]) options_.cache->release(pending[i], seeds[i]);
      throw;
    }
    deferred_ = static_cast<std::size_t>(
        std::count(skipped.begin(), skipped.end(), 1));
  }
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
