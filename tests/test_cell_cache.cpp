// Tests for the sweep throughput layer: the content-addressed CellCache
// (hit/miss/rejected/publish accounting, tamper and truncation rejection,
// epoch isolation, concurrent publish, gc/scan), the CostModel and its LPT
// submission order, ScenarioRunner::run_with_seeds permutation validation,
// and the end-to-end guarantee the whole layer hangs off: a sweep run with
// the cache off, cold or warm — and in either submission order — produces
// byte-identical results files, with the warm run executing zero cells.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "protocol/protocol.h"
#include "protocol/protocol_json.h"
#include "runner/cell_cache.h"
#include "runner/cost_model.h"
#include "runner/manifest.h"
#include "runner/scenario_runner.h"
#include "runner/sweep_session.h"
#include "scoped_temp_dir.h"

namespace {

using namespace econcast;
using testing_support::ScopedTempDir;
namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spit(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// A small mixed stochastic + analytic sweep: 2 protocols x 2 N x 2 σ x 2
/// replicates = 16 cells, a couple of seconds end to end.
runner::SweepManifest small_manifest() {
  proto::SimConfig cfg;
  cfg.duration = 4e3;
  cfg.warmup = 5e2;
  return runner::SweepManifest(
      runner::SweepSpec("cache-mini")
          .protocols({protocol::econcast_spec(cfg),
                      protocol::p4_spec(model::Mode::kGroupput, 0.5)})
          .node_counts({3, 4})
          .sigmas({0.5, 0.75})
          .replicates(2),
      /*seed=*/7, true);
}

/// All entry files currently in a cache directory, path-sorted so tests can
/// sabotage deterministic victims.
std::vector<fs::path> entry_files(const fs::path& cache_dir) {
  std::vector<fs::path> files;
  for (const auto& e : fs::recursive_directory_iterator(cache_dir))
    if (e.is_regular_file() && e.path().extension() == ".jsonl")
      files.push_back(e.path());
  std::sort(files.begin(), files.end());
  return files;
}

// ------------------------------------------------------------ cache keys --

TEST(CellCache, KeyIgnoresNameAndSeparatesSeeds) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  runner::CellCache cache((dir / "cache").string());
  const auto cells = small_manifest().spec.expand();
  ASSERT_GE(cells.size(), 2u);

  runner::Scenario renamed = cells[0];
  renamed.name = "a-different-sweep/" + renamed.name;
  EXPECT_EQ(cache.entry_path(cache.cell_key(cells[0], 42)),
            cache.entry_path(cache.cell_key(renamed, 42)));
  EXPECT_NE(cache.entry_path(cache.cell_key(cells[0], 42)),
            cache.entry_path(cache.cell_key(cells[0], 43)));
  // Replicates of one spec share a key (only their names and seeds differ);
  // a different spec (other protocol/N/σ) never does.
  EXPECT_EQ(cache.entry_path(cache.cell_key(cells[0], 42)),
            cache.entry_path(cache.cell_key(cells[1], 42)));
  EXPECT_NE(cache.entry_path(cache.cell_key(cells[0], 42)),
            cache.entry_path(cache.cell_key(cells.back(), 42)));
  // <dir>/<2 hex>/<64 hex>.jsonl.
  const std::string path = cache.entry_path(cache.cell_key(cells[0], 42));
  const std::string tail = path.substr((dir / "cache").string().size());
  EXPECT_EQ(tail.size(), 1 + 2 + 1 + 64 + 6);
  EXPECT_EQ(tail.substr(1, 2), tail.substr(4, 2));
}

TEST(CellCache, ForeignEpochIsADisjointNamespace) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const auto cells = small_manifest().spec.expand();
  const protocol::SimResult result;  // content is irrelevant here

  runner::CellCache old_epoch((dir / "cache").string(), "econcast-epoch-0");
  old_epoch.publish(cells[0], 42, result, 1.0);
  EXPECT_EQ(old_epoch.stats().publishes, 1u);
  EXPECT_TRUE(old_epoch.probe(cells[0], 42).hit);

  // The current epoch hashes to a different path entirely: a clean miss,
  // not a rejection — stale epochs can never collide with live entries.
  runner::CellCache current((dir / "cache").string());
  EXPECT_FALSE(current.probe(cells[0], 42).hit);
  EXPECT_EQ(current.stats().misses, 1u);
  EXPECT_EQ(current.stats().rejected, 0u);
}

TEST(CellCache, ConcurrentPublishersOfOneCellNeverTearTheEntry) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const std::string cache_dir = (dir / "cache").string();
  const auto cells = small_manifest().spec.expand();
  protocol::SimResult result;
  result.groupput = 0.125;

  // All writers publish identical bytes (same cell, same wall_ms). Every
  // publish gets its own temp file (pid + process-wide sequence), so rival
  // threads — sharing one CellCache or each holding their own — never race
  // on a temp name: every publish must land, and the entry is never torn.
  std::atomic<int> failed{0};
  runner::CellCache shared(cache_dir);
  std::vector<std::thread> writers;
  for (int t = 0; t < 8; ++t)
    writers.emplace_back([&cache_dir, &cells, &result, &failed, &shared, t] {
      runner::CellCache own(cache_dir);
      runner::CellCache& cache = t % 2 == 0 ? shared : own;
      for (int i = 0; i < 25; ++i) {
        try {
          cache.publish(cells[0], 42, result, 1.0);
        } catch (const std::runtime_error&) {
          failed.fetch_add(1);
        }
      }
    });
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(shared.stats().publishes, 4u * 25u);

  // One entry, valid, with the agreed result bytes; no leftover temp files.
  runner::CellCache reader(cache_dir);
  const runner::CellCache::Probe probe = reader.probe(cells[0], 42);
  ASSERT_TRUE(probe.hit);
  EXPECT_EQ(probe.result.groupput, 0.125);
  std::size_t files = 0;
  for (const auto& e : fs::recursive_directory_iterator(cache_dir))
    if (e.is_regular_file()) {
      ++files;
      EXPECT_EQ(e.path().extension(), ".jsonl") << e.path();
    }
  EXPECT_EQ(files, 1u);
}

TEST(CellCache, ScanAndGcAccountForEntries) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const std::string cache_dir = (dir / "cache").string();
  const auto cells = small_manifest().spec.expand();
  runner::CellCache cache(cache_dir);
  const protocol::SimResult result;
  for (std::size_t i = 0; i < 4; ++i)
    cache.publish(cells[i], 100 + i, result, 2.5);

  const auto stats = runner::CellCache::scan(cache_dir);
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_DOUBLE_EQ(stats.total_wall_ms, 10.0);
  std::size_t by_protocol = 0;
  for (const auto& [name, count] : stats.entries_by_protocol)
    by_protocol += count;
  EXPECT_EQ(by_protocol, 4u);

  // GC to zero removes everything; an empty dir scans/gcs cleanly.
  const auto report = runner::CellCache::gc(cache_dir, 0);
  EXPECT_EQ(report.entries_before, 4u);
  EXPECT_EQ(report.entries_removed, 4u);
  EXPECT_EQ(report.bytes_after, 0u);
  EXPECT_EQ(runner::CellCache::scan(cache_dir).entries, 0u);
  EXPECT_EQ(runner::CellCache::gc((dir / "nope").string(), 0).entries_before,
            0u);
}

// ------------------------------------------------- sweep-session plumbing --

TEST(CellCache, OffColdWarmRunsAreByteIdenticalAndWarmExecutesNothing) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const runner::SweepManifest manifest = small_manifest();
  const std::string cache_dir = (dir / "cache").string();

  runner::SweepSession off(manifest, (dir / "off.jsonl").string());
  EXPECT_EQ(off.run(), 16u);

  runner::SweepSession::Options options;
  options.cache = std::make_shared<runner::CellCache>(cache_dir);
  runner::SweepSession cold(manifest, (dir / "cold.jsonl").string(), options);
  cold.run();
  EXPECT_EQ(options.cache->stats().hits, 0u);
  EXPECT_EQ(options.cache->stats().misses, 16u);
  EXPECT_EQ(options.cache->stats().publishes, 16u);

  // Warm rerun: every cell is served from the cache — nothing executes, so
  // nothing republishes — and the per-cell hook still fires for every cell
  // in index order.
  options.cache = std::make_shared<runner::CellCache>(cache_dir);
  std::vector<std::size_t> reported;
  options.on_cell_done = [&reported](const runner::ScenarioProgress& p) {
    reported.push_back(p.index);
  };
  runner::SweepSession warm(manifest, (dir / "warm.jsonl").string(), options);
  warm.run();
  EXPECT_EQ(options.cache->stats().hits, 16u);
  EXPECT_EQ(options.cache->stats().misses, 0u);
  EXPECT_EQ(options.cache->stats().publishes, 0u);
  ASSERT_EQ(reported.size(), 16u);
  EXPECT_TRUE(std::is_sorted(reported.begin(), reported.end()));

  const std::string reference = slurp(dir / "off.jsonl");
  EXPECT_EQ(reference, slurp(dir / "cold.jsonl"));
  EXPECT_EQ(reference, slurp(dir / "warm.jsonl"));

  // Cost-ordered submission is equally invisible in the bytes, warm or not.
  options.cache = std::make_shared<runner::CellCache>(cache_dir);
  options.order = runner::SweepSession::SubmitOrder::kCost;
  options.on_cell_done = nullptr;
  runner::SweepSession cost(manifest, (dir / "cost.jsonl").string(), options);
  cost.run();
  EXPECT_EQ(reference, slurp(dir / "cost.jsonl"));
}

TEST(CellCache, SabotagedEntriesAreRejectedAndRecomputed) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const runner::SweepManifest manifest = small_manifest();
  const std::string cache_dir = (dir / "cache").string();

  runner::SweepSession::Options options;
  options.cache = std::make_shared<runner::CellCache>(cache_dir);
  runner::SweepSession cold(manifest, (dir / "cold.jsonl").string(), options);
  cold.run();
  const std::string reference = slurp(dir / "cold.jsonl");

  // Sabotage four entries four ways: garbage bytes, truncation mid-line, a
  // tampered key (seed edited in place) and a tampered epoch field.
  const std::vector<fs::path> victims = entry_files(cache_dir);
  ASSERT_EQ(victims.size(), 16u);
  spit(victims[0], "not json at all\n");
  spit(victims[1], slurp(victims[1]).substr(0, 40));
  const std::string tampered_key = victims[2].string();
  {
    std::string text = slurp(victims[2]);
    const auto pos = text.find("\"seed\":\"");
    ASSERT_NE(pos, std::string::npos);
    text[pos + 8] = text[pos + 8] == '9' ? '8' : '9';
    spit(victims[2], text);
  }
  {
    std::string text = slurp(victims[3]);
    const auto pos = text.find(runner::kCacheEpoch);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, std::string(runner::kCacheEpoch).size(),
                 "econcast-epoch-X");
    spit(victims[3], text);
  }

  options.cache = std::make_shared<runner::CellCache>(cache_dir);
  runner::SweepSession rerun(manifest, (dir / "rerun.jsonl").string(),
                             options);
  rerun.run();
  EXPECT_EQ(options.cache->stats().hits, 12u);
  EXPECT_EQ(options.cache->stats().rejected, 4u);
  EXPECT_EQ(options.cache->stats().misses, 0u);
  EXPECT_EQ(options.cache->stats().publishes, 4u);  // sabotaged cells healed
  EXPECT_EQ(reference, slurp(dir / "rerun.jsonl"));

  // The healed entries are valid again.
  options.cache = std::make_shared<runner::CellCache>(cache_dir);
  runner::SweepSession warm(manifest, (dir / "warm.jsonl").string(), options);
  warm.run();
  EXPECT_EQ(options.cache->stats().hits, 16u);
  EXPECT_EQ(reference, slurp(dir / "warm.jsonl"));
}

TEST(CellCache, ReadOnlyCacheDirectoryDegradesToRecompute) {
  // Publishing into an uncreatable directory must not fail the sweep: the
  // publish hook swallows cache I/O errors and the results file is intact.
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const runner::SweepManifest manifest = small_manifest();
  spit(dir / "blocker", "");  // a *file*, so <dir>/blocker/<..> cannot exist

  runner::SweepSession off(manifest, (dir / "off.jsonl").string());
  off.run();

  runner::SweepSession::Options options;
  options.cache =
      std::make_shared<runner::CellCache>((dir / "blocker" / "c").string());
  runner::SweepSession session(manifest, (dir / "run.jsonl").string(),
                               options);
  EXPECT_EQ(session.run(), 16u);
  EXPECT_EQ(options.cache->stats().publishes, 0u);
  EXPECT_EQ(slurp(dir / "off.jsonl"), slurp(dir / "run.jsonl"));
}

// -------------------------------------------------------------- cost model --

TEST(CostModel, UnitsArePositiveAndGrowWithWork) {
  const auto cells = small_manifest().spec.expand();
  for (const runner::Scenario& cell : cells)
    EXPECT_GT(runner::CostModel::estimate_units(cell), 0.0) << cell.name;

  // More nodes must cost more units for the same protocol family, and a
  // simulated protocol must dwarf an analytic bound at equal N.
  proto::SimConfig cfg;
  cfg.duration = 4e3;
  const model::NodeSet three = model::homogeneous(3, 10.0, 500.0, 500.0);
  const model::NodeSet eight = model::homogeneous(8, 10.0, 500.0, 500.0);
  const runner::Scenario sim3 = {"s3", three, model::Topology::clique(3),
                                 protocol::econcast_spec(cfg)};
  const runner::Scenario sim8 = {"s8", eight, model::Topology::clique(8),
                                 protocol::econcast_spec(cfg)};
  const runner::Scenario bound3 = {
      "b3", three, model::Topology::clique(3),
      protocol::p4_spec(model::Mode::kGroupput, 0.5)};
  EXPECT_GT(runner::CostModel::estimate_units(sim8),
            runner::CostModel::estimate_units(sim3));
  EXPECT_GT(runner::CostModel::estimate_units(sim3),
            runner::CostModel::estimate_units(bound3));

  // Uncalibrated ms estimates preserve the units ordering.
  const runner::CostModel model;
  EXPECT_GT(model.estimate_ms(sim8), model.estimate_ms(sim3));
}

TEST(CostModel, CalibrationLearnsScalesFromCacheEntries) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const std::string cache_dir = (dir / "cache").string();
  const auto cells = small_manifest().spec.expand();
  runner::CellCache cache(cache_dir);
  const protocol::SimResult result;
  for (std::size_t i = 0; i < cells.size(); ++i)
    cache.publish(cells[i], 42 + i, result, 3.0);

  runner::CostModel model;
  model.calibrate_from_cache(cache_dir);
  EXPECT_FALSE(model.scales().empty());
  for (const auto& [name, scale] : model.scales())
    EXPECT_GT(scale, 0.0) << name;

  // Missing directory: calibration is a no-op, not an error.
  runner::CostModel blank;
  blank.calibrate_from_cache((dir / "nope").string());
  EXPECT_TRUE(blank.scales().empty());
}

TEST(CostModel, SubmitOrderIsADeterministicLptPermutation) {
  const auto cells = small_manifest().spec.expand();
  const runner::CostModel model;

  for (const std::size_t participants : {0u, 1u, 3u, 4u, 7u}) {
    const std::vector<std::size_t> order =
        runner::cost_submit_order(cells, model, participants);
    ASSERT_EQ(order.size(), cells.size());
    std::vector<std::size_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i)
      EXPECT_EQ(sorted[i], i) << "participants=" << participants;
    EXPECT_EQ(order,
              runner::cost_submit_order(cells, model, participants));
  }

  // With one participant the order is exactly descending cost, ties by
  // ascending index.
  const std::vector<std::size_t> lpt =
      runner::cost_submit_order(cells, model, 1);
  for (std::size_t k = 1; k < lpt.size(); ++k) {
    const double prev = model.estimate_ms(cells[lpt[k - 1]]);
    const double cur = model.estimate_ms(cells[lpt[k]]);
    EXPECT_TRUE(prev > cur || (prev == cur && lpt[k - 1] < lpt[k]))
        << "k=" << k;
  }
}

// ---------------------------------------------------------- run_with_seeds --

TEST(RunWithSeeds, ValidatesSeedsAndPermutation) {
  const auto cells = small_manifest().spec.expand();
  const std::vector<runner::Scenario> batch(cells.begin(), cells.begin() + 4);
  const runner::ScenarioRunner r(runner::RunnerOptions{2, 7, true});
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4};

  EXPECT_THROW(r.run_with_seeds(batch, {1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(r.run_with_seeds(batch, seeds, {0, 1, 2}),
               std::invalid_argument);
  EXPECT_THROW(r.run_with_seeds(batch, seeds, {0, 1, 2, 2}),
               std::invalid_argument);
  EXPECT_THROW(r.run_with_seeds(batch, seeds, {0, 1, 2, 4}),
               std::invalid_argument);
}

TEST(RunWithSeeds, SubmissionOrderCannotChangeResults) {
  const auto cells = small_manifest().spec.expand();
  const std::vector<runner::Scenario> batch(cells.begin(), cells.begin() + 6);
  const runner::ScenarioRunner r(runner::RunnerOptions{2, 7, true});
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < batch.size(); ++i)
    seeds.push_back(runner::derive_seed(7, i));

  const runner::BatchResult forward = r.run_with_seeds(batch, seeds);
  const runner::BatchResult reversed =
      r.run_with_seeds(batch, seeds, {5, 4, 3, 2, 1, 0});
  ASSERT_EQ(forward.results.size(), reversed.results.size());
  for (std::size_t i = 0; i < forward.results.size(); ++i) {
    EXPECT_EQ(protocol::to_json(forward.results[i]) ==
                  protocol::to_json(reversed.results[i]),
              true)
        << "cell " << i;
  }
}

}  // namespace
