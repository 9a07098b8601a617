// Tests for the distributed sweep fabric (src/fabric): shard planning,
// claim files + heartbeats, range-restricted SweepSession execution,
// worker claim/resume semantics, coordinator reassignment of dead workers,
// and the merge byte-identity guarantee — a manifest sharded k ways through
// coordinator + workers + merger must produce a results JSONL byte-identical
// to the single-process `econcast_sweep` run, including after a worker dies
// mid-shard and its shard is reassigned.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fabric/claim.h"
#include "fabric/coordinator.h"
#include "fabric/cost_plan.h"
#include "fabric/merger.h"
#include "fabric/shard_plan.h"
#include "fabric/worker.h"
#include "protocol/protocol.h"
#include "runner/manifest.h"
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
      runner::SweepSpec("fabric-mini")
          .protocols({protocol::econcast_spec(cfg),
                      protocol::p4_spec(model::Mode::kGroupput, 0.5)})
          .node_counts({3, 4})
          .sigmas({0.5, 0.75})
          .replicates(2),
      /*seed=*/7, true);
}

/// Writes the manifest into `dir` under a spool-compatible name and returns
/// its path.
std::string write_spool_manifest(const fs::path& dir,
                                 const runner::SweepManifest& manifest,
                                 const std::string& stem = "mini") {
  const std::string path = (dir / (stem + ".manifest.json")).string();
  runner::write_manifest(manifest, path);
  return path;
}

// ------------------------------------------------------------- ShardPlan --

TEST(ShardPlan, PartitionsCellsContiguously) {
  for (const std::size_t total : {0u, 1u, 5u, 16u, 100u}) {
    for (const std::size_t k : {1u, 2u, 3u, 7u, 23u}) {
      SCOPED_TRACE(std::to_string(total) + " cells / " + std::to_string(k));
      const fabric::ShardPlan plan(total, k);
      std::size_t covered = 0;
      std::size_t max_size = 0, min_size = total;
      for (std::size_t i = 0; i < k; ++i) {
        const fabric::ShardRange range = plan.shard(i);
        EXPECT_EQ(range.index, i);
        EXPECT_EQ(range.count, k);
        EXPECT_EQ(range.begin, covered);  // contiguous, in order
        EXPECT_LE(range.begin, range.end);
        covered = range.end;
        max_size = std::max(max_size, range.size());
        min_size = std::min(min_size, range.size());
      }
      EXPECT_EQ(covered, total);  // tiles [0, total) exactly
      EXPECT_LE(max_size - min_size, 1u);  // balanced
    }
  }
  EXPECT_THROW(fabric::ShardPlan(10, 0), std::invalid_argument);
  EXPECT_THROW(fabric::ShardPlan(10, 3).shard(3), std::out_of_range);
}

TEST(ShardPlan, PathLayout) {
  EXPECT_EQ(fabric::fabric_dir("spool/fig3a.manifest.json"),
            "spool/fig3a.manifest.fabric");
  EXPECT_EQ(fabric::shard_results_path("spool/fig3a.manifest.json", 1, 3),
            "spool/fig3a.manifest.fabric/shard-1-of-3.jsonl");
  EXPECT_EQ(fabric::shard_claim_path("spool/fig3a.manifest.json", 0, 3),
            "spool/fig3a.manifest.fabric/shard-0-of-3.claim.json");
  EXPECT_EQ(fabric::plan_path("spool/fig3a.manifest.json"),
            "spool/fig3a.manifest.fabric/plan.json");
  // The merged file lands exactly where a single-process run writes.
  EXPECT_EQ(fabric::merged_results_path("spool/fig3a.manifest.json"),
            runner::SweepSession::default_results_path(
                "spool/fig3a.manifest.json"));
}

TEST(ShardPlan, PinValidatesAndConflicts) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const std::string manifest_path = (dir / "m.manifest.json").string();
  EXPECT_FALSE(fabric::plan_exists(manifest_path));
  const fabric::ShardPlan pinned = fabric::pin_plan(manifest_path, 16, 3);
  EXPECT_EQ(pinned.total_cells(), 16u);
  EXPECT_TRUE(fabric::plan_exists(manifest_path));
  // Re-pinning the same shape is idempotent; a different shape is an error
  // naming both.
  EXPECT_NO_THROW(fabric::pin_plan(manifest_path, 16, 3));
  try {
    fabric::pin_plan(manifest_path, 16, 4);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("3 shards"), std::string::npos) << what;
    EXPECT_NE(what.find("4"), std::string::npos) << what;
  }
  EXPECT_THROW(fabric::pin_plan(manifest_path, 17, 3), std::runtime_error);
  const fabric::ShardPlan loaded = fabric::load_plan(manifest_path);
  EXPECT_EQ(loaded.shard_count(), 3u);
  // A corrupt plan is reported as corrupt, never half-parsed.
  spit(fabric::plan_path(manifest_path), "{\"format\": \"nope\"}");
  EXPECT_THROW(fabric::load_plan(manifest_path), std::runtime_error);
}

TEST(ShardPlan, ExplicitBoundsPartitionAndValidate) {
  const fabric::ShardPlan plan(16, std::vector<std::size_t>{0, 9, 12, 16});
  EXPECT_EQ(plan.shard_count(), 3u);
  EXPECT_FALSE(plan.equal_split());
  EXPECT_EQ(plan.shard(0).begin, 0u);
  EXPECT_EQ(plan.shard(0).end, 9u);
  EXPECT_EQ(plan.shard(1).begin, 9u);
  EXPECT_EQ(plan.shard(1).end, 12u);
  EXPECT_EQ(plan.shard(2).begin, 12u);
  EXPECT_EQ(plan.shard(2).end, 16u);
  // Explicit bounds that happen to be the equal split are recognized as it.
  EXPECT_TRUE(fabric::ShardPlan(16, std::vector<std::size_t>{0, 5, 10, 16})
                  .equal_split());
  // Empty shards are legal; malformed bounds are not.
  EXPECT_NO_THROW(fabric::ShardPlan(16, std::vector<std::size_t>{0, 16, 16}));
  EXPECT_THROW(fabric::ShardPlan(16, std::vector<std::size_t>{1, 9, 16}),
               std::invalid_argument);
  EXPECT_THROW(fabric::ShardPlan(16, std::vector<std::size_t>{0, 9, 15}),
               std::invalid_argument);
  EXPECT_THROW(fabric::ShardPlan(16, std::vector<std::size_t>{0, 9, 5, 16}),
               std::invalid_argument);
  EXPECT_THROW(fabric::ShardPlan(16, std::vector<std::size_t>{16}),
               std::invalid_argument);
}

TEST(ShardPlan, BoundsRoundTripAndPinnedBoundsWin) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const std::string manifest_path = (dir / "m.manifest.json").string();
  const fabric::ShardPlan uneven(16, std::vector<std::size_t>{0, 9, 12, 16});
  fabric::pin_plan(manifest_path, uneven);
  EXPECT_EQ(fabric::load_plan(manifest_path).bounds(), uneven.bounds());
  // An equal-split worker joining later adopts the pinned bounds, and so
  // does a rival cost-balanced pin with different cuts — one manifest, one
  // partition.
  EXPECT_EQ(fabric::pin_plan(manifest_path, 16, 3).bounds(), uneven.bounds());
  EXPECT_EQ(fabric::pin_plan(manifest_path,
                             fabric::ShardPlan(
                                 16, std::vector<std::size_t>{0, 4, 8, 16}))
                .bounds(),
            uneven.bounds());
  // A different shape still conflicts.
  EXPECT_THROW(fabric::pin_plan(manifest_path, 16, 4), std::runtime_error);

  // Equal-split plans keep the legacy plan.json bytes: no bounds array.
  const std::string manifest_eq = (dir / "eq.manifest.json").string();
  fabric::pin_plan(manifest_eq, 16, 3);
  EXPECT_EQ(slurp(fabric::plan_path(manifest_eq)).find("bounds"),
            std::string::npos);
  EXPECT_TRUE(fabric::load_plan(manifest_eq).equal_split());
}

TEST(ShardPlan, CostBalancedPlanCoversCellsAndZeroesCachedWork) {
  const runner::SweepManifest manifest = small_manifest();

  // Without a cache the plan is still a valid contiguous 3-way partition.
  const fabric::ShardPlan plan = fabric::cost_balanced_plan(manifest, 3, "");
  EXPECT_EQ(plan.total_cells(), 16u);
  EXPECT_EQ(plan.shard_count(), 3u);
  EXPECT_EQ(plan.bounds().front(), 0u);
  EXPECT_EQ(plan.bounds().back(), 16u);

  // With every cell cached the remaining cost is zero and the plan falls
  // back to the equal split.
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const std::string cache_dir = (dir / "cache").string();
  runner::CellCache cache(cache_dir);
  const auto cells = manifest.spec.expand();
  const protocol::SimResult result;
  for (std::size_t i = 0; i < cells.size(); ++i)
    cache.publish(cells[i], runner::manifest_cell_seed(manifest, cells[i], i),
                  result, 1.0);
  EXPECT_TRUE(
      fabric::cost_balanced_plan(manifest, 3, cache_dir).equal_split());

  // With everything cached but the last cell, all remaining cost sits in
  // cell 15: every cut lands at 16 and the first shard owns all the work.
  fs::remove(cache.entry_path(
      cache.cell_key(cells[15],
                     runner::manifest_cell_seed(manifest, cells[15], 15))));
  const fabric::ShardPlan tail = fabric::cost_balanced_plan(manifest, 3,
                                                            cache_dir);
  EXPECT_EQ(tail.bounds(),
            (std::vector<std::size_t>{0, 16, 16, 16}));
}

TEST(ShardPlan, CompleteLineCount) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const std::string path = (dir / "lines.jsonl").string();
  EXPECT_EQ(fabric::complete_line_count(path), 0u);  // missing file
  spit(path, "");
  EXPECT_EQ(fabric::complete_line_count(path), 0u);
  spit(path, "{\"a\":1}\n{\"b\":2}\n");
  EXPECT_EQ(fabric::complete_line_count(path), 2u);
  // A partial trailing record (kill mid-write) does not count.
  spit(path, "{\"a\":1}\n{\"b\":2}\n{\"c\":");
  EXPECT_EQ(fabric::complete_line_count(path), 2u);
}

// ----------------------------------------------------------------- Claims --

TEST(ShardClaim, AcquireIsExclusiveAndReleaseIdempotent) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const std::string path = (dir / "shard-0-of-2.claim.json").string();
  fabric::ShardClaim claim;
  claim.shard = 0;
  claim.shard_count = 2;
  claim.worker = "worker-a";
  claim.claimed_at = claim.heartbeat_at = fabric::wall_clock_seconds();

  EXPECT_TRUE(fabric::try_acquire_claim(path, claim));
  // Second acquirer loses, whoever it is — existence is ownership.
  fabric::ShardClaim rival = claim;
  rival.worker = "worker-b";
  EXPECT_FALSE(fabric::try_acquire_claim(path, rival));

  const fabric::ShardClaim loaded = fabric::load_claim(path);
  EXPECT_EQ(loaded.worker, "worker-a");
  EXPECT_EQ(loaded.shard, 0u);
  EXPECT_EQ(loaded.shard_count, 2u);
  EXPECT_EQ(loaded.heartbeat_at, claim.heartbeat_at);

  fabric::release_claim(path);
  EXPECT_FALSE(fabric::claim_exists(path));
  fabric::release_claim(path);  // idempotent
  EXPECT_TRUE(fabric::try_acquire_claim(path, rival));
}

TEST(ShardClaim, TouchHeartbeatsAndDetectsReassignment) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const std::string path = (dir / "c.claim.json").string();
  fabric::ShardClaim claim;
  claim.worker = "worker-a";
  claim.claimed_at = claim.heartbeat_at = 100;  // stale on purpose
  ASSERT_TRUE(fabric::try_acquire_claim(path, claim));

  fabric::touch_claim(path, claim, /*cells_done=*/5);
  const fabric::ShardClaim after = fabric::load_claim(path);
  EXPECT_EQ(after.cells_done, 5u);
  EXPECT_GE(after.heartbeat_at, fabric::wall_clock_seconds() - 5);

  // Coordinator released and a rival re-acquired: our touch must fail, not
  // clobber the rival's claim.
  fabric::release_claim(path);
  fabric::ShardClaim rival = claim;
  rival.worker = "worker-b";
  ASSERT_TRUE(fabric::try_acquire_claim(path, rival));
  EXPECT_THROW(fabric::touch_claim(path, claim, 6), std::runtime_error);
  EXPECT_EQ(fabric::load_claim(path).worker, "worker-b");

  // A released claim makes touch fail too.
  fabric::release_claim(path);
  EXPECT_THROW(fabric::touch_claim(path, claim, 7), std::runtime_error);
}

TEST(ShardClaim, StalenessUsesLease) {
  fabric::ShardClaim claim;
  claim.heartbeat_at = 1000;
  EXPECT_FALSE(claim.stale(/*now=*/1000, /*lease=*/30));
  EXPECT_FALSE(claim.stale(1029, 30));
  EXPECT_TRUE(claim.stale(1030, 30));
  EXPECT_TRUE(claim.stale(1000, 0));  // zero lease: everything is stale
  // Corrupt claims load as errors.
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  spit(dir / "bad.claim.json", "{\"format\": \"econcast-shard-claim\"");
  EXPECT_THROW(fabric::load_claim((dir / "bad.claim.json").string()),
               std::runtime_error);
}

// ------------------------------------------- SweepSession cell ranges --

TEST(SweepSessionRange, ShardFilesConcatenateToSingleProcessBytes) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const runner::SweepManifest manifest = small_manifest();

  runner::SweepSession full(manifest, (dir / "full.jsonl").string());
  ASSERT_EQ(full.cell_count(), 16u);
  full.run();

  // Three uneven contiguous ranges, run out of order.
  std::string concatenated;
  const std::size_t bounds[] = {0, 5, 11, 16};
  for (const int i : {2, 0, 1}) {
    runner::SweepSession::Options options;
    options.cell_begin = bounds[i];
    options.cell_end = bounds[i + 1];
    runner::SweepSession shard(manifest,
                               (dir / ("s" + std::to_string(i) + ".jsonl"))
                                   .string(),
                               options);
    EXPECT_EQ(shard.cell_count(), bounds[i + 1] - bounds[i]);
    EXPECT_EQ(shard.cell_begin(), bounds[i]);
    shard.run();
    EXPECT_TRUE(shard.complete());
  }
  for (const int i : {0, 1, 2})
    concatenated += slurp(dir / ("s" + std::to_string(i) + ".jsonl"));
  EXPECT_EQ(concatenated, slurp(dir / "full.jsonl"));
}

TEST(SweepSessionRange, ProgressHookReportsGlobalIndices) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const runner::SweepManifest manifest = small_manifest();
  std::vector<std::size_t> indices;
  runner::SweepSession::Options options;
  options.cell_begin = 5;
  options.cell_end = 8;
  options.num_threads = 1;
  options.on_cell_done = [&](const runner::ScenarioProgress& p) {
    indices.push_back(p.index);
    EXPECT_EQ(p.total, 3u);
    EXPECT_NE(p.scenario, nullptr);
    EXPECT_NE(p.result, nullptr);
  };
  runner::SweepSession shard(manifest, (dir / "s.jsonl").string(), options);
  shard.run();
  EXPECT_EQ(indices, (std::vector<std::size_t>{5, 6, 7}));
}

TEST(SweepSessionRange, RejectsBadRangesAndForeignShardFiles) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const runner::SweepManifest manifest = small_manifest();
  runner::SweepSession::Options options;
  options.cell_begin = 9;
  options.cell_end = 5;  // inverted
  EXPECT_THROW(
      runner::SweepSession(manifest, (dir / "x.jsonl").string(), options),
      std::invalid_argument);
  options.cell_begin = 5;
  options.cell_end = 17;  // past the 16-cell expansion
  EXPECT_THROW(
      runner::SweepSession(manifest, (dir / "x.jsonl").string(), options),
      std::invalid_argument);

  // A results file from one shard cannot resume under another range: the
  // recorded global indices no longer match.
  options.cell_begin = 0;
  options.cell_end = 4;
  {
    runner::SweepSession first(manifest, (dir / "r.jsonl").string(), options);
    first.run();
  }
  options.cell_begin = 4;
  options.cell_end = 8;
  EXPECT_THROW(
      runner::SweepSession(manifest, (dir / "r.jsonl").string(), options),
      std::runtime_error);
}

TEST(SweepSessionRange, ShardResumesAfterMidRecordKill) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const runner::SweepManifest manifest = small_manifest();
  runner::SweepSession::Options options;
  options.cell_begin = 5;
  options.cell_end = 11;
  {
    runner::SweepSession reference(manifest, (dir / "ref.jsonl").string(),
                                   options);
    reference.run();
  }
  {
    runner::SweepSession killed(manifest, (dir / "k.jsonl").string(),
                                options);
    killed.run(3);
  }
  std::string bytes = slurp(dir / "k.jsonl");
  bytes.resize(bytes.size() - 9);  // mid-record kill
  spit(dir / "k.jsonl", bytes);
  runner::SweepSession resumed(manifest, (dir / "k.jsonl").string(), options);
  EXPECT_EQ(resumed.completed_cells(), 2u);
  resumed.run();
  EXPECT_EQ(slurp(dir / "k.jsonl"), slurp(dir / "ref.jsonl"));
}

// -------------------------------------------------- Worker + Merger --

TEST(Fabric, WorkersAndMergerReproduceSingleProcessBytes) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const runner::SweepManifest manifest = small_manifest();
  const std::string manifest_path = write_spool_manifest(dir, manifest);

  runner::SweepSession single(manifest, (dir / "single.jsonl").string());
  single.run();

  for (const std::size_t i : {1u, 0u, 2u}) {  // order must not matter
    fabric::Worker worker(manifest_path, i, 3);
    const fabric::Worker::Outcome outcome = worker.run();
    EXPECT_EQ(outcome.status, fabric::Worker::Outcome::Status::kRan);
    EXPECT_TRUE(outcome.shard_complete);
    EXPECT_EQ(outcome.ran, outcome.shard_cells);
    // Clean completion releases the claim.
    EXPECT_FALSE(fabric::claim_exists(
        fabric::shard_claim_path(manifest_path, i, 3)));
  }
  const fabric::Merger::Report report = fabric::Merger::merge(manifest_path);
  EXPECT_EQ(report.shard_count, 3u);
  EXPECT_EQ(report.cells, 16u);
  EXPECT_EQ(slurp(report.merged_path), slurp(dir / "single.jsonl"));

  // Re-running a completed shard is a no-op, claim-free.
  fabric::Worker again(manifest_path, 1, 3);
  const fabric::Worker::Outcome outcome = again.run();
  EXPECT_EQ(outcome.status, fabric::Worker::Outcome::Status::kAlreadyComplete);
  EXPECT_EQ(outcome.ran, 0u);
}

TEST(Fabric, WorkerRespectsRivalClaimAndHeartbeats) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const std::string manifest_path =
      write_spool_manifest(dir, small_manifest());

  // A rival already holds shard 0: the worker must not touch it.
  fabric::pin_plan(manifest_path, 16, 2);
  fabric::ShardClaim rival;
  rival.shard = 0;
  rival.shard_count = 2;
  rival.worker = "rival";
  rival.claimed_at = rival.heartbeat_at = fabric::wall_clock_seconds();
  ASSERT_TRUE(fabric::try_acquire_claim(
      fabric::shard_claim_path(manifest_path, 0, 2), rival));

  fabric::Worker::Options options;
  options.worker_id = "blocked";
  fabric::Worker blocked(manifest_path, 0, 2, options);
  EXPECT_EQ(blocked.run().status, fabric::Worker::Outcome::Status::kShardBusy);
  EXPECT_EQ(fabric::load_claim(fabric::shard_claim_path(manifest_path, 0, 2))
                .worker,
            "rival");

  // Shard 1 is free; the worker heartbeats its claim after every cell.
  std::vector<std::uint64_t> beats;
  fabric::Worker::Options beat_options;
  beat_options.worker_id = "beater";
  beat_options.num_threads = 1;
  beat_options.on_cell_done = [&](const runner::ScenarioProgress&) {
    beats.push_back(
        fabric::load_claim(fabric::shard_claim_path(manifest_path, 1, 2))
            .cells_done);
  };
  fabric::Worker beater(manifest_path, 1, 2, beat_options);
  const fabric::Worker::Outcome outcome = beater.run();
  EXPECT_TRUE(outcome.shard_complete);
  ASSERT_EQ(beats.size(), outcome.shard_cells);
  for (std::size_t i = 0; i < beats.size(); ++i) EXPECT_EQ(beats[i], i + 1);
}

TEST(Fabric, MergerRejectsMissingShortAndTamperedShards) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const std::string manifest_path =
      write_spool_manifest(dir, small_manifest());

  fabric::Worker(manifest_path, 0, 2).run();
  // Shard 1 missing entirely.
  try {
    fabric::Merger::merge(manifest_path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("shard-1-of-2"), std::string::npos)
        << e.what();
  }

  fabric::Worker(manifest_path, 1, 2).run();
  EXPECT_NO_THROW(fabric::Merger::merge(manifest_path));

  // Partial trailing record: merge refuses (the shard must be resumed).
  const std::string shard1 = fabric::shard_results_path(manifest_path, 1, 2);
  const std::string intact = slurp(shard1);
  spit(shard1, intact.substr(0, intact.size() - 6));
  EXPECT_THROW(fabric::Merger::merge(manifest_path), std::runtime_error);
  spit(shard1, intact);

  // A tampered record index (simulating interleaved writers) is rejected.
  std::string tampered = intact;
  const std::size_t at = tampered.find("\"index\":");
  ASSERT_NE(at, std::string::npos);
  tampered[at + 8] = '0';  // first shard-1 cell index 8 -> 0
  spit(shard1, tampered);
  EXPECT_THROW(fabric::Merger::merge(manifest_path), std::runtime_error);
  spit(shard1, intact);

  // Plan conflict: merging as a different shard count than pinned fails.
  EXPECT_THROW(fabric::Merger::merge(manifest_path, 3, {}),
               std::runtime_error);
}

TEST(Fabric, OverShardedPlanLeavesEmptyShardsTriviallyComplete) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  proto::SimConfig cfg;
  cfg.duration = 3e3;
  const runner::SweepManifest manifest(
      runner::SweepSpec("tiny").protocols({protocol::econcast_spec(cfg)}),
      /*seed=*/3, true);  // a single cell
  const std::string manifest_path =
      write_spool_manifest(dir, manifest, "tiny");

  runner::SweepSession single(manifest, (dir / "single.jsonl").string());
  single.run();

  for (std::size_t i = 0; i < 3; ++i) {
    const fabric::Worker::Outcome outcome =
        fabric::Worker(manifest_path, i, 3).run();
    EXPECT_EQ(outcome.shard_cells, i == 2 ? 1u : 0u);
    EXPECT_TRUE(outcome.shard_complete);
  }
  const fabric::Merger::Report report = fabric::Merger::merge(manifest_path);
  EXPECT_EQ(report.cells, 1u);
  EXPECT_EQ(slurp(report.merged_path), slurp(dir / "single.jsonl"));
}

// ------------------------------------------------------- Coordinator --

TEST(Fabric, CoordinatorPlansReassignsAndMerges) {
  // The acceptance-criteria scenario, in process: shard 3 ways, let one
  // "worker" die mid-shard (checkpoint truncated mid-record + a claim left
  // behind with a stale heartbeat), have the coordinator reassign it, run a
  // replacement worker, and require the merged file byte-identical to the
  // single-process run.
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const runner::SweepManifest manifest = small_manifest();
  const std::string manifest_path = write_spool_manifest(dir, manifest);

  runner::SweepSession single(manifest, (dir / "single.jsonl").string());
  single.run();

  fabric::Coordinator::Options options;
  options.shard_count = 3;
  options.lease_seconds = 3600;  // nothing is stale yet
  fabric::Coordinator coordinator(dir.string(), options);

  // Pass 1: pins the plan, nothing running.
  std::vector<fabric::Coordinator::SweepStatus> statuses = coordinator.pass();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_TRUE(statuses[0].plan_pinned);
  EXPECT_EQ(statuses[0].total_cells, 16u);
  EXPECT_EQ(statuses[0].shard_count, 3u);
  EXPECT_EQ(statuses[0].cells_done, 0u);
  EXPECT_FALSE(statuses[0].merged);

  // Shards 0 and 2 complete cleanly; shard 1's worker "dies" mid-shard:
  // interrupted after 2 cells, results truncated mid-record, claim left
  // behind (a real kill cannot release it).
  fabric::Worker(manifest_path, 0, 3).run();
  fabric::Worker(manifest_path, 2, 3).run();
  {
    fabric::Worker::Options worker_options;
    worker_options.worker_id = "victim";
    worker_options.limit = 2;
    fabric::Worker(manifest_path, 1, 3, worker_options).run();
  }
  const std::string shard1 = fabric::shard_results_path(manifest_path, 1, 3);
  std::string bytes = slurp(shard1);
  bytes.resize(bytes.size() - 9);
  spit(shard1, bytes);
  fabric::ShardClaim dead;
  dead.shard = 1;
  dead.shard_count = 3;
  dead.worker = "victim";
  dead.claimed_at = dead.heartbeat_at = fabric::wall_clock_seconds() - 7200;
  const std::string claim1 = fabric::shard_claim_path(manifest_path, 1, 3);
  ASSERT_TRUE(fabric::try_acquire_claim(claim1, dead));

  // Pass 2, fresh-enough lease: the claim is within 7200+epsilon but stale
  // beyond 3600 — released; no merge yet (shard 1 incomplete).
  statuses = coordinator.pass();
  EXPECT_EQ(statuses[0].shards_complete, 2u);
  EXPECT_EQ(statuses[0].shards_reassigned, 1u);
  EXPECT_FALSE(fabric::claim_exists(claim1));
  EXPECT_FALSE(statuses[0].merged);
  EXPECT_FALSE(fs::exists(fabric::merged_results_path(manifest_path)));

  // A replacement worker resumes the shard: the truncated record's cell
  // reruns with its manifest-derived seed.
  fabric::Worker::Options rescue_options;
  rescue_options.worker_id = "rescuer";
  const fabric::Worker::Outcome rescue =
      fabric::Worker(manifest_path, 1, 3, rescue_options).run();
  EXPECT_EQ(rescue.resumed, 1u);  // 2 checkpointed - 1 truncated
  EXPECT_TRUE(rescue.shard_complete);

  // Pass 3: everything complete — merged, byte-identical.
  statuses = coordinator.pass();
  EXPECT_EQ(statuses[0].shards_complete, 3u);
  EXPECT_EQ(statuses[0].cells_done, 16u);
  EXPECT_TRUE(statuses[0].merged);
  EXPECT_EQ(slurp(fabric::merged_results_path(manifest_path)),
            slurp(dir / "single.jsonl"));

  // Pass 4 is a stable no-op.
  statuses = coordinator.pass();
  EXPECT_EQ(statuses[0].shards_reassigned, 0u);
  EXPECT_TRUE(statuses[0].merged);
}

TEST(Fabric, CoordinatorLeavesFreshClaimsAlone) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const std::string manifest_path =
      write_spool_manifest(dir, small_manifest());

  fabric::Coordinator::Options options;
  options.shard_count = 2;
  options.lease_seconds = 3600;
  fabric::Coordinator coordinator(dir.string(), options);
  coordinator.pass();

  fabric::ShardClaim live;
  live.shard = 0;
  live.shard_count = 2;
  live.worker = "alive";
  live.claimed_at = live.heartbeat_at = fabric::wall_clock_seconds();
  const std::string claim0 = fabric::shard_claim_path(manifest_path, 0, 2);
  ASSERT_TRUE(fabric::try_acquire_claim(claim0, live));

  const auto statuses = coordinator.pass();
  EXPECT_EQ(statuses[0].shards_claimed, 1u);
  EXPECT_EQ(statuses[0].shards_reassigned, 0u);
  EXPECT_TRUE(fabric::claim_exists(claim0));

  EXPECT_THROW(
      fabric::Coordinator((dir / "missing").string(), options).pass(),
      std::runtime_error);
  EXPECT_THROW(fabric::Coordinator(dir.string(),
                                   fabric::Coordinator::Options{0, 60, {}}),
               std::invalid_argument);
}

}  // namespace
