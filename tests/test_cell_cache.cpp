// Tests for the sweep throughput layer: the content-addressed CellCache
// (hit/miss/rejected/publish accounting, tamper and truncation rejection,
// epoch isolation, concurrent publish, gc/scan, writers sharing one
// directory, a seeded mutation test of the segment reader), its per-cell
// claims
// (exclusive acquire across threads, staleness, malformed claim files), the
// cost model's units and LPT submission order (and that the executor starts
// its heaviest cells first), ScenarioRunner::run_with_seeds seed-count
// validation, and the end-to-end guarantee the whole layer
// hangs off: a sweep run with the cache off, cold or warm — on any number of
// participants — produces byte-identical results files, with the warm run
// executing zero cells.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "protocol/protocol.h"
#include "protocol/protocol_json.h"
#include "runner/cell_cache.h"
#include "runner/cost_model.h"
#include "runner/manifest.h"
#include "runner/scenario_runner.h"
#include "runner/sweep_session.h"
#include "scoped_temp_dir.h"
#include "util/json.h"

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

/// All segment files currently in a cache directory, path-sorted.
std::vector<fs::path> segment_files(const fs::path& cache_dir) {
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(cache_dir / "seg"))
    if (e.is_regular_file() && e.path().extension() == ".seg")
      files.push_back(e.path());
  std::sort(files.begin(), files.end());
  return files;
}

/// `text` split after each '\n'; a torn tail is the last element.
std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  for (std::size_t start = 0; start < text.size();) {
    const std::size_t nl = text.find('\n', start);
    const std::size_t end = nl == std::string::npos ? text.size() : nl + 1;
    lines.push_back(text.substr(start, end - start));
    start = end;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line;
  return text;
}

/// A line's digest and the space after it.
constexpr std::size_t kLinePrefix = 65;

std::vector<double> units_of(const std::vector<runner::Scenario>& cells) {
  std::vector<double> units;
  for (const runner::Scenario& cell : cells)
    units.push_back(runner::estimate_units(cell));
  return units;
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
  // <dir>/<2 hex>/<64 hex>: the digest path claims hang off.
  const std::string path = cache.entry_path(cache.cell_key(cells[0], 42));
  const std::string tail = path.substr((dir / "cache").string().size());
  EXPECT_EQ(tail.size(), 1 + 2 + 1 + 64);
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

  // The current epoch hashes to a different digest entirely: a clean miss,
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

  // All writers publish identical bytes (same cell, same wall_ms). Each
  // CellCache instance appends to its own segment under its own mutex, so
  // rival threads — sharing one CellCache or each holding their own —
  // never interleave within a line: every publish must land, complete.
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

  // One segment per publishing instance (the shared one and four own
  // ones), every line complete and parsable; nothing else on disk.
  const runner::CellCache::DirStats stats = runner::CellCache::scan(cache_dir);
  EXPECT_EQ(stats.segments, 5u);
  EXPECT_EQ(stats.entries, 8u * 25u);
  EXPECT_EQ(stats.torn_lines, 0u);
  EXPECT_EQ(stats.entries_by_protocol.at(cells[0].protocol.name), 8u * 25u);
  std::size_t files = 0;
  for (const auto& e : fs::recursive_directory_iterator(cache_dir))
    if (e.is_regular_file()) {
      ++files;
      EXPECT_EQ(e.path().extension(), ".seg") << e.path();
    }
  EXPECT_EQ(files, 5u);
  runner::CellCache reader(cache_dir);
  const runner::CellCache::Probe probe = reader.probe(cells[0], 42);
  ASSERT_TRUE(probe.hit);
  EXPECT_EQ(probe.result.groupput, 0.125);
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
  EXPECT_EQ(stats.segments, 1u);
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.torn_lines, 0u);
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

// ------------------------------------------------- writers on one directory --

protocol::SimResult sample_result(std::size_t i) {
  protocol::SimResult result;
  result.measured_window = 1000.0 + static_cast<double>(i);
  result.groupput = 0.125 * static_cast<double>(i + 1);
  result.anyput = 0.0625 / static_cast<double>(i + 1);
  result.avg_power = {1.5, 2.25 + static_cast<double>(i)};
  result.packets_sent = 40 + i;
  result.packets_received = 17 * i;
  result.extras["events_processed"] = 12345.0 + static_cast<double>(i);
  return result;
}

std::string result_bytes(const protocol::SimResult& result) {
  return util::json::dump(protocol::to_json(result));
}

TEST(CellCache, WritersSeeEachOthersEntriesAndTornTails) {
  const ScopedTempDir temp;
  const std::string cache_dir = (temp.path() / "cache").string();
  const auto cells = small_manifest().spec.expand();
  runner::CellCache a(cache_dir);
  runner::CellCache b(cache_dir);

  // B misses; A publishes; B's claim then sees A's entry, and so does its
  // next probe.
  EXPECT_FALSE(b.probe(cells[0], 7).hit);
  a.publish(cells[0], 7, sample_result(0), 1.0);
  EXPECT_FALSE(b.try_claim(cells[0], 7));
  const runner::CellCache::Probe hit = b.probe(cells[0], 7);
  ASSERT_TRUE(hit.hit);
  EXPECT_EQ(result_bytes(hit.result), result_bytes(sample_result(0)));

  // A's next line is only half on disk: a torn tail, rejected, not served.
  a.publish(cells[4], 7, sample_result(4), 1.0);
  const std::vector<fs::path> segments = segment_files(cache_dir);
  ASSERT_EQ(segments.size(), 1u);
  const std::string full = slurp(segments[0]);
  const std::vector<std::string> lines = split_lines(full);
  ASSERT_EQ(lines.size(), 2u);
  const std::size_t cut = lines[0].size() + lines[1].size() / 2;
  fs::resize_file(segments[0], cut);
  EXPECT_FALSE(b.probe(cells[4], 7).hit);
  EXPECT_EQ(runner::CellCache::scan(cache_dir).torn_lines, 1u);

  // Once its writer appends the rest of the line, it is served.
  {
    std::ofstream out(segments[0], std::ios::binary | std::ios::app);
    out << full.substr(cut);
  }
  const runner::CellCache::Probe healed = b.probe(cells[4], 7);
  ASSERT_TRUE(healed.hit);
  EXPECT_EQ(result_bytes(healed.result), result_bytes(sample_result(4)));
  EXPECT_EQ(runner::CellCache::scan(cache_dir).torn_lines, 0u);

  const runner::CellCache::Stats stats = b.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.publishes, 0u);
}

/// Knuth's MMIX LCG: a fixed, in-tree stream of mutation choices.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 33;
  }
  std::size_t below(std::size_t n) { return n == 0 ? 0 : next() % n; }

 private:
  std::uint64_t state_;
};

/// Offsets at which the lines of `text` start.
std::vector<std::size_t> line_starts(const std::string& text) {
  std::vector<std::size_t> starts;
  for (std::size_t at = 0; at < text.size();) {
    starts.push_back(at);
    const std::size_t nl = text.find('\n', at);
    at = nl == std::string::npos ? text.size() : nl + 1;
  }
  return starts;
}

void mutate(std::string& bytes, Lcg& rng) {
  if (bytes.empty()) return;
  switch (rng.below(5)) {
    case 0:  // truncate at a random offset
      bytes.resize(rng.below(bytes.size()));
      break;
    case 1:  // flip a byte
      bytes[rng.below(bytes.size())] ^= static_cast<char>(1 + rng.below(255));
      break;
    case 2:  // splice in a '\n'
      bytes.insert(rng.below(bytes.size() + 1), 1, '\n');
      break;
    case 3: {  // duplicate a line
      const std::vector<std::size_t> starts = line_starts(bytes);
      const std::size_t k = rng.below(starts.size());
      const std::size_t end =
          k + 1 < starts.size() ? starts[k + 1] : bytes.size();
      const std::string line = bytes.substr(starts[k], end - starts[k]);
      bytes.insert(end, line);
      break;
    }
    default: {  // corrupt a digest prefix
      const std::vector<std::size_t> starts = line_starts(bytes);
      const std::size_t at = starts[rng.below(starts.size())] + rng.below(65);
      if (at < bytes.size()) bytes[at] = "0123456789abcdefg \n"[rng.below(19)];
      break;
    }
  }
}

TEST(CellCache, MutatedSegmentsProbeAsHitsMissesOrRejections) {
  // The segment reader on hostile bytes: a valid multi-entry segment goes
  // through a few hundred seeded mutations (truncations, flipped bytes,
  // spliced newlines, duplicated lines, corrupted digests). A fresh cache
  // over each must answer every probe with a hit serving the exact bytes
  // published, a miss or a rejection — never a throw or other bytes.
  const ScopedTempDir temp;
  const auto cells = small_manifest().spec.expand();
  constexpr std::size_t kCells = 8;
  ASSERT_GE(cells.size(), kCells);
  const std::string source_dir = (temp.path() / "source").string();
  {
    runner::CellCache writer(source_dir);
    for (std::size_t i = 0; i < kCells; ++i)
      writer.publish(cells[i], 100 + i, sample_result(i), 1.0);
  }
  const std::vector<fs::path> sources = segment_files(source_dir);
  ASSERT_EQ(sources.size(), 1u);
  const std::string original = slurp(sources[0]);

  Lcg rng(20161004);
  std::size_t hits = 0, misses = 0, rejected = 0;
  for (int round = 0; round < 300; ++round) {
    std::string bytes = original;
    for (std::size_t m = 1 + rng.below(3); m > 0; --m) mutate(bytes, rng);
    const fs::path dir = temp.path() / ("round-" + std::to_string(round));
    fs::create_directories(dir / "seg");
    spit(dir / "seg" / "fuzz.1.0.seg", bytes);

    runner::CellCache cache(dir.string());
    for (std::size_t i = 0; i < kCells; ++i) {
      SCOPED_TRACE("round " + std::to_string(round) + " cell " +
                   std::to_string(i));
      const runner::CellCache::Stats before = cache.stats();
      runner::CellCache::Probe probe;
      ASSERT_NO_THROW(probe = cache.probe(cells[i], 100 + i));
      const runner::CellCache::Stats after = cache.stats();
      const std::size_t outcomes = (after.hits - before.hits) +
                                   (after.misses - before.misses) +
                                   (after.rejected - before.rejected);
      ASSERT_EQ(outcomes, 1u);
      EXPECT_EQ(probe.hit, after.hits > before.hits);
      if (probe.hit) {
        EXPECT_EQ(result_bytes(probe.result), result_bytes(sample_result(i)));
      }
    }
    const runner::CellCache::Stats stats = cache.stats();
    hits += stats.hits;
    misses += stats.misses;
    rejected += stats.rejected;
    ASSERT_NO_THROW((void)runner::CellCache::scan(dir.string()));
    fs::remove_all(dir);
  }
  // Every outcome occurs, so the mutations reach each path.
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
  EXPECT_GT(rejected, 0u);
}

// ------------------------------------------------------------ claims --

std::string claim_file(runner::CellCache& cache, const runner::Scenario& cell,
                       std::uint64_t seed) {
  return cache.claim_path(cache.cell_key(cell, seed));
}

/// Rewrites `text`'s worker id: turns a claim this cache wrote (so its
/// claimed_at comes from the cache's own clock) into someone else's.
std::string with_worker(std::string text, const std::string& from,
                        const std::string& to) {
  const std::size_t pos = text.find("\"" + from + "\"");
  EXPECT_NE(pos, std::string::npos) << text;
  if (pos != std::string::npos) text.replace(pos + 1, from.size(), to);
  return text;
}

TEST(CellClaim, AcquireIsExclusiveAndReleaseRemovesOnlyOwnClaims) {
  const ScopedTempDir temp;
  const std::string cache_dir = (temp.path() / "cache").string();
  const auto cells = small_manifest().spec.expand();
  runner::CellCache cache(cache_dir);
  runner::CellCache other_instance(cache_dir);
  const std::string path = claim_file(cache, cells[0], 7);
  ASSERT_EQ(path.substr(path.size() - 6), ".claim");

  EXPECT_TRUE(cache.try_claim(cells[0], 7));
  const runner::CellCache::Claim claim = runner::CellCache::read_claim(path);
  EXPECT_EQ(claim.worker, cache.worker());
  EXPECT_GT(claim.claimed_at, 0);
  // Held: neither this cache nor another one in this process gets it again.
  EXPECT_FALSE(cache.try_claim(cells[0], 7));
  EXPECT_FALSE(other_instance.try_claim(cells[0], 7));
  // The claim is not an entry: scans and probes do not see it.
  EXPECT_EQ(runner::CellCache::scan(cache_dir).entries, 0u);
  EXPECT_FALSE(cache.probe(cells[0], 7).hit);

  cache.release(cells[0], 7);
  EXPECT_FALSE(fs::exists(path));
  cache.release(cells[0], 7);  // idempotent
  EXPECT_TRUE(other_instance.try_claim(cells[0], 7));

  // A fresh claim of a live foreign worker is left alone, and releasing a
  // cell this worker does not hold never removes someone else's claim.
  const std::string foreign =
      with_worker(slurp(path), cache.worker(), "other-host:1");
  other_instance.release(cells[0], 7);
  spit(path, foreign);
  EXPECT_FALSE(cache.try_claim(cells[0], 7));
  cache.release(cells[0], 7);
  EXPECT_EQ(slurp(path), foreign);
}

TEST(CellClaim, PublishedCellsAreNotClaimedButInvalidEntriesAre) {
  // A worker that probed a cell before another worker published it must
  // not compute it again; a rejected entry still recomputes.
  const ScopedTempDir temp;
  const std::string cache_dir = (temp.path() / "cache").string();
  const auto cells = small_manifest().spec.expand();
  runner::CellCache cache(cache_dir);
  const std::string path = claim_file(cache, cells[0], 7);
  cache.publish(cells[0], 7, protocol::SimResult{}, 1.0);
  EXPECT_FALSE(cache.try_claim(cells[0], 7));
  EXPECT_FALSE(fs::exists(path));
  // Garble the entry in place, keeping its digest and its length.
  const std::vector<fs::path> segments = segment_files(cache_dir);
  ASSERT_EQ(segments.size(), 1u);
  std::string text = slurp(segments[0]);
  std::fill(text.begin() + kLinePrefix, text.end() - 1, 'x');
  spit(segments[0], text);
  EXPECT_TRUE(cache.try_claim(cells[0], 7));
  cache.release(cells[0], 7);
  const runner::CellCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.rejected, 0u);
}

TEST(CellClaim, ManyThreadsClaimingOneCellExactlyOneWins) {
  const ScopedTempDir temp;
  const std::string cache_dir = (temp.path() / "cache").string();
  const auto cells = small_manifest().spec.expand();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kRounds = 20;
  runner::CellCache shared(cache_dir);
  for (std::uint64_t seed = 0; seed < kRounds; ++seed) {
    std::atomic<int> winners{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        // Half the threads share one cache, half build their own: either
        // way they are one worker, so the claim file alone cannot tell
        // them apart.
        runner::CellCache own(cache_dir);
        runner::CellCache& cache = t % 2 == 0 ? shared : own;
        if (cache.try_claim(cells[seed % cells.size()], seed))
          winners.fetch_add(1);
      });
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(winners.load(), 1) << "round " << seed;
    shared.release(cells[seed % cells.size()], seed);
  }
}

TEST(CellClaim, StaleOwnAndAgedClaimsAreTakenOver) {
  const ScopedTempDir temp;
  const std::string cache_dir = (temp.path() / "cache").string();
  const auto cells = small_manifest().spec.expand();
  runner::CellCache cache(cache_dir);
  const std::string path = claim_file(cache, cells[1], 3);
  fs::create_directories(fs::path(path).parent_path());
  const auto claim_text = [](const std::string& worker,
                             const std::string& claimed_at) {
    return "{\"format\":\"econcast-cell-claim\",\"worker\":\"" + worker +
           "\",\"claimed_at\":" + claimed_at + "}\n";
  };

  // Older than the lease: stale, whoever wrote it.
  spit(path, claim_text("other-host:1", "0"));
  EXPECT_TRUE(cache.try_claim(cells[1], 3));
  EXPECT_EQ(runner::CellCache::read_claim(path).worker, cache.worker());
  cache.release(cells[1], 3);

  // Naming this worker (a leftover, e.g. from a reused pid): its own.
  spit(path, claim_text(cache.worker(), "4000000000"));
  EXPECT_TRUE(cache.try_claim(cells[1], 3));
  cache.release(cells[1], 3);
  EXPECT_FALSE(fs::exists(path));

  // A foreign claim stamped in the future is never stale by age.
  spit(path, claim_text("other-host:1", "4000000000"));
  EXPECT_FALSE(cache.try_claim(cells[1], 3));
}

TEST(CellClaim, MalformedClaimsAreNamedErrorsAndTakenOver) {
  const ScopedTempDir temp;
  const std::string cache_dir = (temp.path() / "cache").string();
  const auto cells = small_manifest().spec.expand();
  runner::CellCache cache(cache_dir);
  const std::string path = claim_file(cache, cells[2], 5);
  fs::create_directories(fs::path(path).parent_path());

  struct Case {
    const char* what;
    const char* text;
  };
  const Case cases[] = {
      {"empty (killed between create and write)", ""},
      {"truncated JSON", "{\"format\":\"econcast-cell-claim\",\"work"},
      {"wrong format",
       "{\"format\":\"econcast-shard-claim\",\"worker\":\"other-host:1\","
       "\"claimed_at\":4000000000}\n"},
      {"non-numeric claimed_at",
       "{\"format\":\"econcast-cell-claim\",\"worker\":\"other-host:1\","
       "\"claimed_at\":\"soon\"}\n"},
      {"claimed_at out of range",
       "{\"format\":\"econcast-cell-claim\",\"worker\":\"other-host:1\","
       "\"claimed_at\":1e300}\n"},
      {"missing worker",
       "{\"format\":\"econcast-cell-claim\",\"claimed_at\":4000000000}\n"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    spit(path, c.text);
    try {
      (void)runner::CellCache::read_claim(path);
      ADD_FAILURE() << "read_claim accepted a malformed claim";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(cache.try_claim(cells[2], 5));
    EXPECT_EQ(runner::CellCache::read_claim(path).worker, cache.worker());
    cache.release(cells[2], 5);
    EXPECT_FALSE(fs::exists(path));
  }
  // A missing file is a named error too.
  EXPECT_THROW((void)runner::CellCache::read_claim(path), std::runtime_error);
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

  // A cold run into a fresh cache on three participants, which finish the
  // 16 LPT-ordered cells out of index order, writes the same bytes.
  options.cache = std::make_shared<runner::CellCache>(
      (dir / "fresh-cache").string());
  options.executor = std::make_shared<exec::Executor>(3);
  options.num_threads = 3;
  options.on_cell_done = nullptr;
  runner::SweepSession parallel(manifest, (dir / "parallel.jsonl").string(),
                                options);
  EXPECT_EQ(parallel.run(), 16u);
  EXPECT_EQ(options.cache->stats().misses, 16u);
  EXPECT_EQ(reference, slurp(dir / "parallel.jsonl"));
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

  // Sabotage four lines of the segment four ways, each keeping its digest:
  // garbage bytes, truncation mid-line, a tampered key (seed edited in
  // place) and a tampered epoch field.
  const std::vector<fs::path> segments = segment_files(cache_dir);
  ASSERT_EQ(segments.size(), 1u);
  std::vector<std::string> lines = split_lines(slurp(segments[0]));
  ASSERT_EQ(lines.size(), 16u);
  lines[0] = lines[0].substr(0, kLinePrefix) + "not json at all\n";
  lines[1] = lines[1].substr(0, kLinePrefix + 40) + "\n";
  {
    std::string& text = lines[2];
    const auto pos = text.find("\"seed\":\"");
    ASSERT_NE(pos, std::string::npos);
    text[pos + 8] = text[pos + 8] == '9' ? '8' : '9';
  }
  {
    std::string& text = lines[3];
    const auto pos = text.find(runner::kCacheEpoch);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, std::string(runner::kCacheEpoch).size(),
                 "econcast-epoch-X");
  }
  spit(segments[0], join_lines(lines));

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
  EXPECT_EQ(options.cache->stats().rejected, 0u);
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
    EXPECT_GT(runner::estimate_units(cell), 0.0) << cell.name;

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
  EXPECT_GT(runner::estimate_units(sim8), runner::estimate_units(sim3));
  EXPECT_GT(runner::estimate_units(sim3), runner::estimate_units(bound3));
}

TEST(CostModel, LptOrderIsADeterministicPermutationByUnits) {
  const auto cells = small_manifest().spec.expand();

  const std::vector<std::size_t> lpt =
      runner::cost_submit_order(units_of(cells));
  ASSERT_EQ(lpt.size(), cells.size());
  std::vector<std::size_t> sorted = lpt;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  EXPECT_EQ(lpt, runner::cost_submit_order(units_of(cells)));

  // The order is exactly descending units, ties by ascending index.
  for (std::size_t k = 1; k < lpt.size(); ++k) {
    const double prev = runner::estimate_units(cells[lpt[k - 1]]);
    const double cur = runner::estimate_units(cells[lpt[k]]);
    EXPECT_TRUE(prev > cur || (prev == cur && lpt[k - 1] < lpt[k]))
        << "k=" << k;
  }
}

TEST(CostModel, LptOrderHeadsEveryExecutorParticipantWithAHeavyCell) {
  // Ten EconCast cliques, N = 3..12 in ascending order, so units are
  // distinct and LPT reverses the batch: the two heaviest are N=12 (index
  // 9) and N=11 (index 8).
  proto::SimConfig cfg;
  cfg.duration = 4e3;
  std::vector<runner::Scenario> cells;
  for (std::size_t n = 3; n <= 12; ++n)
    cells.push_back({"clique", model::homogeneous(n, 10.0, 500.0, 500.0),
                     model::Topology::clique(n),
                     protocol::econcast_spec(cfg)});

  const std::vector<std::size_t> order =
      runner::cost_submit_order(units_of(cells));
  EXPECT_EQ(order[0], 9u);
  EXPECT_EQ(order[1], 8u);

  // A cap of 8 threads on a one-worker pool spreads the batch over 2
  // participants (the worker and the submitting thread), and the executor
  // starts them on the two heaviest cells. Each participant's first task
  // waits until both have started, so neither can take the other's head
  // first; no task simulates anything.
  exec::Executor executor(1);
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> started;
  std::vector<std::size_t> heads;
  executor.parallel_for(
      order.size(),
      [&](std::size_t k) {
        std::unique_lock<std::mutex> lock(mu);
        if (started.insert(std::this_thread::get_id()).second) {
          heads.push_back(order[k]);
          cv.notify_all();
          cv.wait_for(lock, std::chrono::seconds(30),
                      [&] { return heads.size() >= 2; });
        }
      },
      8);
  std::sort(heads.begin(), heads.end());
  EXPECT_EQ(heads, (std::vector<std::size_t>{8, 9}));
}

// ---------------------------------------------------------- run_with_seeds --

TEST(RunWithSeeds, ValidatesSeedCount) {
  const auto cells = small_manifest().spec.expand();
  const std::vector<runner::Scenario> batch(cells.begin(), cells.begin() + 4);
  const runner::ScenarioRunner r(runner::RunnerOptions{2, 7, true});
  EXPECT_THROW(r.run_with_seeds(batch, {1, 2, 3}), std::invalid_argument);
}

}  // namespace
