// Checkpointed execution of a sweep manifest.
//
// A SweepSession pairs a SweepManifest with a results file (JSON Lines, one
// completed cell per line, written strictly in cell-index order and flushed
// line by line). Because the on-disk order is the expansion order and every
// cell's seed derives from its global index, a session killed at any point —
// even mid-write — resumes by truncating the partial trailing line, skipping
// the completed prefix, and running the remaining cells with exactly the
// seeds the uninterrupted run would have used. The resumed results file is
// byte-identical to an uninterrupted one (covered by
// tests/test_sweep_session.cpp).
//
// Thread division. run() drives exec::Executor itself, in two
// parallel_for batches: a probe pass over the pending cells, then the
// misses. Each miss task claims, computes (runner::run_scenario), publishes
// and releases its own cell on its own thread, so cells complete in any
// order. The executor's serialized progress hook marks the cell ready and
// encodes and appends the ready prefix in index order, so a crash never
// loses more than the cells still in flight and no cache work waits behind
// the hook's lock. Lines are encoded only as they are appended: a cell that
// completes far ahead of the flush frontier holds its result, never an
// encoded copy besides.
//
// Three throughput layers sit on top (all output-invisible by construction):
//  - A content-addressed CellCache (cell_cache.h). Before submitting the
//    pending cells, the session probes every cell; hits are fed straight
//    into the reorder buffer and only misses run. Completed misses are
//    published back by the worker that computed them. A warm rerun
//    therefore executes zero cells while producing byte-identical results
//    files.
//  - Distributed sweeps, through the same cache. Right before computing a
//    miss, the worker thread claims it (CellCache::try_claim), then
//    publishes it and releases the claim. A miss another live worker holds,
//    or has published since the probe, is skipped, not waited for: the
//    reorder buffer stops flushing at it, later cells are still computed
//    and published, and deferred_cells() counts what was left. Any number
//    of processes, each with its own results file, can run one manifest
//    against one cache directory; once none holds a claim, one more run of
//    the same command is a warm pass that writes the canonical results
//    file.
//  - Longest-expected-first (LPT) submission (cost_model.h). The pending
//    misses are always submitted in descending cost-model units, and the
//    executor starts them in that order, so no heavy cell lands last on a
//    busy pool. The reorder buffer writes the file in index order no matter
//    what order cells complete in, which is what makes reordering legal.
#ifndef ECONCAST_RUNNER_SWEEP_SESSION_H
#define ECONCAST_RUNNER_SWEEP_SESSION_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runner/cell_cache.h"
#include "runner/manifest.h"
#include "runner/scenario_runner.h"

namespace econcast::runner {


/// The seed cell `global_index` of the expansion runs with (the cell itself
/// is needed for the reseed=false case, where its own spec seed applies).
std::uint64_t manifest_cell_seed(const SweepManifest& manifest,
                                 const Scenario& cell,
                                 std::size_t global_index) noexcept;

class SweepSession {
 public:
  struct Options {
    /// Thread cap for the cell batches; 0 = hardware_concurrency
    /// (exec::resolve_threads).
    std::size_t num_threads = 0;
    /// Executor to submit to; null = exec::Executor::shared().
    std::shared_ptr<exec::Executor> executor;
    /// Per-cell completion hook: `index` is the cell's global manifest index
    /// and `done`/`total` count the session's completed cells including
    /// those loaded from a previous run. Serialized; invoked after the
    /// cell's line has been appended to the results file.
    std::function<void(const ScenarioProgress&)> on_cell_done;
    /// Result cache shared with other sessions/processes; null disables
    /// caching. run() probes it before submitting (hits skip execution
    /// entirely), and claims, publishes and releases every cell it
    /// computes, all from worker threads. The same pointer may back many
    /// sessions — CellCache keeps per-instance atomic stats, and the on-disk
    /// directory is multi-process safe.
    std::shared_ptr<CellCache> cache;
  };

  /// Opens a session: expands the manifest, loads the completed prefix from
  /// `results_path` (creating the file lazily on first run), truncates any
  /// partial trailing line a kill left behind, and validates that the
  /// recorded cells match the manifest expansion (index, name and seed per
  /// line). Throws std::runtime_error on a manifest/results mismatch and
  /// util::json::Error on corrupt (complete but unparsable) lines.
  SweepSession(SweepManifest manifest, std::string results_path,
               Options options);
  SweepSession(SweepManifest manifest, std::string results_path);

  /// Convenience: load the manifest file and pair it with
  /// default_results_path(manifest_path).
  static SweepSession open(const std::string& manifest_path, Options options);
  static SweepSession open(const std::string& manifest_path);

  /// "<path minus trailing .json>.results.jsonl".
  static std::string default_results_path(const std::string& manifest_path);

  std::size_t cell_count() const noexcept { return batch_.size(); }
  std::size_t completed_cells() const noexcept { return completed_.size(); }
  bool complete() const noexcept { return completed_.size() == cell_count(); }
  /// Cells the last run() left to other workers: another live worker held
  /// their claim, or had published them since the probe. Nonzero means the
  /// results file stops before the first of them; rerun once those workers
  /// are done to assemble the rest from the cache.
  std::size_t deferred_cells() const noexcept { return deferred_; }
  /// The manifest expansion, indexed by cell index.
  const std::vector<Scenario>& cells() const noexcept { return batch_; }
  const std::string& results_path() const noexcept { return results_path_; }
  const SweepManifest& manifest() const noexcept { return manifest_; }
  /// The attached result cache (null when caching is off) — exposed so
  /// callers can report its hit/miss/publish stats after run().
  CellCache* cache() const noexcept { return options_.cache.get(); }

  /// Runs up to `limit` of the remaining cells (0 = all remaining),
  /// appending each completed cell to the results file. Returns the number
  /// of newly completed cells, which stops short of `limit` when a cell is
  /// deferred to another worker (see deferred_cells()). Safe to call
  /// repeatedly; a no-op when the session is already complete. If a cell
  /// throws, every cell completed before the failure is already
  /// checkpointed, the claims still held are released, and the exception
  /// is rethrown (naming the cell and its index in cells()).
  std::size_t run(std::size_t limit = 0);

  /// Index-ordered results and summary over the whole sweep.
  /// Requires complete() (throws std::logic_error otherwise).
  BatchResult results() const;

 private:
  void load_existing();
  std::string record_line(std::size_t global_index,
                          const protocol::SimResult& result) const;
  std::uint64_t cell_seed(std::size_t global_index) const noexcept;

  SweepManifest manifest_;
  std::string results_path_;
  Options options_;
  std::vector<Scenario> batch_;  // full expansion
  /// Completed prefix of the expansion, mirroring the file.
  std::vector<protocol::SimResult> completed_;
  std::size_t deferred_ = 0;
};

}  // namespace econcast::runner

#endif  // ECONCAST_RUNNER_SWEEP_SESSION_H
