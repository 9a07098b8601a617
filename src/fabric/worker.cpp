#include "fabric/worker.h"

#include <unistd.h>

#include <memory>
#include <stdexcept>
#include <utility>

#include "fabric/claim.h"
#include "runner/manifest.h"
#include "runner/sweep_session.h"

namespace econcast::fabric {

Worker::Worker(std::string manifest_path, std::size_t shard,
               std::size_t shard_count, Options options)
    : manifest_path_(std::move(manifest_path)), options_(std::move(options)) {
  if (options_.worker_id.empty())
    options_.worker_id = "pid-" + std::to_string(::getpid());
  const runner::SweepManifest manifest = runner::load_manifest(manifest_path_);
  const ShardPlan plan =
      pin_plan(manifest_path_, manifest.spec.cell_count(), shard_count);
  range_ = plan.shard(shard);  // throws for shard >= shard_count
}

Worker::Worker(std::string manifest_path, std::size_t shard,
               std::size_t shard_count)
    : Worker(std::move(manifest_path), shard, shard_count, Options{}) {}

Worker::Outcome Worker::run() {
  Outcome out;
  out.shard_cells = range_.size();
  out.results_path =
      shard_results_path(manifest_path_, range_.index, range_.count);

  const std::size_t checkpointed = complete_line_count(out.results_path);
  if (range_.size() == 0 || checkpointed == range_.size()) {
    // Nothing to do (an empty shard of an over-sharded plan, or a previous
    // worker finished the range). No claim is taken for a no-op.
    out.status = Outcome::Status::kAlreadyComplete;
    out.resumed = checkpointed;
    out.shard_complete = true;
    return out;
  }

  const std::string claim_path =
      shard_claim_path(manifest_path_, range_.index, range_.count);
  ShardClaim claim;
  claim.shard = range_.index;
  claim.shard_count = range_.count;
  claim.worker = options_.worker_id;
  claim.claimed_at = claim.heartbeat_at = wall_clock_seconds();
  if (!try_acquire_claim(claim_path, claim)) {
    out.status = Outcome::Status::kShardBusy;
    out.resumed = checkpointed;
    return out;
  }

  // Only drop the claim if it is still ours: a touch_claim failure means
  // the coordinator reassigned the shard, and deleting the *new* owner's
  // claim here would let a third worker pile onto the same shard file.
  const auto release_if_owned = [&] {
    try {
      if (load_claim(claim_path).worker == options_.worker_id)
        release_claim(claim_path);
    } catch (const std::runtime_error&) {
      // Missing or torn claim: nothing of ours to release.
    }
  };

  try {
    // The session truncates a partial trailing record on open — a mutation
    // of the shard file, which is why it happens only under the claim.
    runner::SweepSession::Options session_options;
    session_options.num_threads = options_.num_threads;
    session_options.cell_begin = range_.begin;
    session_options.cell_end = range_.end;
    if (!options_.cache_dir.empty()) {
      session_options.cache =
          std::make_shared<runner::CellCache>(options_.cache_dir);
      session_options.order = runner::SweepSession::SubmitOrder::kCost;
    }
    session_options.on_cell_done = [&](const runner::ScenarioProgress& p) {
      // Heartbeat after every checkpointed cell; throws (aborting the
      // sweep) if the shard was reassigned out from under us.
      touch_claim(claim_path, claim, p.done);
      if (options_.on_cell_done) options_.on_cell_done(p);
    };
    runner::SweepSession session(runner::load_manifest(manifest_path_),
                                 out.results_path, session_options);
    out.resumed = session.completed_cells();
    out.ran = session.run(options_.limit);
    out.shard_complete = session.complete();
  } catch (...) {
    release_if_owned();
    throw;
  }
  release_if_owned();
  return out;
}

}  // namespace econcast::fabric
