// The benchmark's measured phases below the end-to-end sweep: the traced
// pass and the per-layer probes.
#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "runner/cell_cache.h"
#include "runner/manifest.h"
#include "runner/sweep_session.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using Metrics = std::map<std::string, double>;

/// A workload ready to run: what the set-up phase (setup_s) produces.
struct Setup {
  econcast::runner::SweepManifest manifest;
  std::shared_ptr<econcast::runner::CellCache> cache;  // null: no cache
  std::unique_ptr<econcast::runner::SweepSession> session;
};

/// Generates the workload, opens a session writing <dir>/results.jsonl (the
/// directory is emptied first) and,
/// for a cached workload, pre-warms a fresh cache in <dir>/cache with the
/// seed-chosen half of the cells (computed on `executor`).
Setup set_up(const std::string& workload, std::uint64_t seed, Scale scale,
             const std::string& dir,
             const std::shared_ptr<econcast::exec::Executor>& executor,
             std::size_t threads);

/// Result of one traced pass.
struct TracedPass {
  double wall_s = 0.0;  // probe phase + cell batch, as SweepSession::run
  std::vector<std::string> cell_results;  // compact JSON per cell, by index
  Metrics metrics;  // derived from the pass's spans (see span_metrics)
};

/// Re-runs the set-up's cells the way SweepSession::run does — serial cache
/// probes, then the misses in parallel, publishing each computed cell —
/// but through the public call of each layer, with a span around each
/// call. The cells' result bytes are returned for comparison with the
/// untraced sweep. Writes the results it encodes to `results_path`. A
/// computed cell waits for the publish lock like the session's serialized
/// completion hook makes it wait; that wait is runner self time.
TracedPass traced_pass(Setup& setup, econcast::exec::Executor& executor,
                       std::size_t threads, Tracer& tracer,
                       const std::string& results_path);

/// Per-layer metrics from spans [begin, end) of `spans`: medians and
/// percentiles of call durations, exact counts, and self time per layer.
Metrics span_metrics(const std::vector<Span>& spans, std::size_t begin,
                     std::size_t end);

/// Mean bytes of the cache entries under `dir`, excluding the wall-clock
/// telemetry field (the only part of an entry that is not a function of the
/// cell), so the number repeats exactly.
double mean_entry_bytes(const std::string& dir);

/// ns per operation of a schedule/cancel/pop mix shaped like the
/// simulator's (per pop: the popped node and two others are invalidated
/// and rescheduled) on a default-constructed sim::EventQueue holding one
/// pending transition per node. Median of several fixed-size replays.
double queue_ns_per_op(std::size_t nodes, std::uint64_t seed);

/// µs per task of an empty-task parallel_for over `tasks` indices.
double executor_us_per_task(econcast::exec::Executor& executor,
                            std::size_t tasks, std::size_t threads);

/// Median of `values` (0 when empty).
double median(std::vector<double> values);
/// Nearest-rank percentile, p in (0, 100] (0 when empty).
double percentile(std::vector<double> values, double p);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H
