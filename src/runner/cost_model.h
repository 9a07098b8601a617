// Per-cell cost estimation and the sweep's submission order.
//
// A sweep's cells are wildly uneven: an analytic bound cell returns in
// microseconds while an N=256 EconCast simulation runs for seconds, and the
// expansion order (protocol → mode → N → ...) puts the expensive large-N
// cells at the tail. Submitting in expansion order would end every parallel
// sweep with a straggler phase where most workers idle behind the last big
// cells. runner::SweepSession therefore always submits LPT (longest
// processing time first), which is legal because it reorder-buffers
// out-of-order completions into index-ordered bytes — the submission order
// is invisible in the results file.
//
// The model is deliberately coarse: a per-protocol polynomial in the node
// count times the protocol's duration-like knob ("units"). Ordering only
// needs costs that are *relatively* right within a sweep, and a pure
// function of the spec keeps the order independent of the machine and of
// whatever the cache holds. Cache entries record the units next to the
// observed wall_ms (cell_cache.h), so how well they track can be read off a
// populated cache.
#ifndef ECONCAST_RUNNER_COST_MODEL_H
#define ECONCAST_RUNNER_COST_MODEL_H

#include <cstddef>
#include <vector>

#include "runner/scenario_runner.h"

namespace econcast::runner {

/// Protocol-class polynomial, in arbitrary "units" comparable across cells:
/// simulated protocols scale with node count × simulated horizon (EconCast
/// superlinearly in N — its carrier-toggle re-samples and, for the
/// non-capture variant, listener-count re-samples grow with degree),
/// analytic protocols with N alone. Pure function of the
/// scenario spec; never consults the clock.
double estimate_units(const Scenario& cell);

/// The LPT submission permutation for a pending batch whose k-th cell is
/// expected to cost `units[k]` (estimate_units): element k is the batch
/// index to run as the k-th submitted task. Cells are sorted by descending
/// units, ties broken by ascending index, so the order is deterministic.
/// exec::Executor::parallel_for starts tasks in submission order, so the
/// sweep runs as greedy LPT: each free thread takes the heaviest cell left.
std::vector<std::size_t> cost_submit_order(const std::vector<double>& units);

}  // namespace econcast::runner

#endif  // ECONCAST_RUNNER_COST_MODEL_H
