// The benchmark's three sweep workloads, generated in code from a seed.
//
// Every workload starts from a default-constructed proto::SimConfig /
// runner::SweepSpec and sets only what defines the experiment (axes,
// horizon, the Fig. 6 energy-guard start). It never names a performance
// knob (event-queue engine, hot-path engine, kernel tier, instrumentation
// extras), so whatever the library's defaults are is what gets measured.
//
//   grid-des       EconCast DES on sparse square grids (Fig. 6): event-queue
//                  volume dominates.
//   clique-des     EconCast DES on cliques: dense neighbourhoods, so
//                  listener counting and rate recomputation dominate.
//   fig2-halfwarm  the Fig. 2 heterogeneity sweep (econcast-p4 + oracle on
//                  sampled N=5 networks) against a cell cache pre-warmed
//                  with a seed-chosen half of the cells: per-cell runner,
//                  json and cache overhead dominate.
//
// The smoke scale is a seconds-long miniature of each workload, used for
// the recorded default-seed digests checked on every run, as the layer
// probes of the traced pass, and by the benchmark's own test.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runner/manifest.h"

namespace perfbench {

enum class Scale { kFull, kSmoke };

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// The sweep of `workload` at `scale` for `seed`. Throws
/// std::invalid_argument for an unknown workload name.
econcast::runner::SweepManifest make_manifest(const std::string& workload,
                                              std::uint64_t seed,
                                              Scale scale);

/// True when the workload runs against a half-warm cell cache.
bool uses_cache(const std::string& workload);

/// The cells the cache is pre-warmed with: exactly cells / 2 indices,
/// chosen by a seeded shuffle, in ascending order.
std::vector<std::size_t> warm_half(std::size_t cells, std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
