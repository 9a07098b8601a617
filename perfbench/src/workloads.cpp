#include "workloads.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "econcast/simulation.h"
#include "protocol/protocol.h"
#include "runner/scenario_runner.h"
#include "runner/sweep_spec.h"
#include "util/random.h"

namespace perfbench {

namespace runner = econcast::runner;
namespace protocol = econcast::protocol;
namespace model = econcast::model;

namespace {

// Fig. 6's simulation set-up: a 40% warmup and the energy guard with a
// storage head start, so the multipliers adapt from zero without the
// unbounded captures small sigma allows otherwise.
econcast::proto::SimConfig des_config(double duration) {
  econcast::proto::SimConfig config;
  config.duration = duration;
  config.warmup = 0.4 * duration;
  config.energy_guard = true;
  config.initial_energy = 5e5;
  return config;
}

runner::SweepManifest grid_des(std::uint64_t seed, Scale scale) {
  const bool full = scale == Scale::kFull;
  runner::SweepSpec spec("grid-des");
  spec.protocols({protocol::econcast_spec(des_config(full ? 7.5e4 : 5e4))})
      .topology("grid")
      .node_counts(full ? std::vector<std::size_t>{100, 256}
                        : std::vector<std::size_t>{16, 36})
      .sigmas(full ? std::vector<double>{0.25, 0.5, 0.75}
                   : std::vector<double>{0.5})
      .replicates(full ? 4 : 1);
  return runner::SweepManifest(std::move(spec), seed);
}

runner::SweepManifest clique_des(std::uint64_t seed, Scale scale) {
  const bool full = scale == Scale::kFull;
  runner::SweepSpec spec("clique-des");
  spec.protocols({protocol::econcast_spec(des_config(full ? 1.25e5 : 5e4))})
      .node_counts(full ? std::vector<std::size_t>{16, 36, 64, 100}
                        : std::vector<std::size_t>{16})
      .sigmas(full ? std::vector<double>{0.25, 0.5, 0.75}
                   : std::vector<double>{0.25, 0.75})
      .replicates(full ? 4 : 1);
  return runner::SweepManifest(std::move(spec), seed);
}

runner::SweepManifest fig2_halfwarm(std::uint64_t seed, Scale scale) {
  const bool full = scale == Scale::kFull;
  runner::SweepSpec spec("fig2-halfwarm");
  spec.protocols({protocol::p4_spec(model::Mode::kGroupput, 0.5),
                  protocol::oracle_spec(model::Mode::kGroupput)})
      .modes({model::Mode::kGroupput, model::Mode::kAnyput})
      .sigmas({0.1, 0.25, 0.5})
      .replicates(full ? 30 : 2)
      .sampled_node_set({10.0, 50.0, 100.0, 150.0, 200.0, 250.0},
                        runner::derive_seed(seed, 0xF162));
  return runner::SweepManifest(std::move(spec), seed);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"grid-des", "clique-des",
                                              "fig2-halfwarm"};
  return names;
}

runner::SweepManifest make_manifest(const std::string& workload,
                                    std::uint64_t seed, Scale scale) {
  if (workload == "grid-des") return grid_des(seed, scale);
  if (workload == "clique-des") return clique_des(seed, scale);
  if (workload == "fig2-halfwarm") return fig2_halfwarm(seed, scale);
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

bool uses_cache(const std::string& workload) {
  return workload == "fig2-halfwarm";
}

std::vector<std::size_t> warm_half(std::size_t cells, std::uint64_t seed) {
  std::vector<std::size_t> order(cells);
  std::iota(order.begin(), order.end(), std::size_t{0});
  econcast::util::Rng rng(runner::derive_seed(seed, 0xCAC4E));
  for (std::size_t i = cells; i > 1; --i)
    std::swap(order[i - 1], order[rng.uniform_int(i)]);
  order.resize(cells / 2);
  std::sort(order.begin(), order.end());
  return order;
}

}  // namespace perfbench
