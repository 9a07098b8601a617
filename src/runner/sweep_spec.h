// Declarative sweep descriptions for ScenarioRunner.
//
// The paper's figures are cross-products: (N, σ, X/L, mode) cells, each
// evaluated for several protocols. SweepSpec captures that shape directly —
// set the axes, call expand(), and get a deterministically ordered,
// deterministically named scenario batch that one ScenarioRunner::run call
// executes across all cores under the derive_seed contract. Because each
// cell carries a protocol::ProtocolSpec, one sweep can mix EconCast, the
// analytic baselines and custom protocols in a single batch.
//
// Expansion order (fixed, documented, and relied on by cell_index):
//   protocol (outermost) → mode → node count → power point → heterogeneity h
//   → σ → replicate.
// Axes left unset contribute their single default value, so the expansion —
// and therefore every scenario's derived seed — depends only on the spec.
// The heterogeneity axis exists only for the "sampled" node-set kind (the
// paper's Fig. 2 x-axis); for every other node-set kind it stays at its
// single default value and contributes nothing to cell names.
#ifndef ECONCAST_RUNNER_SWEEP_SPEC_H
#define ECONCAST_RUNNER_SWEEP_SPEC_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "model/network.h"
#include "model/state_space.h"
#include "protocol/protocol.h"
#include "runner/scenario_runner.h"

namespace econcast::runner {

/// One (ρ, L, X) power setting; the default is the paper's §VII operating
/// point (ρ = 10 µW, L = X = 500 µW).
struct PowerPoint {
  double budget = 10.0;
  double listen_power = 500.0;
  double transmit_power = 500.0;
};

/// The paper's Fig. 3 x-axis: X/L ratios at constant L + X. Returns power
/// points with listen + transmit = `total` and the given X/L ratios.
std::vector<PowerPoint> power_ratio_axis(const std::vector<double>& ratios,
                                         double budget, double total);

/// An undirected graph as data: node count + edge list. The serializable
/// topology form for graphs that no named kind covers.
using EdgeList = std::vector<std::pair<std::size_t, std::size_t>>;

class SweepSpec {
 public:
  explicit SweepSpec(std::string name);

  // Axis setters (builder style). Each replaces the axis wholesale; empty
  // vectors are rejected (an axis always has at least one value).
  SweepSpec& protocols(std::vector<protocol::ProtocolSpec> specs);
  SweepSpec& modes(std::vector<model::Mode> modes);
  SweepSpec& node_counts(std::vector<std::size_t> counts);
  SweepSpec& powers(std::vector<PowerPoint> points);
  SweepSpec& sigmas(std::vector<double> sigmas);
  SweepSpec& replicates(std::size_t count);

  /// Topology by name (default: "clique"): "clique", "line", "ring", or
  /// "grid" (square grids; node counts must be perfect squares — validate()
  /// checks). Throws std::invalid_argument for unknown kinds.
  SweepSpec& topology(const std::string& kind);

  /// Explicit graph topology ("edge_list" kind): every cell runs on exactly
  /// this graph, so the node-count axis must be the single value `n`
  /// (validate() checks). Throws std::invalid_argument on bad edges.
  SweepSpec& topology(std::size_t n, EdgeList edges);

  /// Node-set generator by name: "homogeneous" (the default:
  /// model::homogeneous at each power point; also resets the heterogeneity
  /// axis). The "sampled" kind needs
  /// its h axis and seed, so it is set via sampled_node_set. Throws
  /// std::invalid_argument for unknown kinds.
  SweepSpec& node_set(const std::string& kind);

  /// The §VII-B heterogeneous sampling process as a node-set generator
  /// (kind "sampled") with `h_values` as a sweep axis (each in [10, 250])
  /// and `sample_seed` as the sampling seed. For every (node count, power,
  /// h) the networks of all replicates are drawn from one Rng stream seeded
  /// with derive_seed(sample_seed, (uint64_t)h), replicate r taking the r-th
  /// draw. Every (protocol, mode, σ) cell therefore sees the identical
  /// network at a given (h, replicate) — the paired-sampling design of the
  /// paper's Fig. 2, which keeps σ comparisons free of sampling noise. The
  /// stream key truncates h to an integer, so non-integral h values closer
  /// than 1 apart would share a stream; the paper's h grid is integral.
  /// Sampled networks take every node parameter from the draw, so the power
  /// axis must stay at its single entry (validate() rejects more).
  SweepSpec& sampled_node_set(std::vector<double> h_values,
                              std::uint64_t sample_seed);

  // Accessors for the serialization layer (runner/manifest.h).
  const std::string& name() const noexcept { return name_; }
  const std::vector<protocol::ProtocolSpec>& protocol_axis() const noexcept {
    return protocols_;
  }
  const std::vector<model::Mode>& mode_axis() const noexcept { return modes_; }
  const std::vector<std::size_t>& node_count_axis() const noexcept {
    return node_counts_;
  }
  const std::vector<PowerPoint>& power_axis() const noexcept {
    return powers_;
  }
  const std::vector<double>& sigma_axis() const noexcept { return sigmas_; }
  /// The heterogeneity axis; the single degenerate value {10} unless the
  /// node-set kind is "sampled".
  const std::vector<double>& heterogeneity_axis() const noexcept {
    return heterogeneity_;
  }
  /// Seed of the "sampled" node-set generator (meaningless otherwise).
  std::uint64_t sample_seed() const noexcept { return sample_seed_; }
  std::size_t replicate_count() const noexcept { return replicates_; }
  /// The named topology kind ("clique" when defaulted, "edge_list" for an
  /// explicit graph).
  const std::string& topology_kind() const noexcept { return topology_kind_; }
  /// Node count and edges of an "edge_list" topology (empty otherwise).
  std::size_t edge_list_nodes() const noexcept { return edge_list_nodes_; }
  const EdgeList& edge_list() const noexcept { return edge_list_; }
  /// "homogeneous" (the default) or "sampled".
  const std::string& node_set_kind() const noexcept { return node_set_kind_; }

  /// Cross-axis consistency checks that individual setters cannot make
  /// (setter order is free): "grid" requires perfect-square node counts,
  /// "edge_list" requires the single node count it was built for, "sampled"
  /// requires h ∈ [10, 250]. Throws std::invalid_argument naming the
  /// offending value; called by expand() and the manifest codec.
  void validate() const;

  std::size_t cell_count() const noexcept;

  /// Flat batch index of a cell, mirroring the expansion order. Arguments
  /// index into the respective axes; out-of-range indices throw.
  std::size_t cell_index(std::size_t protocol_i, std::size_t mode_i = 0,
                         std::size_t node_i = 0, std::size_t power_i = 0,
                         std::size_t h_i = 0, std::size_t sigma_i = 0,
                         std::size_t replicate = 0) const;

  /// Expands the cross-product into scenarios. Mode and σ axes are applied
  /// to each protocol's parameters via protocol::specialized (protocols
  /// without those knobs, e.g. Panda, run identically across those axes).
  /// Scenario names encode every axis value:
  ///   <sweep>/<protocol>/<mode>/N<n>/rho<ρ>_L<L>_X<X>[/h<h>]/s<σ>[/r<k>]
  /// (the /h component appears only for the "sampled" node-set kind).
  std::vector<Scenario> expand() const;

 private:
  /// The topology of every cell with `n` nodes (validate() has run).
  model::Topology make_topology(std::size_t n) const;

  std::string name_;
  std::vector<protocol::ProtocolSpec> protocols_;
  std::vector<model::Mode> modes_{model::Mode::kGroupput};
  std::vector<std::size_t> node_counts_{5};
  std::vector<PowerPoint> powers_{PowerPoint{}};
  std::vector<double> sigmas_{0.5};
  std::size_t replicates_ = 1;
  std::string topology_kind_ = "clique";
  std::string node_set_kind_ = "homogeneous";
  /// Degenerate single-h axis unless node_set_kind_ == "sampled". 10 is the
  /// paper's "no heterogeneity" point (§VII-B: h = 10 is homogeneous).
  std::vector<double> heterogeneity_{10.0};
  std::uint64_t sample_seed_ = 1;
  std::size_t edge_list_nodes_ = 0;
  EdgeList edge_list_;
};

}  // namespace econcast::runner

#endif  // ECONCAST_RUNNER_SWEEP_SPEC_H
