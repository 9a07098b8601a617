#include "runner/sweep_spec.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "model/node_params.h"
#include "util/random.h"

namespace econcast::runner {

namespace {

/// Shortest exact-enough rendering for axis values in scenario names (%g
/// gives "0.5", "10", "1.5e+06" — stable across platforms for these scales).
std::string format_value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

template <typename T>
void require_nonempty(const std::vector<T>& axis, const char* what) {
  if (axis.empty())
    throw std::invalid_argument(std::string("sweep axis '") + what +
                                "' must not be empty");
}

/// Side length of a square grid with n nodes, or 0 when n is not a perfect
/// square.
std::size_t grid_side(std::size_t n) {
  std::size_t k = 0;
  while ((k + 1) * (k + 1) <= n) ++k;
  return k * k == n ? k : 0;
}

}  // namespace

std::vector<PowerPoint> power_ratio_axis(const std::vector<double>& ratios,
                                         double budget, double total) {
  std::vector<PowerPoint> points;
  points.reserve(ratios.size());
  for (const double r : ratios) {
    if (!(r > 0.0))
      throw std::invalid_argument("power_ratio_axis: X/L ratios must be > 0");
    const double x = total * r / (1.0 + r);
    points.push_back({budget, total - x, x});
  }
  return points;
}

SweepSpec::SweepSpec(std::string name) : name_(std::move(name)) {
  protocols_.push_back(protocol::econcast_spec(proto::SimConfig{}));
}

SweepSpec& SweepSpec::protocols(std::vector<protocol::ProtocolSpec> specs) {
  require_nonempty(specs, "protocols");
  protocols_ = std::move(specs);
  return *this;
}

SweepSpec& SweepSpec::modes(std::vector<model::Mode> modes) {
  require_nonempty(modes, "modes");
  modes_ = std::move(modes);
  return *this;
}

SweepSpec& SweepSpec::node_counts(std::vector<std::size_t> counts) {
  require_nonempty(counts, "node_counts");
  node_counts_ = std::move(counts);
  return *this;
}

SweepSpec& SweepSpec::powers(std::vector<PowerPoint> points) {
  require_nonempty(points, "powers");
  powers_ = std::move(points);
  return *this;
}

SweepSpec& SweepSpec::sigmas(std::vector<double> sigmas) {
  require_nonempty(sigmas, "sigmas");
  sigmas_ = std::move(sigmas);
  return *this;
}

SweepSpec& SweepSpec::replicates(std::size_t count) {
  if (count == 0)
    throw std::invalid_argument("sweep replicates must be >= 1");
  replicates_ = count;
  return *this;
}

SweepSpec& SweepSpec::topology(const std::string& kind) {
  if (kind == "edge_list")
    throw std::invalid_argument(
        "topology kind 'edge_list' needs the explicit graph — use "
        "topology(n, edges)");
  if (kind != "clique" && kind != "line" && kind != "ring" && kind != "grid")
    throw std::invalid_argument("unknown topology kind '" + kind + "'");
  topology_kind_ = kind;
  edge_list_nodes_ = 0;
  edge_list_.clear();
  return *this;
}

SweepSpec& SweepSpec::topology(std::size_t n, EdgeList edges) {
  // Build once so bad edges surface at set time, not at expand time.
  (void)model::Topology::from_edges(n, edges);
  topology_kind_ = "edge_list";
  edge_list_nodes_ = n;
  edge_list_ = std::move(edges);
  return *this;
}

SweepSpec& SweepSpec::node_set(const std::string& kind) {
  if (kind == "sampled")
    throw std::invalid_argument(
        "node_set kind 'sampled' needs its h axis and seed — use "
        "sampled_node_set(h_values, sample_seed)");
  if (kind != "homogeneous")
    throw std::invalid_argument("unknown node_set kind '" + kind + "'");
  node_set_kind_ = kind;
  heterogeneity_ = {10.0};
  return *this;
}

SweepSpec& SweepSpec::sampled_node_set(std::vector<double> h_values,
                                       std::uint64_t sample_seed) {
  require_nonempty(h_values, "heterogeneity");
  node_set_kind_ = "sampled";
  heterogeneity_ = std::move(h_values);
  sample_seed_ = sample_seed;
  return *this;
}

void SweepSpec::validate() const {
  // Non-finite axis values would serialize as null (see util::json::dump)
  // and only fail at reload, far from the cause — reject them here, which
  // the manifest codec runs at write time as well as parse time.
  for (const double s : sigmas_)
    if (!std::isfinite(s))
      throw std::invalid_argument(
          "sweep '" + name_ + "': sigma axis contains a non-finite value");
  for (const PowerPoint& p : powers_)
    if (!std::isfinite(p.budget) || !std::isfinite(p.listen_power) ||
        !std::isfinite(p.transmit_power))
      throw std::invalid_argument(
          "sweep '" + name_ + "': power axis contains a non-finite value");
  if (topology_kind_ == "grid") {
    for (const std::size_t n : node_counts_)
      if (grid_side(n) == 0)
        throw std::invalid_argument(
            "sweep '" + name_ + "': grid topology requires perfect-square "
            "node counts, but the node_counts axis contains " +
            std::to_string(n));
  }
  if (topology_kind_ == "edge_list") {
    for (const std::size_t n : node_counts_)
      if (n != edge_list_nodes_)
        throw std::invalid_argument(
            "sweep '" + name_ + "': edge_list topology has " +
            std::to_string(edge_list_nodes_) +
            " nodes, but the node_counts axis contains " + std::to_string(n));
  }
  if (node_set_kind_ == "sampled") {
    for (const double h : heterogeneity_)
      if (!(h >= 10.0 && h <= 250.0))  // also rejects NaN
        throw std::invalid_argument(
            "sweep '" + name_ + "': sampled node sets require h in "
            "[10, 250], but the heterogeneity axis contains " +
            format_value(h));
    // Sampled networks take every node parameter from the §VII-B draw and
    // ignore the power point entirely, so a multi-power sampled sweep would
    // run bitwise-duplicate cells under names claiming distinct ρ/L/X.
    if (powers_.size() > 1)
      throw std::invalid_argument(
          "sweep '" + name_ + "': sampled node sets ignore the power point, "
          "so the power axis must hold a single entry (got " +
          std::to_string(powers_.size()) + ")");
  }
}

std::size_t SweepSpec::cell_count() const noexcept {
  return protocols_.size() * modes_.size() * node_counts_.size() *
         powers_.size() * heterogeneity_.size() * sigmas_.size() *
         replicates_;
}

std::size_t SweepSpec::cell_index(std::size_t protocol_i, std::size_t mode_i,
                                  std::size_t node_i, std::size_t power_i,
                                  std::size_t h_i, std::size_t sigma_i,
                                  std::size_t replicate) const {
  if (protocol_i >= protocols_.size() || mode_i >= modes_.size() ||
      node_i >= node_counts_.size() || power_i >= powers_.size() ||
      h_i >= heterogeneity_.size() || sigma_i >= sigmas_.size() ||
      replicate >= replicates_)
    throw std::out_of_range("SweepSpec::cell_index: axis index out of range");
  return (((((protocol_i * modes_.size() + mode_i) * node_counts_.size() +
             node_i) *
                powers_.size() +
            power_i) *
               heterogeneity_.size() +
           h_i) *
              sigmas_.size() +
          sigma_i) *
             replicates_ +
         replicate;
}

model::Topology SweepSpec::make_topology(std::size_t n) const {
  if (topology_kind_ == "line") return model::Topology::line(n);
  if (topology_kind_ == "ring") return model::Topology::ring(n);
  if (topology_kind_ == "grid") {
    const std::size_t k = grid_side(n);
    return model::Topology::grid(k, k);
  }
  if (topology_kind_ == "edge_list")
    return model::Topology::from_edges(edge_list_nodes_, edge_list_);
  return model::Topology::clique(n);
}

std::vector<Scenario> SweepSpec::expand() const {
  validate();
  const bool sampled = node_set_kind_ == "sampled";
  // The sampled streams depend only on (n, h) — one network per replicate,
  // keyed on h alone so every (protocol, mode, power, σ) cell at
  // (h, replicate) sees the identical network. Drawn once, outside the
  // protocol/mode/power loops.
  std::vector<std::vector<std::vector<model::NodeSet>>> sampled_nodes;
  if (sampled) {
    sampled_nodes.resize(node_counts_.size());
    for (std::size_t n_i = 0; n_i < node_counts_.size(); ++n_i) {
      sampled_nodes[n_i].reserve(heterogeneity_.size());
      for (const double h : heterogeneity_) {
        util::Rng rng(derive_seed(sample_seed_,
                                  static_cast<std::uint64_t>(h)));
        sampled_nodes[n_i].push_back(model::sample_heterogeneous_batch(
            node_counts_[n_i], h, replicates_, rng));
      }
    }
  }
  std::vector<Scenario> batch;
  batch.reserve(cell_count());
  for (const protocol::ProtocolSpec& spec : protocols_) {
    for (const model::Mode mode : modes_) {
      for (std::size_t n_i = 0; n_i < node_counts_.size(); ++n_i) {
        const std::size_t n = node_counts_[n_i];
        const model::Topology topology = make_topology(n);
        for (const PowerPoint& power : powers_) {
          for (std::size_t h_i = 0; h_i < heterogeneity_.size(); ++h_i) {
            const double h = heterogeneity_[h_i];
            model::NodeSet shared_nodes;
            if (!sampled) {
              shared_nodes = model::homogeneous(n, power.budget,
                                                power.listen_power,
                                                power.transmit_power);
            }
            for (const double sigma : sigmas_) {
              const protocol::ProtocolSpec cell_spec =
                  protocol::specialized(spec, mode, sigma);
              std::string cell_name = name_ + "/" + spec.name + "/" +
                                      model::to_string(mode) + "/N" +
                                      std::to_string(n) + "/rho" +
                                      format_value(power.budget) + "_L" +
                                      format_value(power.listen_power) + "_X" +
                                      format_value(power.transmit_power);
              if (sampled) cell_name += "/h" + format_value(h);
              cell_name += "/s" + format_value(sigma);
              for (std::size_t rep = 0; rep < replicates_; ++rep) {
                std::string scenario_name = cell_name;
                if (replicates_ > 1)
                  scenario_name += "/r" + std::to_string(rep);
                batch.push_back(Scenario{
                    std::move(scenario_name),
                    sampled ? sampled_nodes[n_i][h_i][rep] : shared_nodes,
                    topology, cell_spec});
              }
            }
          }
        }
      }
    }
  }
  return batch;
}

}  // namespace econcast::runner
