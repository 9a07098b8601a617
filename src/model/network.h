// Network topology: which nodes hear each other. The paper analyzes cliques
// (§III-C) and evaluates grids (§VII-E); the simulator and the non-clique
// oracle bounds work on arbitrary undirected graphs.
#ifndef ECONCAST_MODEL_NETWORK_H
#define ECONCAST_MODEL_NETWORK_H

#include <cstddef>
#include <utility>
#include <vector>

#include "util/random.h"

namespace econcast::model {

class Topology {
 public:
  /// All-pairs connectivity (the paper's main analytical setting).
  static Topology clique(std::size_t n);

  /// rows x cols grid, 4-neighborhood (the §VII-E evaluation topology).
  static Topology grid(std::size_t rows, std::size_t cols);

  /// Path 0-1-2-...-(n-1).
  static Topology line(std::size_t n);

  /// Cycle of n >= 3 nodes.
  static Topology ring(std::size_t n);

  /// Erdős–Rényi G(n, p) conditioned on no isolated node (retries until the
  /// sampled graph has minimum degree >= 1; p must make that likely).
  static Topology random_gnp(std::size_t n, double p, util::Rng& rng);

  /// Arbitrary undirected graph from an edge list (self-loops rejected).
  static Topology from_edges(std::size_t n,
                             const std::vector<std::pair<std::size_t, std::size_t>>& edges);

  std::size_t size() const noexcept { return n_; }
  bool adjacent(std::size_t i, std::size_t j) const;
  const std::vector<std::size_t>& neighbors(std::size_t i) const;
  std::size_t degree(std::size_t i) const { return neighbors(i).size(); }

  bool is_clique() const noexcept;
  std::size_t edge_count() const noexcept;
  /// Every undirected edge once, as (i, j) pairs with i < j in ascending
  /// order — the inverse of from_edges up to edge ordering (serializers and
  /// edge-list sweep builders rely on this canonical form).
  std::vector<std::pair<std::size_t, std::size_t>> edges() const;

 private:
  explicit Topology(std::size_t n);
  void add_edge(std::size_t i, std::size_t j);
  void finalize();

  std::size_t n_ = 0;
  std::vector<std::vector<std::size_t>> adj_;   // sorted neighbor lists
  std::vector<bool> matrix_;                    // n x n adjacency for O(1) tests
};

}  // namespace econcast::model

#endif  // ECONCAST_MODEL_NETWORK_H
