#include "model/network.h"

#include <algorithm>
#include <stdexcept>

namespace econcast::model {

Topology::Topology(std::size_t n) : n_(n), adj_(n), matrix_(n * n, false) {
  if (n == 0) throw std::invalid_argument("Topology with zero nodes");
}

void Topology::add_edge(std::size_t i, std::size_t j) {
  if (i >= n_ || j >= n_) throw std::out_of_range("edge endpoint");
  if (i == j) throw std::invalid_argument("self-loop");
  if (matrix_[i * n_ + j]) return;  // ignore duplicates
  matrix_[i * n_ + j] = matrix_[j * n_ + i] = true;
  adj_[i].push_back(j);
  adj_[j].push_back(i);
}

void Topology::finalize() {
  for (auto& list : adj_) std::sort(list.begin(), list.end());
}

Topology Topology::clique(std::size_t n) {
  Topology t(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) t.add_edge(i, j);
  t.finalize();
  return t;
}

Topology Topology::grid(std::size_t rows, std::size_t cols) {
  if (rows == 0 || cols == 0) throw std::invalid_argument("empty grid");
  Topology t(rows * cols);
  auto id = [cols](std::size_t r, std::size_t c) { return r * cols + c; };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) t.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) t.add_edge(id(r, c), id(r + 1, c));
    }
  }
  t.finalize();
  return t;
}

Topology Topology::line(std::size_t n) {
  Topology t(n);
  for (std::size_t i = 0; i + 1 < n; ++i) t.add_edge(i, i + 1);
  t.finalize();
  return t;
}

Topology Topology::ring(std::size_t n) {
  if (n < 3) throw std::invalid_argument("ring needs >= 3 nodes");
  Topology t(n);
  for (std::size_t i = 0; i < n; ++i) t.add_edge(i, (i + 1) % n);
  t.finalize();
  return t;
}

Topology Topology::random_gnp(std::size_t n, double p, util::Rng& rng) {
  if (n < 2) throw std::invalid_argument("random_gnp needs >= 2 nodes");
  for (int attempt = 0; attempt < 1000; ++attempt) {
    Topology t(n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        if (rng.bernoulli(p)) t.add_edge(i, j);
    const bool no_isolated = std::all_of(
        t.adj_.begin(), t.adj_.end(),
        [](const std::vector<std::size_t>& a) { return !a.empty(); });
    if (no_isolated) {
      t.finalize();
      return t;
    }
  }
  throw std::runtime_error("random_gnp: could not avoid isolated nodes");
}

Topology Topology::from_edges(
    std::size_t n,
    const std::vector<std::pair<std::size_t, std::size_t>>& edges) {
  Topology t(n);
  for (const auto& [i, j] : edges) t.add_edge(i, j);
  t.finalize();
  return t;
}

bool Topology::adjacent(std::size_t i, std::size_t j) const {
  if (i >= n_ || j >= n_) throw std::out_of_range("adjacent index");
  return matrix_[i * n_ + j];
}

const std::vector<std::size_t>& Topology::neighbors(std::size_t i) const {
  if (i >= n_) throw std::out_of_range("neighbors index");
  return adj_[i];
}

bool Topology::is_clique() const noexcept {
  for (std::size_t i = 0; i < n_; ++i)
    if (adj_[i].size() != n_ - 1) return false;
  return true;
}

std::size_t Topology::edge_count() const noexcept {
  std::size_t deg_sum = 0;
  for (const auto& a : adj_) deg_sum += a.size();
  return deg_sum / 2;
}

std::vector<std::pair<std::size_t, std::size_t>> Topology::edges() const {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  out.reserve(edge_count());
  for (std::size_t i = 0; i < n_; ++i)
    for (const std::size_t j : adj_[i])
      if (i < j) out.emplace_back(i, j);
  return out;
}

}  // namespace econcast::model
