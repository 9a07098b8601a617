// Exact Gibbs distribution (19) over the full collision-free state space W
// for an arbitrary heterogeneous clique, |W| = (N+2) 2^(N-1); practical for
// N <= 16, which covers every heterogeneous experiment in the paper
// (N = 5, 10).
//
//   π^η_w  ∝  exp[ (T_w - Σ_{i: w_i=l} η_i L_i - Σ_{i: w_i=x} η_i X_i) / σ ]
//
// Cost: the constructor builds one table of W (listener mask and
// transmitter, 4 bytes per state: 448 B at N = 5, 2.3 MB at N = 16) once
// per instance. Evaluating an η is one O(|W| * N) pass over that table into
// a caller-owned log-weight buffer (8 bytes per state) that also yields
// log Z_η; the moments are then one exp pass over the stored weights. The
// instance holds no mutable state, so one ExactGibbs may be shared across
// threads as long as each caller owns its buffer.
#ifndef ECONCAST_GIBBS_EXACT_H
#define ECONCAST_GIBBS_EXACT_H

#include <cstdint>
#include <vector>

#include "gibbs/marginals.h"
#include "model/node_params.h"
#include "model/state_space.h"

namespace econcast::gibbs {

class ExactGibbs {
 public:
  /// σ is the paper's temperature parameter (> 0).
  ExactGibbs(model::NodeSet nodes, model::Mode mode, double sigma);

  std::size_t num_nodes() const noexcept { return nodes_.size(); }
  double sigma() const noexcept { return sigma_; }
  model::Mode mode() const noexcept { return mode_; }
  const model::NodeSet& nodes() const noexcept { return nodes_; }

  /// Log-weight (unnormalized) of a single state at multipliers η.
  double log_weight(const model::NetState& state,
                    const std::vector<double>& eta) const;

  /// One evaluation pass: resizes `weights` to |W|, fills it with every
  /// state's log-weight at η in model::for_each_state order (which is also
  /// model::state_index order) and returns log Z_η.
  double log_weights(const std::vector<double>& eta,
                     std::vector<double>& weights) const;

  /// All moments of π^η: one `log_weights` pass plus one exp pass.
  Marginals marginals(const std::vector<double>& eta) const;

  /// The moments from a pass `log_weights` already made (`log_z` is its
  /// return value), without re-evaluating the weights.
  Marginals marginals(const std::vector<double>& weights,
                      double log_z) const;

  /// Burst-state sums for eq. (34)/(35).
  BurstSums burst_sums(const std::vector<double>& eta) const;

  /// Full probability vector indexed by model::state_index (tests / small N).
  std::vector<double> distribution(const std::vector<double>& eta) const;

  /// Dual function D(η) = σ log Z_η + Σ_i η_i ρ_i (minimized over η >= 0 to
  /// solve (P4); see §VI part (ii)).
  double dual_value(const std::vector<double>& eta) const;

  /// D(η) from the log Z_η a `log_weights` pass at η returned.
  double dual_value(const std::vector<double>& eta, double log_z) const;

  /// ∇D: grad_i = ρ_i - (α_i L_i + β_i X_i), eq. (22).
  std::vector<double> dual_gradient(const std::vector<double>& eta) const;

 private:
  /// One row of W: who listens, and who transmits (-1: nobody).
  struct StateRow {
    std::uint16_t listeners;
    std::int16_t transmitter;
  };
  static_assert(sizeof(StateRow) == 4);

  void check_eta(const std::vector<double>& eta) const;
  double throughput(const StateRow& row) const noexcept;

  model::NodeSet nodes_;
  model::Mode mode_;
  double sigma_;
  std::vector<StateRow> states_;  // W in model::for_each_state order
};

}  // namespace econcast::gibbs

#endif  // ECONCAST_GIBBS_EXACT_H
