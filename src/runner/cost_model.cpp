#include "runner/cost_model.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <variant>

namespace econcast::runner {

namespace {

struct UnitVisitor {
  double n;  // node count of the cell

  double operator()(const protocol::EconCastParams& p) const {
    // Events scale with N × duration; per-event work carries an extra
    // N-dependent component (toggle and listener-count resampling over
    // neighborhoods), so the aggregate is superlinear. N^1.5 tracks the
    // measured N=25..256 profile well enough for ordering.
    return n * std::sqrt(n) * p.config.duration;
  }
  double operator()(const protocol::TestbedParams& p) const {
    // The firmware loop is ~clique EconCast in real milliseconds.
    return n * std::sqrt(n) * p.duration_ms;
  }
  double operator()(const protocol::PandaParams& p) const {
    return p.simulate ? n * p.duration : 1.0 + n;
  }
  double operator()(const protocol::BirthdayParams& p) const {
    return p.simulate ? n * static_cast<double>(p.slots) : 1.0 + n;
  }
  double operator()(const protocol::P4Params&) const {
    // The (P4) solver iterates over the N-node state space.
    return 1.0 + n * n;
  }
  double operator()(const protocol::OracleParams&) const {
    return 1.0 + n * n;
  }
  double operator()(const protocol::SearchlightParams&) const {
    return 1.0 + n;
  }
};

}  // namespace

double estimate_units(const Scenario& cell) {
  const double n = static_cast<double>(cell.nodes.size());
  return std::visit(UnitVisitor{n}, cell.protocol.params);
}

std::vector<std::size_t> cost_submit_order(const std::vector<double>& units) {
  std::vector<std::size_t> order(units.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (units[a] != units[b]) return units[a] > units[b];
                     return a < b;
                   });
  return order;
}

}  // namespace econcast::runner
