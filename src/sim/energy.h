// Lazy-evaluated energy storage for a node population: per node,
// level(t) = level(t0) + (harvest - draw)·(t-t0) between change points. This
// is the paper's unbounded virtual battery b_i(t) (§VII); the simulator's
// optional energy guard (SimConfig::energy_guard) is what models a physical
// floor, by reading the level, not by bounding it here.
#ifndef ECONCAST_SIM_ENERGY_H
#define ECONCAST_SIM_ENERGY_H

#include <cstddef>

#include "sim/arena.h"

namespace econcast::sim {

/// One storage slot per node, struct-of-arrays: the balances live in parallel
/// (optionally arena-backed) arrays, so the simulation inner loops touch one
/// dense double per node. Slots are independent; calls on one never move
/// another.
class EnergyLedger {
 public:
  explicit EnergyLedger(Arena* arena = nullptr);

  void reserve(std::size_t n);
  /// Appends a node with harvest rate ρ (its power budget) and level b(0);
  /// returns its index.
  std::size_t add(double harvest_rate, double initial_level);
  std::size_t size() const noexcept { return harvest_.size(); }

  /// Changes the instantaneous draw (state change). Settles the balance
  /// first; `now` must be non-decreasing across calls on the same slot.
  void set_draw(std::size_t i, double draw, double now) noexcept;

  /// Storage level at `now` (>= last settle point).
  double level(std::size_t i, double now) const noexcept;

  /// Total energy consumed (integral of draw) up to `now`.
  double consumed(std::size_t i, double now) const noexcept;

 private:
  ArenaVector<double> harvest_;
  ArenaVector<double> draw_;
  ArenaVector<double> level_;
  ArenaVector<double> consumed_;
  ArenaVector<double> last_;
};

}  // namespace econcast::sim

#endif  // ECONCAST_SIM_ENERGY_H
