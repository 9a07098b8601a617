#include "sim/energy.h"

namespace econcast::sim {

EnergyLedger::EnergyLedger(Arena* arena)
    : harvest_(ArenaAllocator<double>(arena)),
      draw_(ArenaAllocator<double>(arena)),
      level_(ArenaAllocator<double>(arena)),
      consumed_(ArenaAllocator<double>(arena)),
      last_(ArenaAllocator<double>(arena)) {}

void EnergyLedger::reserve(std::size_t n) {
  harvest_.reserve(n);
  draw_.reserve(n);
  level_.reserve(n);
  consumed_.reserve(n);
  last_.reserve(n);
}

std::size_t EnergyLedger::add(double harvest_rate, double initial_level) {
  const std::size_t i = harvest_.size();
  harvest_.push_back(harvest_rate);
  draw_.push_back(0.0);
  level_.push_back(initial_level);
  consumed_.push_back(0.0);
  last_.push_back(0.0);
  return i;
}

void EnergyLedger::set_draw(std::size_t i, double draw, double now) noexcept {
  const double dt = now - last_[i];
  if (dt > 0.0) {
    level_[i] += (harvest_[i] - draw_[i]) * dt;
    consumed_[i] += draw_[i] * dt;
    last_[i] = now;
  }
  draw_[i] = draw;
}

void EnergyLedger::charge(std::size_t i, double energy) noexcept {
  level_[i] -= energy;
  consumed_[i] += energy;
}

double EnergyLedger::level(std::size_t i, double now) const noexcept {
  const double dt = now - last_[i];
  return level_[i] + (harvest_[i] - draw_[i]) * dt;
}

double EnergyLedger::consumed(std::size_t i, double now) const noexcept {
  const double dt = now - last_[i];
  return consumed_[i] + (dt > 0.0 ? draw_[i] * dt : 0.0);
}

}  // namespace econcast::sim
