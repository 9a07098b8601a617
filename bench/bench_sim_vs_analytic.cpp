// Reproduces the §VII-A validation claim: the simulated throughput T~^σ of
// the fully-distributed protocol (adaptive multipliers, starting ignorant at
// η = 0) matches the analytical achievable point T^σ from (P4) for
// σ ∈ {0.25, 0.5}, in both modes, and nodes consume at their budgets.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "econcast/simulation.h"
#include "gibbs/p4_solver.h"
#include "oracle/clique_oracle.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace econcast;
  const long scale = bench::knob(argc, argv, 6);
  bench::banner("Sim-vs-analytic", "T~^sigma vs T^sigma (N=5, rho=10uW, L=X=500uW)");

  const auto nodes = model::homogeneous(5, 10.0, 500.0, 500.0);
  util::Table t({"mode", "sigma", "T^s (P4)", "T~^s (sim)", "sim/analytic",
                 "power uW", "final eta / eta*"});
  for (const model::Mode mode : {model::Mode::kGroupput, model::Mode::kAnyput}) {
    for (const double sigma : {0.25, 0.5}) {
      const auto p4 = gibbs::solve_p4(nodes, mode, sigma);
      proto::SimConfig cfg;
      cfg.mode = mode;
      cfg.sigma = sigma;
      cfg.duration = 1e6 * static_cast<double>(scale);
      cfg.warmup = cfg.duration / 3.0;
      cfg.seed = 2016;
      cfg.energy_guard = true;   // physical storage with a small pre-charge:
      cfg.initial_energy = 5e5;  // steady state matches the unbounded model
      proto::Simulation sim(nodes, model::Topology::clique(5), cfg);
      const auto r = sim.run();
      const double measured =
          mode == model::Mode::kGroupput ? r.groupput : r.anyput;
      double power = 0.0;
      for (const double p : r.avg_power) power += p;
      power /= static_cast<double>(r.avg_power.size());
      t.add_row();
      t.add_cell(model::to_string(mode));
      t.add_cell(sigma, 2);
      t.add_cell(p4.throughput, 5);
      t.add_cell(measured, 5);
      t.add_cell(measured / p4.throughput, 3);
      t.add_cell(power, 2);
      t.add_cell(r.final_eta[0] / p4.eta[0], 3);
    }
  }
  t.print(std::cout, "adaptive protocol vs (P4) prediction");
  std::printf(
      "\npaper: \"simulation results show that T~^sigma perfectly matches\n"
      "       T^sigma for sigma in {0.25, 0.5}\" and \"nodes running EconCast\n"
      "       consume power on average at the rate of their power budgets\".\n");
  return 0;
}
