// Reproduces Fig. 7 (testbed emulation): experimental EconCast-C groupput
// normalized to the achievable throughput computed from the target budget
// ("Ideal", T~/T^σ) and from the actual measured consumption ("Relaxed",
// T~/T̄^σ), plus the virtual-battery variance markers, for
// N ∈ {5, 10} x ρ ∈ {1, 5} mW x σ ∈ {0.25, 0.5} on the emulated
// TI eZ430-RF2500-SEH nodes (see DESIGN.md §5 for the substitution).
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "gibbs/p4_solver.h"
#include "testbed/firmware.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace econcast;
  const long hours = bench::knob(argc, argv, 12);
  bench::banner("Figure 7", "testbed emulation: ideal/relaxed ratios + battery variance");
  std::printf("emulated duration per point: %ld h (paper: up to 24 h)\n\n",
              hours);

  util::Table t({"N", "rho mW", "sigma", "T~ (x1e-3)", "Ideal T~/T^s",
                 "Relaxed", "P mW", "battery min/mean/max"});
  for (const std::size_t n : {5u, 10u}) {
    for (const double rho : {1.0, 5.0}) {
      for (const double sigma : {0.25, 0.5}) {
        testbed::TestbedConfig cfg;
        cfg.n = n;
        cfg.budget_mw = rho;
        cfg.sigma = sigma;
        cfg.duration_ms = static_cast<double>(hours) * 3600e3;
        cfg.warmup_ms = cfg.duration_ms / 3.0;
        cfg.seed = 1000 + n * 10 + static_cast<std::uint64_t>(rho);
        const auto r = testbed::run_testbed(cfg);

        const auto nodes = model::homogeneous(
            n, rho, cfg.hw.listen_power_mw, cfg.hw.transmit_power_mw);
        const double t_ideal =
            gibbs::solve_p4(nodes, model::Mode::kGroupput, sigma).throughput;
        double p_actual = 0.0;
        for (const double p : r.actual_power_mw) p_actual += p;
        p_actual /= static_cast<double>(n);
        const auto relaxed_nodes = model::homogeneous(
            n, p_actual, cfg.hw.listen_power_mw, cfg.hw.transmit_power_mw);
        const double t_relaxed =
            gibbs::solve_p4(relaxed_nodes, model::Mode::kGroupput, sigma)
                .throughput;

        t.add_row();
        t.add_cell(static_cast<std::int64_t>(n));
        t.add_cell(rho, 0);
        t.add_cell(sigma, 2);
        t.add_cell(r.groupput * 1e3, 2);
        t.add_cell(r.groupput / t_ideal, 3);
        t.add_cell(r.groupput / t_relaxed, 3);
        t.add_cell(p_actual, 3);
        t.add_cell(util::format_double(r.battery_ratio_min, 3) + "/" +
                   util::format_double(r.battery_ratio_mean, 3) + "/" +
                   util::format_double(r.battery_ratio_max, 3));
      }
    }
  }
  t.print(std::cout, "Fig. 7 — testbed emulation");
  std::printf(
      "\npaper: Ideal (rho-normalized) ratios 67-81%%, Relaxed (P-normalized)\n"
      "       57-77%% across all settings (Relaxed < Ideal since P > rho);\n"
      "       actual power P exceeds rho by ~11%% (1 mW) and ~4%% (5 mW);\n"
      "       battery ratios within 7%% (sigma=0.25) / 3%% (sigma=0.5).\n");
  return 0;
}
