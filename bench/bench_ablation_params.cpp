// Ablations for the design choices DESIGN.md calls out (§V-F of the paper):
//   A. σ — throughput vs burstiness tension (the core design dial).
//   B. multiplier step gain and interval τ — "adapting quickly but poorly"
//      vs "optimally but slowly".
//   C. listener-estimate quality — perfect vs thinned pings vs existence.
//   D. capture (EconCast-C) vs non-capture (EconCast-NC).
//   E. energy guard on/off (physical storage vs the idealized model).
//
// All five sections are collected into one ScenarioRunner batch (reseeding
// disabled, so every cell keeps the seed version's fixed seed 8080 and the
// printed numbers match the old sequential implementation) and run in
// parallel before the tables are assembled.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "econcast/simulation.h"
#include "gibbs/burstiness.h"
#include "gibbs/p4_solver.h"
#include "oracle/clique_oracle.h"
#include "runner/scenario_runner.h"
#include "util/table.h"

namespace {

using namespace econcast;

const model::NodeSet& paper_nodes() {
  static const model::NodeSet nodes =
      model::homogeneous(5, 10.0, 500.0, 500.0);
  return nodes;
}

proto::SimConfig base_cfg(double duration) {
  proto::SimConfig cfg;
  cfg.sigma = 0.5;
  cfg.duration = duration;
  cfg.warmup = duration / 3.0;
  cfg.seed = 8080;
  cfg.energy_guard = true;
  cfg.initial_energy = 5e5;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const long scale = bench::knob(argc, argv, 3);
  const double dur = 1e6 * static_cast<double>(scale);
  bench::banner("Ablations", "design-choice sweeps (N=5, rho=10uW, L=X=500uW)");
  const double t_star = oracle::groupput(paper_nodes()).throughput;

  // ---- Collect every section's cells into one batch. --------------------
  std::vector<runner::Scenario> batch;
  const auto add = [&batch](std::string name, const proto::SimConfig& cfg) {
    batch.push_back(runner::econcast_scenario(
        std::move(name), paper_nodes(), model::Topology::clique(5), cfg));
    return batch.size() - 1;
  };

  const double sigmas_a[] = {1.0, 0.75, 0.5, 0.35, 0.25};
  const std::size_t a0 = batch.size();
  for (const double sigma : sigmas_a) {
    proto::SimConfig cfg = base_cfg(dur);
    cfg.sigma = sigma;
    add("A/sigma" + util::format_double(sigma, 2), cfg);
  }

  const double gains_b[] = {0.002, 0.02, 0.2};
  const double taus_b[] = {10.0, 50.0, 500.0};
  const std::size_t b0 = batch.size();
  for (const double gain : gains_b) {
    for (const double tau : taus_b) {
      proto::SimConfig cfg = base_cfg(dur);
      cfg.auto_step_gain = gain;
      cfg.multiplier.tau = tau;
      add("B/gain" + util::format_double(gain, 3) + "_tau" +
              util::format_double(tau, 0),
          cfg);
    }
  }

  struct EstimatorCase {
    const char* name;
    proto::EstimatorConfig est;
  };
  proto::EstimatorConfig thin90, thin50, exist;
  thin90.kind = proto::EstimatorKind::kBinomialThinning;
  thin90.detect_prob = 0.9;
  thin50.kind = proto::EstimatorKind::kBinomialThinning;
  thin50.detect_prob = 0.5;
  exist.kind = proto::EstimatorKind::kExistenceOnly;
  const EstimatorCase cases_c[] = {{"perfect", {}},
                                   {"ping thinning p=0.9", thin90},
                                   {"ping thinning p=0.5", thin50},
                                   {"existence only", exist}};
  const std::size_t c0 = batch.size();
  for (const auto& c : cases_c) {
    proto::SimConfig cfg = base_cfg(dur);
    cfg.estimator = c.est;
    add(std::string("C/") + c.name, cfg);
  }

  const proto::Variant variants_d[] = {proto::Variant::kCapture,
                                       proto::Variant::kNonCapture};
  const std::size_t d0 = batch.size();
  for (const proto::Variant v : variants_d) {
    proto::SimConfig cfg = base_cfg(dur);
    cfg.variant = v;
    add(std::string("D/") + proto::to_string(v), cfg);
  }

  const std::size_t e0 = batch.size();
  for (const bool guard : {false, true}) {
    proto::SimConfig cfg = base_cfg(dur);
    cfg.sigma = 0.25;  // where unbounded storage hurts
    cfg.energy_guard = guard;
    add(std::string("E/guard_") + (guard ? "on" : "off"), cfg);
  }

  const runner::ScenarioRunner pool(
      {/*num_threads=*/0, /*base_seed=*/8080, /*reseed=*/false});
  const runner::BatchResult run = pool.run(batch);
  const auto mean_power = [&run](std::size_t i) {
    double power = 0.0;
    for (const double p : run.results[i].avg_power) power += p;
    return power / static_cast<double>(run.results[i].avg_power.size());
  };

  {  // A: sigma dial.
    util::Table t({"sigma", "T^s/T*", "analytic burst", "p99 latency s"});
    for (std::size_t k = 0; k < std::size(sigmas_a); ++k) {
      const double sigma = sigmas_a[k];
      const auto p4 =
          gibbs::solve_p4(paper_nodes(), model::Mode::kGroupput, sigma);
      const protocol::SimResult& r = run.results[a0 + k];
      t.add_row();
      t.add_cell(sigma, 2);
      t.add_cell(p4.throughput / t_star, 4);
      t.add_cell(util::format_sci(gibbs::average_burst_length(
          paper_nodes(), model::Mode::kGroupput, sigma)));
      t.add_cell(r.latencies.count() > 10
                     ? util::format_double(
                           r.latencies.percentile(0.99) * 1e-3, 1)
                     : std::string("-"));
    }
    t.print(std::cout, "A. sigma: throughput vs burstiness vs latency");
    std::printf("\n");
  }

  {  // B: multiplier step gain x interval.
    util::Table t({"step gain", "tau", "T~/T^s", "power err %"});
    const auto p4 =
        gibbs::solve_p4(paper_nodes(), model::Mode::kGroupput, 0.5);
    for (std::size_t k = 0; k < std::size(gains_b) * std::size(taus_b); ++k) {
      const protocol::SimResult& r = run.results[b0 + k];
      t.add_row();
      t.add_cell(gains_b[k / std::size(taus_b)], 3);
      t.add_cell(taus_b[k % std::size(taus_b)], 0);
      t.add_cell(r.groupput / p4.throughput, 3);
      t.add_cell(100.0 * (mean_power(b0 + k) - 10.0) / 10.0, 2);
    }
    t.print(std::cout,
            "B. adaptation: step gain / interval (quick-but-poor vs "
            "slow-but-optimal, SV-F)");
    std::printf("\n");
  }

  {  // C: estimator quality.
    util::Table t({"estimator", "T~ groupput", "vs perfect"});
    const double perfect_throughput = run.results[c0].groupput;
    for (std::size_t k = 0; k < std::size(cases_c); ++k) {
      const protocol::SimResult& r = run.results[c0 + k];
      t.add_row();
      t.add_cell(cases_c[k].name);
      t.add_cell(r.groupput, 5);
      t.add_cell(r.groupput / perfect_throughput, 3);
    }
    t.print(std::cout, "C. listener-estimate quality (SV-C claim)");
    std::printf("\n");
  }

  {  // D: capture vs non-capture.
    util::Table t({"variant", "T~ groupput", "mean burst", "events"});
    for (std::size_t k = 0; k < std::size(variants_d); ++k) {
      const protocol::SimResult& r = run.results[d0 + k];
      t.add_row();
      t.add_cell(proto::to_string(variants_d[k]));
      t.add_cell(r.groupput, 5);
      t.add_cell(r.burst_lengths.mean(), 2);
      t.add_cell(static_cast<std::int64_t>(r.extra("events_processed")));
    }
    t.print(std::cout, "D. EconCast-C vs EconCast-NC (same stationary law)");
    std::printf("\n");
  }

  {  // E: energy guard.
    util::Table t({"guard", "T~ groupput", "max burst", "power uW"});
    for (std::size_t k = 0; k < 2; ++k) {
      const protocol::SimResult& r = run.results[e0 + k];
      t.add_row();
      t.add_cell(k == 0 ? "off" : "on");
      t.add_cell(r.groupput, 5);
      t.add_cell(util::format_sci(r.burst_lengths.max()));
      t.add_cell(mean_power(e0 + k), 2);
    }
    t.print(std::cout,
            "E. energy guard at sigma=0.25 (physical storage truncates "
            "giant captures)");
  }
  return 0;
}
