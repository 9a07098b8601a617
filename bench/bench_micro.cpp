// Micro-benchmarks (google-benchmark) for the library's hot paths: Gibbs
// evaluation over W, the symmetric collapse, the dual solvers, the LP
// oracle, the event-queue substrate, and the event-driven simulator on
// grids and cliques.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "econcast/simulation.h"
#include "gibbs/exact.h"
#include "gibbs/p4_solver.h"
#include "gibbs/symmetric.h"
#include "model/state_space.h"
#include "oracle/clique_oracle.h"
#include "sim/event_queue.h"
#include "util/random.h"

namespace {

using namespace econcast;

void BM_StateSpaceEnumeration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    std::uint64_t acc = 0;
    model::for_each_state(n, [&](const model::NetState& s) {
      acc += static_cast<std::uint64_t>(s.listener_count());
    });
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(model::state_space_size(n)));
}
BENCHMARK(BM_StateSpaceEnumeration)->Arg(5)->Arg(10)->Arg(14);

void BM_ExactGibbsMarginals(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto nodes = model::homogeneous(n, 10.0, 500.0, 500.0);
  const gibbs::ExactGibbs g(nodes, model::Mode::kGroupput, 0.25);
  const std::vector<double> eta(n, 0.003);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.marginals(eta));
  }
}
BENCHMARK(BM_ExactGibbsMarginals)->Arg(5)->Arg(10)->Arg(14);

void BM_SymmetricGibbsMarginals(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const gibbs::SymmetricGibbs g(n, {10.0, 500.0, 500.0},
                                model::Mode::kGroupput, 0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.marginals(0.003));
  }
}
BENCHMARK(BM_SymmetricGibbsMarginals)->Arg(5)->Arg(50)->Arg(500);

void BM_P4SolveSymmetric(benchmark::State& state) {
  const auto nodes = model::homogeneous(
      static_cast<std::size_t>(state.range(0)), 10.0, 500.0, 500.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gibbs::solve_p4(nodes, model::Mode::kGroupput, 0.25));
  }
}
BENCHMARK(BM_P4SolveSymmetric)->Arg(5)->Arg(10)->Arg(100);

void BM_P4SolveAccelerated(benchmark::State& state) {
  const auto nodes = model::homogeneous(
      static_cast<std::size_t>(state.range(0)), 10.0, 500.0, 500.0);
  gibbs::P4Options opt;
  opt.method = gibbs::P4Method::kAccelerated;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gibbs::solve_p4(nodes, model::Mode::kGroupput, 0.25, opt));
  }
}
BENCHMARK(BM_P4SolveAccelerated)->Arg(5)->Arg(8);

// The path the Fig. 2 sweep actually takes: a heterogeneous N = 5 network
// goes to the accelerated solver (homogeneous ones, as above, take the
// symmetric bisection under the automatic method). One seeded §VII-B
// network per h; Arg 0 is h, Arg 1 is σ in hundredths.
void BM_P4SolveHeterogeneous(benchmark::State& state) {
  util::Rng rng(0xF162000);
  const auto nodes = model::sample_heterogeneous(
      5, static_cast<double>(state.range(0)), rng);
  const double sigma = static_cast<double>(state.range(1)) / 100.0;
  std::size_t iterations = 0;
  for (auto _ : state) {
    const gibbs::P4Result r =
        gibbs::solve_p4(nodes, model::Mode::kGroupput, sigma);
    iterations = r.iterations;
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("solver iterations=" + std::to_string(iterations));
}
BENCHMARK(BM_P4SolveHeterogeneous)->ArgsProduct({{50, 250}, {10, 25, 50}});

void BM_OracleGroupputLP(benchmark::State& state) {
  const auto nodes = model::homogeneous(
      static_cast<std::size_t>(state.range(0)), 10.0, 500.0, 500.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle::groupput(nodes));
  }
}
BENCHMARK(BM_OracleGroupputLP)->Arg(5)->Arg(25)->Arg(100);

// The event-queue push/pop cycle that dominates the simulator's inner loop.
// Arg 0 is the node count N; the queue holds 4N live events (the
// EventQueue::capacity_for_nodes regime), one durable event per node slot.
// The queue is constructed and pre-reserved once, outside the timing loop,
// and pre-filled to its steady-state population — so the measured region is
// pure queue ops rather than allocator churn. Event times advance by
// exponential gaps, the simulator's arrival pattern.
void BM_EventQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t live = 4 * n;
  util::Rng rng(2024);
  constexpr std::size_t kGapMask = (1u << 12) - 1;
  std::vector<double> gaps(kGapMask + 1);
  for (double& g : gaps) g = rng.exponential(1.0);

  sim::EventQueue q;
  q.reserve_for_nodes(live);
  std::size_t g = 0;
  for (std::size_t i = 0; i < live; ++i)
    q.push(gaps[g++ & kGapMask], sim::EventKind::kTransition,
           static_cast<std::uint32_t>(i));

  double acc = 0.0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < live; ++i) {
      const sim::Event e = q.pop();
      acc += e.time;
      q.push(e.time + gaps[g++ & kGapMask], e.kind, e.node);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * live));
  state.SetLabel("N=" + std::to_string(n));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

// The cancellation path: every op re-schedules a node's pending transition
// (an in-place key update of its slot) — the pattern proto::Simulation's
// schedule_transition produces under carrier-sense resampling.
void BM_EventQueueScheduleCancel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(4048);
  constexpr std::size_t kGapMask = (1u << 12) - 1;
  std::vector<double> gaps(kGapMask + 1);
  for (double& g : gaps) g = rng.exponential(1.0);
  std::vector<std::uint32_t> order(kGapMask + 1);
  for (auto& o : order)
    o = static_cast<std::uint32_t>(rng.uniform() * static_cast<double>(n));

  sim::EventQueue q;
  q.reserve_for_nodes(n);
  double now = 0.0;
  std::size_t g = 0;
  for (std::size_t i = 0; i < n; ++i)
    q.schedule(gaps[g++ & kGapMask], sim::EventKind::kTransition,
               static_cast<std::uint32_t>(i));

  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      // A transition fires...
      const sim::Event e = q.pop();
      now = e.time;
      q.schedule(now + gaps[g++ & kGapMask], sim::EventKind::kTransition,
                 e.node);
      // ...and a carrier toggle makes two neighbors re-sample.
      for (int k = 0; k < 2; ++k) {
        const std::uint32_t j = order[g & kGapMask];
        q.schedule(now + gaps[g++ & kGapMask], sim::EventKind::kTransition,
                   j);
      }
    }
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(4 * n));
  state.SetLabel("N=" + std::to_string(n));
}
BENCHMARK(BM_EventQueueScheduleCancel)->Arg(64)->Arg(256);

// The simulator's timer mix: every node's multiplier-update interval ends
// at now + τ (eq. (17)), the packet on the air ends at now + 1, and each
// popped transition re-schedules its node and one re-sampling neighbor.
// The durable timers are monotone per kind, about a third of the pops, as
// in a fig. 6 grid run.
void BM_EventQueueTimerLanes(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr double kTau = 16.0;
  util::Rng rng(6161);
  constexpr std::size_t kGapMask = (1u << 12) - 1;
  std::vector<double> gaps(kGapMask + 1);
  for (double& g : gaps) g = rng.exponential(1.0 / 8.0);
  std::vector<std::uint32_t> order(kGapMask + 1);
  for (auto& o : order)
    o = static_cast<std::uint32_t>(rng.uniform() * static_cast<double>(n));

  sim::EventQueue q;
  q.reserve_for_nodes(n);
  std::size_t g = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto node = static_cast<std::uint32_t>(i);
    q.schedule(gaps[g++ & kGapMask], sim::EventKind::kTransition, node);
    q.push(kTau, sim::EventKind::kIntervalEnd, node);
  }
  q.push(1.0, sim::EventKind::kPacketEnd, 0);

  const std::uint64_t ops_before = q.stats().pushes + q.stats().pops;
  double now = 0.0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      const sim::Event e = q.pop();
      now = e.time;
      switch (e.kind) {
        case sim::EventKind::kIntervalEnd:
          q.push(now + kTau, sim::EventKind::kIntervalEnd, e.node);
          q.schedule(now + gaps[g++ & kGapMask],
                     sim::EventKind::kTransition, e.node);
          break;
        case sim::EventKind::kPacketEnd:
          q.push(now + 1.0, sim::EventKind::kPacketEnd,
                 order[g++ & kGapMask]);
          break;
        default:
          q.schedule(now + gaps[g++ & kGapMask],
                     sim::EventKind::kTransition, e.node);
          q.schedule(now + gaps[g & kGapMask], sim::EventKind::kTransition,
                     order[g & kGapMask]);
          ++g;
          break;
      }
    }
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      q.stats().pushes + q.stats().pops - ops_before));
  state.SetLabel("N=" + std::to_string(n));
}
BENCHMARK(BM_EventQueueTimerLanes)->Arg(64)->Arg(256);

void BM_SimulatorEvents(benchmark::State& state) {
  const auto nodes = model::homogeneous(5, 10.0, 500.0, 500.0);
  std::uint64_t seed = 1;
  std::uint64_t events = 0;
  for (auto _ : state) {
    proto::SimConfig cfg;
    cfg.sigma = 0.5;
    cfg.duration = 1e5;
    cfg.seed = seed++;
    proto::Simulation sim(nodes, model::Topology::clique(5), cfg);
    const auto r = sim.run();
    events += r.events_processed;
    benchmark::DoNotOptimize(r.groupput);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_SimulatorEvents);

// The simulator on fig. 6-style grids. Arg 0 is the grid side k (N = k²).
// The config mirrors the fig. 6 cells (energy guard, adaptive multiplier
// from eta = 0) at a shortened duration.
void BM_SimulatorGrid(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const std::size_t n = k * k;
  const auto nodes = model::homogeneous(n, 10.0, 500.0, 500.0);
  const auto topo = model::Topology::grid(k, k);
  std::uint64_t seed = 66 + n;
  std::uint64_t events = 0;
  for (auto _ : state) {
    proto::SimConfig cfg;
    cfg.sigma = 0.25;
    cfg.duration = 2e5;
    cfg.warmup = cfg.duration * 0.4;
    cfg.seed = seed++;
    cfg.energy_guard = true;
    cfg.initial_energy = 5e5;
    proto::Simulation sim(nodes, topo, cfg);
    const auto r = sim.run();
    events += r.events_processed;
    benchmark::DoNotOptimize(r.groupput);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("N=" + std::to_string(n));
}
BENCHMARK(BM_SimulatorGrid)->Arg(4)->Arg(8)->Arg(16);

// The simulator on cliques, the dense-neighbourhood path (listener-set
// packet locking, batched carrier-toggle re-samples). Arg 0 is N. The config
// mirrors the clique-des benchmark cells (energy guard, 40% warmup, σ = 0.5)
// at a shortened duration.
void BM_SimulatorClique(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto nodes = model::homogeneous(n, 10.0, 500.0, 500.0);
  const auto topo = model::Topology::clique(n);
  std::uint64_t seed = 77 + n;
  std::uint64_t events = 0;
  for (auto _ : state) {
    proto::SimConfig cfg;
    cfg.sigma = 0.5;
    cfg.duration = 2.5e4;
    cfg.warmup = cfg.duration * 0.4;
    cfg.seed = seed++;
    cfg.energy_guard = true;
    cfg.initial_energy = 5e5;
    proto::Simulation sim(nodes, topo, cfg);
    const auto r = sim.run();
    events += r.events_processed;
    benchmark::DoNotOptimize(r.groupput);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("N=" + std::to_string(n));
}
BENCHMARK(BM_SimulatorClique)->Arg(16)->Arg(64)->Arg(100);

}  // namespace

BENCHMARK_MAIN();
