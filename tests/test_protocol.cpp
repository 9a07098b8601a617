// Tests for the protocol-agnostic simulation API: registry contents and
// error handling, adapter equivalence against the direct module calls (same
// seed → bit-identical values, which is what keeps the deprecated shims and
// the registry path interchangeable), network-requirement validation, and
// the sweep-axis specialization helper.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "baselines/birthday.h"
#include "baselines/panda.h"
#include "baselines/searchlight.h"
#include "gibbs/p4_solver.h"
#include "oracle/clique_oracle.h"
#include "protocol/protocol.h"

namespace {

using namespace econcast;
using protocol::ProtocolRegistry;
using protocol::ProtocolSpec;
using protocol::SimResult;

SimResult run_spec(const ProtocolSpec& spec, const model::NodeSet& nodes,
                   const model::Topology& topology, std::uint64_t seed) {
  const auto proto = ProtocolRegistry::global().create(spec);
  return proto->make_sim(nodes, topology, seed)->run();
}

const model::NodeSet& paper_nodes() {
  static const model::NodeSet nodes =
      model::homogeneous(5, 10.0, 500.0, 500.0);
  return nodes;
}

// ---------------------------------------------------------------- registry --

TEST(ProtocolRegistry, BuiltinsRegistered) {
  const ProtocolRegistry& r = ProtocolRegistry::global();
  for (const char* name :
       {"econcast", "econcast-p4", "oracle", "panda", "birthday",
        "searchlight-bound", "econcast-testbed"}) {
    EXPECT_TRUE(r.contains(name)) << name;
  }
  EXPECT_FALSE(r.contains("carrier-pigeon"));
  EXPECT_GE(r.names().size(), 7u);
}

TEST(ProtocolRegistry, UnknownNameThrows) {
  ProtocolSpec spec;
  spec.name = "carrier-pigeon";
  EXPECT_THROW(ProtocolRegistry::global().create(spec), std::invalid_argument);
}

TEST(ProtocolRegistry, WrongParamsTypeThrows) {
  ProtocolSpec spec = protocol::panda_spec();
  spec.name = "birthday";  // birthday factory handed PandaParams
  EXPECT_THROW(ProtocolRegistry::global().create(spec), std::invalid_argument);
}

TEST(ProtocolRegistry, DuplicateAndEmptyRegistrationRejected) {
  ProtocolRegistry local;
  protocol::register_builtin_protocols(local);
  EXPECT_THROW(local.add("econcast", [](const protocol::ProtocolParams&) {
    return std::shared_ptr<const protocol::Protocol>();
  }),
               std::invalid_argument);
  EXPECT_THROW(local.add("", [](const protocol::ProtocolParams&) {
    return std::shared_ptr<const protocol::Protocol>();
  }),
               std::invalid_argument);
  EXPECT_THROW(local.add("null-factory", ProtocolRegistry::Factory{}),
               std::invalid_argument);
}

TEST(ProtocolRegistry, CustomProtocolUsableOnceRegistered) {
  class Fixed : public protocol::Protocol {
   public:
    std::string name() const override { return "fixed"; }
    std::unique_ptr<protocol::Sim> make_sim(const model::NodeSet&,
                                            const model::Topology&,
                                            std::uint64_t seed) const override {
      class FixedSim : public protocol::Sim {
       public:
        explicit FixedSim(std::uint64_t seed) : seed_(seed) {}
        SimResult run() override {
          SimResult out;
          out.groupput = static_cast<double>(seed_);
          return out;
        }
       private:
        std::uint64_t seed_;
      };
      return std::make_unique<FixedSim>(seed);
    }
  };
  ProtocolRegistry local;
  local.add("fixed", [](const protocol::ProtocolParams&) {
    return std::make_shared<Fixed>();
  });
  ProtocolSpec spec;
  spec.name = "fixed";
  const auto proto = local.create(spec);
  EXPECT_EQ(proto->make_sim(paper_nodes(), model::Topology::clique(5), 17)
                ->run()
                .groupput,
            17.0);
}

// ------------------------------------------------- adapter ≡ direct calls --

TEST(ProtocolAdapters, EconCastMatchesDirectSimulation) {
  proto::SimConfig cfg;
  cfg.sigma = 0.5;
  cfg.duration = 2e4;
  cfg.warmup = 1e3;
  const SimResult via_registry = run_spec(
      protocol::econcast_spec(cfg), paper_nodes(), model::Topology::clique(5),
      /*seed=*/321);
  cfg.seed = 321;
  proto::Simulation direct(paper_nodes(), model::Topology::clique(5), cfg);
  const proto::SimResult expected = direct.run();
  EXPECT_EQ(via_registry.groupput, expected.groupput);
  EXPECT_EQ(via_registry.anyput, expected.anyput);
  EXPECT_EQ(via_registry.avg_power, expected.avg_power);
  EXPECT_EQ(via_registry.listen_fraction, expected.listen_fraction);
  EXPECT_EQ(via_registry.packets_sent, expected.packets_sent);
  EXPECT_EQ(via_registry.packets_received, expected.packets_received);
  EXPECT_EQ(via_registry.latencies.samples(), expected.latencies.samples());
  EXPECT_EQ(via_registry.extra("events_processed"),
            static_cast<double>(expected.events_processed));
  EXPECT_EQ(via_registry.extra("bursts"),
            static_cast<double>(expected.bursts));
}

TEST(ProtocolAdapters, QueueStatsExtrasAreOptIn) {
  proto::SimConfig cfg;
  cfg.sigma = 0.5;
  cfg.duration = 5e3;

  // Default: no queue_* extras, so existing outputs stay byte-identical.
  const SimResult quiet = run_spec(protocol::econcast_spec(cfg), paper_nodes(),
                                   model::Topology::clique(5), /*seed=*/11);
  EXPECT_EQ(quiet.extras.count("queue_pushes"), 0u);
  EXPECT_EQ(quiet.extras.count("queue_cancels"), 0u);

  cfg.report_queue_stats = true;
  const SimResult loud = run_spec(protocol::econcast_spec(cfg), paper_nodes(),
                                  model::Topology::clique(5), /*seed=*/11);
  EXPECT_GT(loud.extra("queue_pushes"), 0.0);
  EXPECT_GT(loud.extra("queue_pops"), 0.0);
  EXPECT_GT(loud.extra("queue_peak_live"), 0.0);
  // Conservation: everything popped or cancelled was pushed first.
  EXPECT_GE(loud.extra("queue_pushes"),
            loud.extra("queue_pops") + loud.extra("queue_cancels"));
  // The flag changes reporting, not the simulation.
  EXPECT_EQ(loud.groupput, quiet.groupput);
  EXPECT_EQ(loud.packets_sent, quiet.packets_sent);

  // Same opt-in contract for the firmware protocol.
  protocol::TestbedParams testbed;
  testbed.duration_ms = 10.0 * 60.0 * 1000.0;
  testbed.warmup_ms = 60.0 * 1000.0;
  testbed.report_queue_stats = true;
  const SimResult firmware =
      run_spec(protocol::testbed_spec(testbed),
               model::homogeneous(5, 1.0, 52.2, 55.4),
               model::Topology::clique(5), /*seed=*/3);
  EXPECT_GT(firmware.extra("queue_pushes"), 0.0);
}

// The simulator's deterministic counters, pinned: a seeded run must handle
// exactly these events with exactly these queue operations and produce the
// same groupput bits. Event-queue and simulator changes that claim not to
// alter the delivered event sequence are held to them. A change meant to
// alter the sequence re-records them (and says so in CHANGES.md).
struct PinnedCounters {
  double events_processed;
  double pushes;
  double pops;
  double cancels;
  double peak_live;
  std::uint64_t groupput_bits;
};

void expect_counters(const SimResult& r, const PinnedCounters& want) {
  EXPECT_EQ(r.extra("events_processed"), want.events_processed);
  EXPECT_EQ(r.extra("queue_pushes"), want.pushes);
  EXPECT_EQ(r.extra("queue_pops"), want.pops);
  EXPECT_EQ(r.extra("queue_cancels"), want.cancels);
  EXPECT_EQ(r.extra("queue_peak_live"), want.peak_live);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.groupput), want.groupput_bits);
}

TEST(ProtocolAdapters, EconCastCountersArePinned) {
  // The fig. 6 set-up on an 8x8 grid: energy guard with a storage head
  // start and a 40% warmup (the guard's refill and watchdog timers, the
  // warmup snapshot and out-of-order interval lengths all in play).
  proto::SimConfig grid;
  grid.sigma = 0.5;
  grid.duration = 2e4;
  grid.warmup = 0.4 * grid.duration;
  grid.energy_guard = true;
  grid.initial_energy = 5e5;
  grid.report_queue_stats = true;
  expect_counters(
      run_spec(protocol::econcast_spec(grid),
               model::homogeneous(64, 10.0, 500.0, 500.0),
               model::Topology::grid(8, 8), /*seed=*/64),
      {83928, 179874, 83928, 95815, 142, 4593689634316415402u});

  proto::SimConfig clique;
  clique.sigma = 0.5;
  clique.duration = 4e4;
  clique.report_queue_stats = true;
  expect_counters(
      run_spec(protocol::econcast_spec(clique),
               model::homogeneous(16, 10.0, 500.0, 500.0),
               model::Topology::clique(16), /*seed=*/16),
      {52813, 52875, 52813, 45, 32, 4618427400414603457u});

  // A 64-node clique under the fig. 6 guard set-up: every burst toggles
  // carrier sense at 63 neighbours, so the carrier-toggle re-samples run
  // in one queue batch while the guard watchdogs are armed.
  proto::SimConfig guarded = grid;
  guarded.duration = 5e4;
  guarded.warmup = 0.4 * guarded.duration;
  expect_counters(
      run_spec(protocol::econcast_spec(guarded),
               model::homogeneous(64, 10.0, 500.0, 500.0),
               model::Topology::clique(64), /*seed=*/65),
      {87932, 314740, 87932, 226742, 143, 4595111570838763847u});

  // The non-capture variant reads λ_lx per query with the listener count,
  // driven by ĉ (groupput) and by γ̂ (anyput); the 16-clique pin above
  // covers capture groupput.
  proto::SimConfig nc = clique;
  nc.variant = proto::Variant::kNonCapture;
  expect_counters(
      run_spec(protocol::econcast_spec(nc),
               model::homogeneous(16, 10.0, 500.0, 500.0),
               model::Topology::clique(16), /*seed=*/17),
      {92815, 692890, 92815, 600058, 32, 4618527211441345056u});
  nc.mode = model::Mode::kAnyput;
  expect_counters(
      run_spec(protocol::econcast_spec(nc),
               model::homogeneous(16, 10.0, 500.0, 500.0),
               model::Topology::clique(16), /*seed=*/18),
      {35758, 157200, 35758, 121410, 32, 4594240874910805551u});

  // Capture anyput under the fig. 6 guard set-up on a 16-clique.
  proto::SimConfig anyput = grid;
  anyput.mode = model::Mode::kAnyput;
  expect_counters(
      run_spec(protocol::econcast_spec(anyput),
               model::homogeneous(16, 10.0, 500.0, 500.0),
               model::Topology::clique(16), /*seed=*/19),
      {17163, 59731, 17163, 42535, 41, 4589582351456253510u});
}

TEST(ProtocolAdapters, PandaSimulationMatchesDetailedRun) {
  protocol::PandaParams params;
  params.optimize = false;
  params.wake_rate = 0.01;
  params.listen_window = 1.0;
  params.simulate = true;
  params.duration = 1e5;
  const SimResult via_registry =
      run_spec(protocol::panda_spec(params), paper_nodes(),
               model::Topology::clique(5), /*seed=*/5);
  const baselines::PandaSimDetail detail =
      baselines::simulate_panda_detailed(5, 0.01, 1.0, 1e5, 5);
  EXPECT_EQ(via_registry.packets_sent, detail.packets);
  EXPECT_EQ(via_registry.packets_received, detail.receptions);
  EXPECT_EQ(via_registry.groupput,
            static_cast<double>(detail.receptions) / 1e5);
  double mean_power = 0.0;
  for (const double p : via_registry.avg_power) mean_power += p;
  mean_power /= 5.0;
  double energy = 0.0;
  for (std::size_t i = 0; i < 5; ++i)
    energy += (detail.listen_time[i] + detail.transmit_time[i]) * 500.0;
  EXPECT_NEAR(mean_power, energy / (5.0 * 1e5), 1e-12);
  EXPECT_GE(via_registry.anyput * 1e5,
            static_cast<double>(detail.receptions) / 5.0);
}

TEST(ProtocolAdapters, PandaAnalyticMatchesOptimizer) {
  const SimResult via_registry =
      run_spec(protocol::panda_spec(), paper_nodes(),
               model::Topology::clique(5), /*seed=*/1);
  const baselines::PandaDesign design =
      baselines::optimize_panda(5, 10.0, 500.0, 500.0);
  EXPECT_EQ(via_registry.groupput, design.throughput);
  ASSERT_EQ(via_registry.avg_power.size(), 5u);
  EXPECT_EQ(via_registry.avg_power[0], design.power);
  EXPECT_EQ(via_registry.extra("wake_rate"), design.wake_rate);
  EXPECT_EQ(via_registry.extra("listen_window"), design.listen_window);
}

TEST(ProtocolAdapters, BirthdaySimulationMatchesDetailedRun) {
  protocol::BirthdayParams params;
  params.optimize = false;
  params.p_transmit = 0.01;
  params.p_listen = 0.01;
  params.simulate = true;
  params.slots = 200000;
  const SimResult via_registry =
      run_spec(protocol::birthday_spec(params), paper_nodes(),
               model::Topology::clique(5), /*seed=*/9);
  const baselines::BirthdaySimDetail detail =
      baselines::simulate_birthday_detailed(5, 0.01, 0.01, 200000, 9);
  EXPECT_EQ(via_registry.groupput, detail.groupput_credit / 200000.0);
  EXPECT_EQ(via_registry.anyput, detail.anyput_credit / 200000.0);
}

TEST(ProtocolAdapters, BirthdayAnalyticMatchesOptimizer) {
  const SimResult via_registry =
      run_spec(protocol::birthday_spec(), paper_nodes(),
               model::Topology::clique(5), /*seed=*/1);
  const baselines::BirthdayDesign design = baselines::optimize_birthday(
      5, 10.0, 500.0, 500.0, model::Mode::kGroupput);
  EXPECT_EQ(via_registry.groupput, design.throughput);
  EXPECT_EQ(via_registry.extra("p_transmit"), design.p_transmit);
  EXPECT_EQ(via_registry.extra("p_listen"), design.p_listen);
}

TEST(ProtocolAdapters, P4AndOracleMatchSolvers) {
  const SimResult p4 = run_spec(protocol::p4_spec(model::Mode::kGroupput, 0.5),
                                paper_nodes(), model::Topology::clique(5), 1);
  EXPECT_EQ(p4.groupput,
            gibbs::solve_p4(paper_nodes(), model::Mode::kGroupput, 0.5)
                .throughput);
  EXPECT_EQ(p4.anyput, 0.0);

  const SimResult t_star = run_spec(protocol::oracle_spec(model::Mode::kGroupput),
                                    paper_nodes(), model::Topology::clique(5), 1);
  EXPECT_EQ(t_star.groupput, oracle::groupput(paper_nodes()).throughput);
}

TEST(ProtocolAdapters, SearchlightBoundMatchesAnalysis) {
  const SimResult via_registry =
      run_spec(protocol::searchlight_spec(), paper_nodes(),
               model::Topology::clique(5), /*seed=*/1);
  baselines::SearchlightConfig cfg;
  cfg.budget = 10.0;
  cfg.listen_power = 500.0;
  const baselines::SearchlightResult expected =
      baselines::analyze_searchlight(cfg);
  EXPECT_EQ(via_registry.groupput, expected.groupput_upper_bound(5));
  EXPECT_EQ(via_registry.extra("worst_latency_seconds"),
            expected.worst_latency_seconds);
  EXPECT_EQ(via_registry.extra("period_slots"),
            static_cast<double>(expected.period_slots));
}

// ---------------------------------------------------- network requirements --

TEST(ProtocolAdapters, BaselinesRejectUnsupportedNetworks) {
  const auto heterogeneous = [] {
    model::NodeSet nodes = model::homogeneous(4, 10.0, 500.0, 500.0);
    nodes[2].budget = 20.0;
    return nodes;
  }();
  const auto homogeneous = model::homogeneous(4, 10.0, 500.0, 500.0);
  const auto clique = model::Topology::clique(4);
  const auto line = model::Topology::line(4);

  for (const ProtocolSpec& spec :
       {protocol::panda_spec(), protocol::birthday_spec(),
        protocol::searchlight_spec()}) {
    SCOPED_TRACE(spec.name);
    const auto proto = ProtocolRegistry::global().create(spec);
    EXPECT_THROW(proto->make_sim(heterogeneous, clique, 1),
                 std::invalid_argument);
    EXPECT_THROW(proto->make_sim(homogeneous, line, 1), std::invalid_argument);
  }
  // EconCast is the protocol that removes those requirements: it accepts
  // both the heterogeneous population and the non-clique topology.
  proto::SimConfig cfg;
  cfg.duration = 1e3;
  const auto econcast =
      ProtocolRegistry::global().create(protocol::econcast_spec(cfg));
  EXPECT_NO_THROW(econcast->make_sim(heterogeneous, clique, 1));
  EXPECT_NO_THROW(econcast->make_sim(homogeneous, line, 1));
}

// ------------------------------------------------------------- specialized --

TEST(ProtocolSpecs, SpecializedAppliesModeAndSigmaWhereMeaningful) {
  const auto specialized_econcast = protocol::specialized(
      protocol::econcast_spec({}), model::Mode::kAnyput, 0.25);
  const auto& ec =
      std::get<protocol::EconCastParams>(specialized_econcast.params);
  EXPECT_EQ(ec.config.mode, model::Mode::kAnyput);
  EXPECT_EQ(ec.config.sigma, 0.25);

  const auto specialized_p4 = protocol::specialized(
      protocol::p4_spec(model::Mode::kGroupput, 0.5), model::Mode::kAnyput,
      0.1);
  const auto& p4 = std::get<protocol::P4Params>(specialized_p4.params);
  EXPECT_EQ(p4.mode, model::Mode::kAnyput);
  EXPECT_EQ(p4.sigma, 0.1);

  protocol::PandaParams panda_params;
  panda_params.wake_rate = 0.5;
  const auto specialized_panda = protocol::specialized(
      protocol::panda_spec(panda_params), model::Mode::kAnyput, 0.1);
  EXPECT_EQ(std::get<protocol::PandaParams>(specialized_panda.params).wake_rate,
            0.5);  // untouched: Panda has no mode/σ knob

  const auto specialized_birthday = protocol::specialized(
      protocol::birthday_spec(), model::Mode::kAnyput, 0.1);
  EXPECT_EQ(std::get<protocol::BirthdayParams>(specialized_birthday.params).mode,
            model::Mode::kAnyput);
}

}  // namespace
