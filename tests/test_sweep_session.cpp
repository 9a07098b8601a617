// Tests for the sweep-manifest serialization layer and the
// checkpoint/resume SweepSession:
//  - ProtocolSpec / Scenario / SweepSpec JSON round trips (re-expansion
//    yields identical batch names, seeds and simulation results),
//  - SimResult JSON round trips bit-identically (RunningStats internals
//    included),
//  - resume-after-kill: truncate the results JSONL mid-sweep (both at a line
//    boundary and mid-line), resume, and compare byte-for-byte against an
//    uninterrupted run,
//  - a cached session on a 4-worker executor (workers probe, publish and
//    encode; the serialized hook only appends): off/cold/warm/half-warm
//    bytes identical, exact cache stats, in-order on_cell_done, and an
//    unwritable cache degrading to recompute,
//  - distributed sweeps through cell claims: a cell held by another live
//    worker is deferred (the file stops in front of it, later cells are
//    still published), a rerun assembles a byte-identical file, and dead
//    same-host claims, zero-lease caches and failing cells never leave a
//    cell blocked.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "protocol/protocol_json.h"
#include "runner/manifest.h"
#include "runner/scenario_runner.h"
#include "runner/sweep_session.h"
#include "scoped_temp_dir.h"

namespace {

using namespace econcast;
using testing_support::ScopedTempDir;
namespace fs = std::filesystem;
namespace json = util::json;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A small stochastic + analytic sweep: 2 protocols x 2 N x 2 σ x 2
/// replicates = 16 cells, a couple of seconds end to end.
runner::SweepSpec small_sweep() {
  proto::SimConfig cfg;
  cfg.duration = 4e3;
  cfg.warmup = 5e2;
  return runner::SweepSpec("mini")
      .protocols({protocol::econcast_spec(cfg),
                  protocol::p4_spec(model::Mode::kGroupput, 0.5)})
      .node_counts({3, 4})
      .sigmas({0.5, 0.75})
      .replicates(2);
}

// ------------------------------------------------- ProtocolSpec round trip --

TEST(ProtocolJson, AllBuiltinSpecsRoundTrip) {
  proto::SimConfig cfg;
  cfg.mode = model::Mode::kAnyput;
  cfg.variant = proto::Variant::kNonCapture;
  cfg.sigma = 0.3125;
  cfg.multiplier.schedule = proto::StepSchedule::kTheorem1;
  cfg.multiplier.delta = 0.07;
  cfg.eta_init = {0.001, 0.002, 0.003};
  cfg.auto_step_gain = 0.011;
  cfg.estimator.kind = proto::EstimatorKind::kBinomialThinning;
  cfg.estimator.detect_prob = 0.9;
  cfg.duration = 12345.5;
  cfg.seed = 0xDEADBEEFCAFEF00DULL;  // > 2^53: must survive as a string
  cfg.energy_guard = true;
  cfg.initial_energy = 777.0;

  protocol::PandaParams panda;
  panda.optimize = false;
  panda.wake_rate = 0.0125;
  panda.listen_window = 2.5;
  panda.simulate = true;

  protocol::BirthdayParams birthday;
  birthday.slots = (1ULL << 60) + 7;  // u64 string codec on the wire

  std::vector<protocol::ProtocolSpec> specs{
      protocol::econcast_spec(cfg),
      protocol::p4_spec(model::Mode::kAnyput, 0.125),
      protocol::oracle_spec(model::Mode::kAnyput),
      protocol::panda_spec(panda),
      protocol::birthday_spec(birthday),
      protocol::searchlight_spec(),
      protocol::testbed_spec({0.2, 1e6, 1e5}),
  };
  specs[0].seed = 0xFFFFFFFFFFFFFFFFULL;

  for (const protocol::ProtocolSpec& spec : specs) {
    SCOPED_TRACE(spec.name);
    const json::Value wire = protocol::to_json(spec);
    const protocol::ProtocolSpec back =
        protocol::spec_from_json(json::parse(json::dump(wire)));
    EXPECT_EQ(back.name, spec.name);
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_EQ(protocol::effective_seed(back), protocol::effective_seed(spec));
    // Field-by-field equality via the canonical dump.
    EXPECT_EQ(json::dump(protocol::to_json(back)), json::dump(wire));
  }
}

TEST(ProtocolJson, RejectsUnknownAndMismatched) {
  protocol::ProtocolSpec custom;
  custom.name = "my-custom-protocol";
  EXPECT_THROW(protocol::to_json(custom), json::Error);

  protocol::ProtocolSpec mismatched = protocol::panda_spec();
  mismatched.name = "birthday";  // params stay PandaParams
  EXPECT_THROW(protocol::to_json(mismatched), json::Error);

  EXPECT_THROW(protocol::spec_from_json(
                   json::parse(R"({"name":"carrier-pigeon","params":{}})")),
               json::Error);
}

// Keys of fields that no longer exist load as if absent: a spec written
// with them parses to the same to_json bytes as the spec without them.
// (legacy_engines_manifest.json covers econcast's guard_floor and
// report_queue_stats.)
TEST(ProtocolJson, RemovedParamKeysAreIgnoredOnLoad) {
  const auto reencoded = [](const char* text) {
    return json::dump(protocol::to_json(protocol::spec_from_json(
        json::parse(text))));
  };
  EXPECT_EQ(reencoded(R"({"name": "econcast-testbed", "seed": "3",
                          "params": {"sigma": 0.2, "duration_ms": 1e6,
                                     "warmup_ms": 1e5, "observer": false,
                                     "report_queue_stats": true}})"),
            reencoded(R"({"name": "econcast-testbed", "seed": "3",
                          "params": {"sigma": 0.2, "duration_ms": 1e6,
                                     "warmup_ms": 1e5}})"));
  EXPECT_EQ(reencoded(R"({"name": "searchlight-bound", "seed": "3",
                          "params": {"slot_seconds": 0.025,
                                     "beacon_seconds": 0.0005}})"),
            reencoded(R"({"name": "searchlight-bound", "seed": "3",
                          "params": {}})"));
}

// ---------------------------------------------------- SimResult round trip --

TEST(ProtocolJson, SimResultRoundTripsBitIdentically) {
  // A real stochastic result exercises every field.
  proto::SimConfig cfg;
  cfg.duration = 6e3;
  cfg.warmup = 1e3;
  cfg.seed = 99;
  const auto nodes = model::homogeneous(4, 10.0, 500.0, 500.0);
  const auto spec = protocol::econcast_spec(cfg);
  const auto sim = protocol::ProtocolRegistry::global().create(spec)->make_sim(
      nodes, model::Topology::clique(4), 1234567890123456789ULL);
  const protocol::SimResult r = sim->run();
  ASSERT_GT(r.packets_received, 0u);
  ASSERT_GT(r.burst_lengths.count(), 0u);
  ASSERT_FALSE(r.latencies.samples().empty());
  ASSERT_FALSE(r.extras.empty());

  const protocol::SimResult back = protocol::sim_result_from_json(
      json::parse(json::dump(protocol::to_json(r))));
  EXPECT_EQ(back.measured_window, r.measured_window);
  EXPECT_EQ(back.groupput, r.groupput);
  EXPECT_EQ(back.anyput, r.anyput);
  EXPECT_EQ(back.avg_power, r.avg_power);
  EXPECT_EQ(back.listen_fraction, r.listen_fraction);
  EXPECT_EQ(back.transmit_fraction, r.transmit_fraction);
  EXPECT_EQ(back.burst_lengths.count(), r.burst_lengths.count());
  EXPECT_EQ(back.burst_lengths.mean(), r.burst_lengths.mean());
  EXPECT_EQ(back.burst_lengths.m2(), r.burst_lengths.m2());
  EXPECT_EQ(back.burst_lengths.min(), r.burst_lengths.min());
  EXPECT_EQ(back.burst_lengths.max(), r.burst_lengths.max());
  EXPECT_EQ(back.latencies.samples(), r.latencies.samples());
  EXPECT_EQ(back.packets_sent, r.packets_sent);
  EXPECT_EQ(back.packets_received, r.packets_received);
  EXPECT_EQ(back.extras, r.extras);
}

// ------------------------------------------------------ Scenario round trip --

TEST(ManifestJson, ScenarioRoundTripRunsIdentically) {
  proto::SimConfig cfg;
  cfg.sigma = 0.4;
  cfg.duration = 3e3;
  const runner::Scenario original = runner::econcast_scenario(
      "grid-cell", model::homogeneous(6, 10.0, 480.0, 520.0),
      model::Topology::grid(2, 3), cfg);

  const runner::Scenario back = runner::scenario_from_json(
      json::parse(json::dump(runner::to_json(original))));
  EXPECT_EQ(back.name, original.name);
  ASSERT_EQ(back.nodes.size(), original.nodes.size());
  EXPECT_EQ(back.topology.size(), original.topology.size());
  EXPECT_EQ(back.topology.edge_count(), original.topology.edge_count());
  for (std::size_t i = 0; i < back.topology.size(); ++i)
    EXPECT_EQ(back.topology.neighbors(i), original.topology.neighbors(i));

  // The reconstructed scenario must simulate bit-identically.
  const runner::ScenarioRunner r(runner::RunnerOptions{1, 5, true});
  const auto a = r.run({original});
  const auto b = r.run({back});
  EXPECT_EQ(a.results[0].groupput, b.results[0].groupput);
  EXPECT_EQ(a.results[0].packets_received, b.results[0].packets_received);
  EXPECT_EQ(a.results[0].avg_power, b.results[0].avg_power);
}

// ----------------------------------------------------- SweepSpec round trip --

TEST(ManifestJson, SweepSpecReExpandsIdentically) {
  const runner::SweepSpec spec =
      runner::SweepSpec("fig3a-like")
          .protocols({protocol::p4_spec(model::Mode::kGroupput, 0.5),
                      protocol::panda_spec(), protocol::birthday_spec(),
                      protocol::searchlight_spec(),
                      protocol::oracle_spec(model::Mode::kGroupput)})
          .modes({model::Mode::kGroupput, model::Mode::kAnyput})
          .node_counts({4, 9})
          .powers(runner::power_ratio_axis({0.25, 1.0, 4.0}, 10.0, 1000.0))
          .sigmas({0.1, 0.25, 0.5})
          .replicates(2)
          .topology("grid");

  const runner::SweepSpec back = runner::sweep_spec_from_json(
      json::parse(json::dump(runner::to_json(spec))));
  EXPECT_EQ(back.name(), spec.name());
  EXPECT_EQ(back.topology_kind(), "grid");
  EXPECT_EQ(back.cell_count(), spec.cell_count());

  const std::vector<runner::Scenario> a = spec.expand();
  const std::vector<runner::Scenario> b = back.expand();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(protocol::effective_seed(a[i].protocol),
              protocol::effective_seed(b[i].protocol));
    // derive_seed depends only on (base, index): identical by construction —
    // assert the protocols themselves match too, via the canonical dump.
    EXPECT_EQ(json::dump(protocol::to_json(a[i].protocol)),
              json::dump(protocol::to_json(b[i].protocol)));
    EXPECT_EQ(a[i].topology.edge_count(), b[i].topology.edge_count());
  }
}

TEST(ManifestJson, HeterogeneousSweepRoundTripsBitIdentically) {
  // The schema-v2 node_set object: a sampled sweep must re-expand to the
  // exact same batch — names, sampled node parameters (bitwise), protocols.
  const runner::SweepSpec spec =
      runner::SweepSpec("fig2-like")
          .protocols({protocol::p4_spec(model::Mode::kGroupput, 0.5),
                      protocol::oracle_spec(model::Mode::kGroupput)})
          .modes({model::Mode::kGroupput, model::Mode::kAnyput})
          .sigmas({0.1, 0.5})
          .replicates(2)
          .sampled_node_set({10.0, 150.0, 250.0}, 0xF162000);

  const runner::SweepSpec back = runner::sweep_spec_from_json(
      json::parse(json::dump(runner::to_json(spec))));
  EXPECT_EQ(back.node_set_kind(), "sampled");
  EXPECT_EQ(back.sample_seed(), 0xF162000u);
  EXPECT_EQ(back.heterogeneity_axis(), spec.heterogeneity_axis());
  EXPECT_EQ(back.cell_count(), spec.cell_count());

  const std::vector<runner::Scenario> a = spec.expand();
  const std::vector<runner::Scenario> b = back.expand();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].name, b[i].name);
    ASSERT_EQ(a[i].nodes.size(), b[i].nodes.size());
    for (std::size_t k = 0; k < a[i].nodes.size(); ++k) {
      EXPECT_EQ(a[i].nodes[k].budget, b[i].nodes[k].budget);
      EXPECT_EQ(a[i].nodes[k].listen_power, b[i].nodes[k].listen_power);
      EXPECT_EQ(a[i].nodes[k].transmit_power, b[i].nodes[k].transmit_power);
    }
    EXPECT_EQ(json::dump(protocol::to_json(a[i].protocol)),
              json::dump(protocol::to_json(b[i].protocol)));
  }
}

TEST(ManifestJson, EdgeListTopologyRoundTripsBitIdentically) {
  const runner::EdgeList edges{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {1, 2}};
  proto::SimConfig cfg;
  cfg.duration = 3e3;
  const runner::SweepSpec spec =
      runner::SweepSpec("graph")
          .protocols({protocol::econcast_spec(cfg)})
          .node_counts({4})
          .sigmas({0.25, 0.5})
          .topology(4, edges);

  const runner::SweepSpec back = runner::sweep_spec_from_json(
      json::parse(json::dump(runner::to_json(spec))));
  EXPECT_EQ(back.topology_kind(), "edge_list");
  EXPECT_EQ(back.edge_list_nodes(), 4u);
  EXPECT_EQ(back.edge_list(), edges);

  const std::vector<runner::Scenario> a = spec.expand();
  const std::vector<runner::Scenario> b = back.expand();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    ASSERT_EQ(a[i].topology.size(), b[i].topology.size());
    for (std::size_t v = 0; v < a[i].topology.size(); ++v)
      EXPECT_EQ(a[i].topology.neighbors(v), b[i].topology.neighbors(v));
  }
  // Named kinds are also accepted in object form.
  const runner::SweepSpec named = runner::sweep_spec_from_json(json::parse(
      R"({"name":"obj","topology":{"kind":"ring"},"node_counts":[5]})"));
  EXPECT_EQ(named.topology_kind(), "ring");
}

TEST(ManifestJson, RejectsUnknownSchemaVersions) {
  const std::string sweep_body =
      R"("sweep": {"name": "v", "node_counts": [4]})";
  // Current and legacy version keys both load...
  EXPECT_NO_THROW(runner::manifest_from_json(
      json::parse("{\"schema_version\": 2, " + sweep_body + "}")));
  EXPECT_NO_THROW(runner::manifest_from_json(
      json::parse("{\"version\": 1, " + sweep_body + "}")));
  // ...anything this build does not understand is rejected up front.
  for (const char* version :
       {"\"schema_version\": 3", "\"schema_version\": 1.5",
        "\"version\": 99"}) {
    SCOPED_TRACE(version);
    EXPECT_THROW(runner::manifest_from_json(json::parse(
                     "{" + std::string(version) + ", " + sweep_body + "}")),
                 json::Error);
  }
  // A manifest with no version key at all is rejected too — a renamed
  // version key must fail loudly, not parse under the wrong semantics.
  EXPECT_THROW(
      runner::manifest_from_json(json::parse("{" + sweep_body + "}")),
      json::Error);
}

TEST(ManifestJson, RejectsUnknownNodeSetKinds) {
  const auto sweep_with = [](const std::string& node_set) {
    return json::parse(R"({"name": "x", "node_counts": [4], "node_set": )" +
                       node_set + "}");
  };
  EXPECT_NO_THROW(runner::sweep_spec_from_json(sweep_with(R"("homogeneous")")));
  EXPECT_THROW(runner::sweep_spec_from_json(sweep_with(R"("exotic")")),
               std::invalid_argument);
  EXPECT_THROW(runner::sweep_spec_from_json(
                   sweep_with(R"({"kind": "exotic", "h": [10]})")),
               std::invalid_argument);
  // The string form of "sampled" lacks its parameters.
  EXPECT_THROW(runner::sweep_spec_from_json(sweep_with(R"("sampled")")),
               std::invalid_argument);
  // The object form requires both the h axis and the sampling seed —
  // sampled networks must derive from the manifest alone.
  EXPECT_THROW(runner::sweep_spec_from_json(
                   sweep_with(R"({"kind": "sampled"})")),
               json::Error);
  EXPECT_THROW(runner::sweep_spec_from_json(
                   sweep_with(R"({"kind": "sampled", "h": [10, 50]})")),
               json::Error);
  // Non-finite spec values are caught at the write, next to the cause —
  // they would otherwise serialize as null and fail only at reload.
  EXPECT_THROW(
      runner::to_json(runner::SweepSpec("nan-axis").sigmas(
          {std::numeric_limits<double>::quiet_NaN()})),
      std::invalid_argument);
  EXPECT_THROW(
      protocol::to_json(protocol::p4_spec(
          model::Mode::kGroupput, std::numeric_limits<double>::quiet_NaN())),
      json::Error);
  // Counts and indices must be non-negative integers — a negative or
  // fractional JSON number is a named parse error, not a silent cast.
  for (const char* bad :
       {R"({"name":"e","node_counts":[4],
            "topology":{"kind":"edge_list","n":-1,"edges":[]}})",
        R"({"name":"e","node_counts":[4],
            "topology":{"kind":"edge_list","n":4,"edges":[[0,1.5]]}})",
        R"({"name":"e","node_counts":[-4]})",
        R"({"name":"e","node_counts":[4],"replicates":2.5})"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(runner::sweep_spec_from_json(json::parse(bad)), json::Error);
  }
  // Grid axis compatibility surfaces at parse time, naming the offender.
  try {
    runner::sweep_spec_from_json(json::parse(
        R"({"name": "g", "topology": "grid", "node_counts": [9, 11]})"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("11"), std::string::npos)
        << e.what();
  }
}

TEST(ProtocolJson, NonFiniteResultFieldsSurviveAsNull) {
  // A NaN/Inf metric must not abort the streaming checkpoint write: the
  // writer encodes non-finite doubles as null and the reader brings them
  // back as NaN, with the dump byte-stable across the round trip.
  protocol::SimResult r;
  r.groupput = std::numeric_limits<double>::quiet_NaN();
  r.anyput = std::numeric_limits<double>::infinity();
  r.avg_power = {1.0, std::numeric_limits<double>::quiet_NaN()};
  r.extras["diverged"] = -std::numeric_limits<double>::infinity();
  r.extras["fine"] = 0.5;

  const std::string wire = json::dump(protocol::to_json(r));
  EXPECT_NE(wire.find("\"groupput\":null"), std::string::npos) << wire;

  const protocol::SimResult back =
      protocol::sim_result_from_json(json::parse(wire));
  EXPECT_TRUE(std::isnan(back.groupput));
  EXPECT_TRUE(std::isnan(back.anyput));  // Inf is not representable: NaN
  ASSERT_EQ(back.avg_power.size(), 2u);
  EXPECT_EQ(back.avg_power[0], 1.0);
  EXPECT_TRUE(std::isnan(back.avg_power[1]));
  EXPECT_TRUE(std::isnan(back.extras.at("diverged")));
  EXPECT_EQ(back.extras.at("fine"), 0.5);
  EXPECT_EQ(json::dump(protocol::to_json(back)), wire);

  // The leniency is for measured metrics only. Config/spec fields and
  // integral counts stay strict — a null there is corruption, not an
  // encoded NaN.
  EXPECT_THROW(protocol::spec_from_json(json::parse(
                   R"({"name": "econcast", "params": {"duration": null}})")),
               json::Error);
  EXPECT_THROW(protocol::sim_result_from_json(json::parse(
                   R"({"burst_lengths": {"count": null}})")),
               json::Error);
}

TEST(ManifestJson, CustomTopologyIsNotSerializable) {
  EXPECT_THROW(runner::SweepSpec("x").topology("moebius"),
               std::invalid_argument);
}

TEST(ManifestJson, ManifestFileRoundTrips) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const std::string path = (dir / "mini.manifest.json").string();
  const runner::SweepManifest manifest(small_sweep(), 4242, true);
  runner::write_manifest(manifest, path);

  const runner::SweepManifest back = runner::load_manifest(path);
  EXPECT_EQ(back.base_seed, 4242u);
  EXPECT_TRUE(back.reseed);
  EXPECT_EQ(json::dump(runner::to_json(back)),
            json::dump(runner::to_json(manifest)));

  // A manifest written before the queue-engine, hot-path-engine and kernel
  // knobs were removed: it carries runner.queue_engine/hotpath_engine and
  // per-spec queue_engine/hotpath_engine/report_hotpath_stats keys, and
  // econcast's guard_floor and report_queue_stats, also removed since. It
  // still loads, as the same sweep, and runs to the exact results bytes the
  // writing build produced (committed next to it).
  const std::string data = ECONCAST_TEST_DATA_DIR;
  const runner::SweepManifest legacy =
      runner::load_manifest(data + "/legacy_engines_manifest.json");
  EXPECT_EQ(json::dump(runner::to_json(legacy)),
            json::dump(runner::to_json(
                runner::SweepManifest(small_sweep(), 7, true))));
  runner::SweepSession(legacy, (dir / "legacy.jsonl").string()).run();
  EXPECT_EQ(slurp(dir / "legacy.jsonl"),
            slurp(data + "/legacy_engines_results.jsonl"));
}

// -------------------------------------------------------------- SweepSession --

TEST(SweepSession, UninterruptedRunCompletesAndAggregates) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const runner::SweepManifest manifest(small_sweep(), 7, true);
  runner::SweepSession session(manifest, (dir / "a.jsonl").string());
  EXPECT_EQ(session.cell_count(), 16u);
  EXPECT_EQ(session.completed_cells(), 0u);
  EXPECT_THROW(session.results(), std::logic_error);
  EXPECT_EQ(session.run(), 16u);
  EXPECT_TRUE(session.complete());
  const runner::BatchResult all = session.results();
  EXPECT_EQ(all.results.size(), 16u);
  EXPECT_GT(all.summary.groupput.mean(), 0.0);

  // The file holds one valid record per cell, in index order.
  std::ifstream in(dir / "a.jsonl");
  std::string line;
  std::size_t index = 0;
  while (std::getline(in, line)) {
    const json::Value record = json::parse(line);
    EXPECT_EQ(record.at("index").as_number(), static_cast<double>(index));
    EXPECT_EQ(record.at("name").as_string(), session.cells()[index].name);
    ++index;
  }
  EXPECT_EQ(index, 16u);
}

TEST(SweepSession, LimitCheckpointsAndResumeIsByteIdentical) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const runner::SweepManifest manifest(small_sweep(), 7, true);

  runner::SweepSession full(manifest, (dir / "full.jsonl").string());
  full.run();

  // Interrupted run: 5 cells, new session object (fresh process in CI),
  // finish, compare bytes.
  {
    runner::SweepSession part(manifest, (dir / "part.jsonl").string());
    EXPECT_EQ(part.run(5), 5u);
    EXPECT_EQ(part.completed_cells(), 5u);
    EXPECT_FALSE(part.complete());
  }
  {
    runner::SweepSession resumed(manifest, (dir / "part.jsonl").string());
    EXPECT_EQ(resumed.completed_cells(), 5u);  // loaded, not recomputed
    EXPECT_EQ(resumed.run(), 11u);
    EXPECT_TRUE(resumed.complete());
    // Aggregates over loaded + fresh cells match the uninterrupted run.
    const runner::BatchResult a = full.results();
    const runner::BatchResult b = resumed.results();
    EXPECT_EQ(a.summary.groupput.mean(), b.summary.groupput.mean());
    EXPECT_EQ(a.summary.groupput.stddev(), b.summary.groupput.stddev());
    EXPECT_EQ(a.summary.packets_received.sum(),
              b.summary.packets_received.sum());
  }
  EXPECT_EQ(slurp(dir / "part.jsonl"), slurp(dir / "full.jsonl"));
}

TEST(SweepSession, TruncatedMidLineResumesByteIdentically) {
  // The kill-at-any-byte contract: chop the results file mid-record; the
  // partial line is discarded on open and its cell reruns.
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const runner::SweepManifest manifest(small_sweep(), 7, true);

  runner::SweepSession full(manifest, (dir / "full.jsonl").string());
  full.run();
  const std::string reference = slurp(dir / "full.jsonl");

  {
    runner::SweepSession part(manifest, (dir / "killed.jsonl").string());
    part.run(4);
  }
  // Simulate a kill mid-write of record 4: keep 3 full lines + part of the
  // 4th (no trailing newline).
  std::string bytes = slurp(dir / "killed.jsonl");
  std::size_t third_newline = 0;
  for (int k = 0; k < 3; ++k)
    third_newline = bytes.find('\n', third_newline) + 1;
  ASSERT_LT(third_newline + 10, bytes.size());
  bytes.resize(third_newline + 10);  // mid-line garbage tail
  {
    std::ofstream out(dir / "killed.jsonl",
                      std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  runner::SweepSession resumed(manifest, (dir / "killed.jsonl").string());
  EXPECT_EQ(resumed.completed_cells(), 3u);  // partial 4th line dropped
  resumed.run();
  EXPECT_EQ(slurp(dir / "killed.jsonl"), reference);
}

TEST(SweepSession, TruncatedMidEscapeSequenceResumesByteIdentically) {
  // The hardest truncation point: inside a two-byte JSON escape. A sweep
  // name containing a quote serializes as \" in every record's "name"; kill
  // the writer between the backslash and the quote and the file ends in a
  // lone backslash inside an open string. The partial line must still be
  // detected and discarded (no newline terminator), never half-parsed.
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  proto::SimConfig cfg;
  cfg.duration = 4e3;
  cfg.warmup = 5e2;
  const runner::SweepManifest manifest(
      runner::SweepSpec("mini\"quoted")
          .protocols({protocol::econcast_spec(cfg),
                      protocol::p4_spec(model::Mode::kGroupput, 0.5)})
          .node_counts({3, 4})
          .replicates(2),
      /*seed=*/7, true);

  runner::SweepSession full(manifest, (dir / "full.jsonl").string());
  full.run();
  const std::string reference = slurp(dir / "full.jsonl");

  {
    runner::SweepSession part(manifest, (dir / "killed.jsonl").string());
    part.run(4);
  }
  std::string bytes = slurp(dir / "killed.jsonl");
  // Cut record 4 right after the backslash of the \" escape in its name.
  const std::size_t third_newline = [&] {
    std::size_t at = 0;
    for (int k = 0; k < 3; ++k) at = bytes.find('\n', at) + 1;
    return at;
  }();
  const std::size_t escape = bytes.find("\\\"", third_newline);
  ASSERT_NE(escape, std::string::npos);
  bytes.resize(escape + 1);  // file now ends in the lone backslash
  {
    std::ofstream out(dir / "killed.jsonl",
                      std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  runner::SweepSession resumed(manifest, (dir / "killed.jsonl").string());
  EXPECT_EQ(resumed.completed_cells(), 3u);
  resumed.run();
  EXPECT_EQ(slurp(dir / "killed.jsonl"), reference);
}

TEST(SweepSession, SampledSweepKillResumeIsByteIdentical) {
  // Kill/resume on the schema-v2 path: a heterogeneous (sampled node-set)
  // sweep, chopped mid-record, must resume to a byte-identical results file
  // — cell seeds and sampled networks both derive from the manifest alone.
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  proto::SimConfig cfg;
  cfg.duration = 3e3;
  cfg.warmup = 5e2;
  const runner::SweepManifest manifest(
      runner::SweepSpec("het-mini")
          .protocols({protocol::econcast_spec(cfg),
                      protocol::oracle_spec(model::Mode::kGroupput)})
          .sigmas({0.5})
          .replicates(2)
          .sampled_node_set({10.0, 200.0}, 0xF162000),
      /*seed=*/21, true);

  runner::SweepSession full(manifest, (dir / "full.jsonl").string());
  EXPECT_EQ(full.cell_count(), 8u);
  full.run();
  const std::string reference = slurp(dir / "full.jsonl");

  {
    runner::SweepSession part(manifest, (dir / "killed.jsonl").string());
    part.run(3);
  }
  std::string bytes = slurp(dir / "killed.jsonl");
  bytes.resize(bytes.size() - 7);  // mid-record kill
  {
    std::ofstream out(dir / "killed.jsonl",
                      std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  runner::SweepSession resumed(manifest, (dir / "killed.jsonl").string());
  EXPECT_EQ(resumed.completed_cells(), 2u);
  resumed.run();
  EXPECT_EQ(slurp(dir / "killed.jsonl"), reference);
}

TEST(SweepSession, RejectsResultsFromADifferentManifest) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const runner::SweepManifest manifest(small_sweep(), 7, true);
  {
    runner::SweepSession session(manifest, (dir / "r.jsonl").string());
    session.run(3);
  }
  // Same shape, different base seed: recorded seeds no longer match.
  const runner::SweepManifest other(small_sweep(), 8, true);
  EXPECT_THROW(
      runner::SweepSession(other, (dir / "r.jsonl").string()),
      std::runtime_error);
  // A different sweep entirely: names mismatch.
  proto::SimConfig cfg;
  cfg.duration = 4e3;
  const runner::SweepManifest renamed(
      runner::SweepSpec("other").protocols({protocol::econcast_spec(cfg)}),
      7, true);
  EXPECT_THROW(
      runner::SweepSession(renamed, (dir / "r.jsonl").string()),
      std::runtime_error);
}

TEST(SweepSession, ReseedOffUsesEmbeddedSeeds) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  proto::SimConfig cfg;
  cfg.duration = 3e3;
  cfg.seed = 424242;
  const runner::SweepManifest manifest(
      runner::SweepSpec("fixed-seed").protocols({protocol::econcast_spec(cfg)}),
      1, /*reseed=*/false);
  runner::SweepSession session(manifest, (dir / "f.jsonl").string());
  session.run();
  const json::Value record = json::parse(slurp(dir / "f.jsonl"));
  EXPECT_EQ(record.at("seed").as_string(), "424242");

  proto::Simulation direct(model::homogeneous(5, 10.0, 500.0, 500.0),
                           model::Topology::clique(5), cfg);
  EXPECT_EQ(session.results().results[0].groupput, direct.run().groupput);
}

// ------------------------------------ cache + multi-worker thread division --

/// Runs one session over `manifest` and checks the per-cell hook contract
/// on the way: on_cell_done fires once per cell, in index order, with
/// `done` advancing by exactly one.
std::string run_checked(const runner::SweepManifest& manifest,
                        const fs::path& results,
                        runner::SweepSession::Options options) {
  std::vector<std::size_t> indices;
  std::vector<std::size_t> dones;
  options.on_cell_done = [&](const runner::ScenarioProgress& p) {
    indices.push_back(p.index);
    dones.push_back(p.done);
  };
  runner::SweepSession session(manifest, results.string(), options);
  const std::size_t n = session.cell_count();
  EXPECT_EQ(session.run(), n);
  EXPECT_EQ(indices.size(), n);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(indices[i], i);
    EXPECT_EQ(dones[i], i + 1);
  }
  return slurp(results);
}

/// Exactly one probe outcome per cell, and every executed cell published.
void expect_exact_stats(const runner::CellCache& cache, std::size_t cells,
                        std::size_t hits) {
  const runner::CellCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.rejected, cells);
  EXPECT_EQ(stats.hits, hits);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.publishes, stats.misses);
}

TEST(SweepSession, CachedRunsOnFourWorkersAreByteIdenticalWithExactStats) {
  // Workers probe, publish and encode concurrently; the serialized hook
  // only appends. None of that may show in the bytes, the stats or the
  // hook order. 32 cells (cheap P4 cells interleaved with short
  // simulations) so completions genuinely arrive out of order.
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const runner::SweepManifest manifest(small_sweep().replicates(4), 11, true);
  const std::string cache_dir = (dir / "cache").string();
  runner::SweepSession::Options options;
  options.executor = std::make_shared<exec::Executor>(4);
  options.num_threads = 4;

  const std::string reference = run_checked(manifest, dir / "off.jsonl",
                                            options);
  const std::size_t cells = manifest.spec.expand().size();
  ASSERT_EQ(cells, 32u);

  options.cache = std::make_shared<runner::CellCache>(cache_dir);
  EXPECT_EQ(run_checked(manifest, dir / "cold.jsonl", options), reference);
  expect_exact_stats(*options.cache, cells, 0);

  options.cache = std::make_shared<runner::CellCache>(cache_dir);
  EXPECT_EQ(run_checked(manifest, dir / "warm.jsonl", options), reference);
  expect_exact_stats(*options.cache, cells, cells);

  // Half warm: a cache holding only the even cells' entries, copied from
  // the warm one, so hits and computed cells interleave in the reorder
  // buffer; the odd ones publish.
  const std::vector<runner::Scenario> batch = manifest.spec.expand();
  const std::string half_dir = (dir / "half-cache").string();
  {
    runner::CellCache half(half_dir);
    for (std::size_t i = 0; i < cells; i += 2) {
      const std::uint64_t seed =
          runner::manifest_cell_seed(manifest, batch[i], i);
      const runner::CellCache::Probe probe =
          options.cache->probe(batch[i], seed);
      ASSERT_TRUE(probe.hit);
      half.publish(batch[i], seed, probe.result, 1.0);
    }
  }
  options.cache = std::make_shared<runner::CellCache>(half_dir);
  EXPECT_EQ(run_checked(manifest, dir / "half.jsonl", options), reference);
  expect_exact_stats(*options.cache, cells, cells / 2);
}

TEST(SweepSession, UnwritableCacheOnFourWorkersDegradesToRecompute) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const runner::SweepManifest manifest(small_sweep(), 7, true);
  std::ofstream(dir / "blocker") << "";  // a file, so <dir>/blocker/.. fails
  runner::SweepSession::Options options;
  options.executor = std::make_shared<exec::Executor>(4);
  options.num_threads = 4;

  const std::string reference = run_checked(manifest, dir / "off.jsonl",
                                            options);
  options.cache =
      std::make_shared<runner::CellCache>((dir / "blocker" / "c").string());
  EXPECT_EQ(run_checked(manifest, dir / "run.jsonl", options), reference);
  const runner::CellCache::Stats stats = options.cache->stats();
  EXPECT_EQ(stats.misses, 16u);
  EXPECT_EQ(stats.publishes, 0u);
}

// ------------------------------------------ distributed sweeps via claims --

/// Claims cell `index` through `cache`, then rewrites the claim to name
/// `worker`: a fresh claim, stamped by the cache's own clock, that belongs
/// to someone else. Returns the claim file's path.
std::string forge_fresh_claim(runner::CellCache& cache,
                              const runner::SweepManifest& manifest,
                              std::size_t index, const std::string& worker) {
  const std::vector<runner::Scenario> batch = manifest.spec.expand();
  const std::uint64_t seed =
      runner::manifest_cell_seed(manifest, batch[index], index);
  const std::string path =
      cache.claim_path(cache.cell_key(batch[index], seed));
  EXPECT_TRUE(cache.try_claim(batch[index], seed));
  std::string text = slurp(path);
  cache.release(batch[index], seed);
  text.replace(text.find(cache.worker()), cache.worker().size(), worker);
  std::ofstream(path, std::ios::binary) << text;
  return path;
}

std::size_t claim_files(const fs::path& cache_dir) {
  std::size_t n = 0;
  for (const auto& e : fs::recursive_directory_iterator(cache_dir))
    n += e.path().extension() == ".claim" ? 1 : 0;
  return n;
}

/// The first `lines` lines of `text`.
std::string line_prefix(const std::string& text, std::size_t lines) {
  std::size_t end = 0;
  for (std::size_t i = 0; i < lines; ++i) end = text.find('\n', end) + 1;
  return text.substr(0, end);
}

runner::SweepSession::Options four_workers() {
  runner::SweepSession::Options options;
  options.executor = std::make_shared<exec::Executor>(4);
  options.num_threads = 4;
  return options;
}

TEST(SweepSessionClaims, ForeignClaimDefersThatCellAndARerunAssembles) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const runner::SweepManifest manifest(small_sweep(), 7, true);
  const std::vector<runner::Scenario> batch = manifest.spec.expand();
  ASSERT_EQ(batch.size(), 16u);
  const fs::path cache_dir = dir / "cache";
  runner::SweepSession::Options options = four_workers();
  const std::string reference = run_checked(manifest, dir / "off.jsonl",
                                            options);

  // Another host's worker holds cell 5: this worker skips it, stops its
  // file in front of it, and still computes and publishes every other cell.
  options.cache = std::make_shared<runner::CellCache>(cache_dir.string());
  const std::string claim =
      forge_fresh_claim(*options.cache, manifest, 5, "other-host:1");
  {
    runner::SweepSession session(manifest, (dir / "w.jsonl").string(),
                                 options);
    EXPECT_EQ(session.run(), 5u);
    EXPECT_FALSE(session.complete());
    EXPECT_EQ(session.deferred_cells(), 1u);
    EXPECT_EQ(session.completed_cells(), 5u);
  }
  EXPECT_EQ(slurp(dir / "w.jsonl"), line_prefix(reference, 5));
  EXPECT_EQ(options.cache->stats().misses, 16u);
  EXPECT_EQ(options.cache->stats().publishes, 15u);
  EXPECT_EQ(runner::CellCache::read_claim(claim).worker, "other-host:1");
  EXPECT_EQ(claim_files(cache_dir), 1u);
  runner::CellCache check(cache_dir.string());
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(check
                  .probe(batch[i],
                         runner::manifest_cell_seed(manifest, batch[i], i))
                  .hit,
              i != 5)
        << "cell " << i;

  // Once that worker is gone, rerunning the same command completes the
  // file byte-identically, computing exactly the one missing cell.
  fs::remove(claim);
  options.cache = std::make_shared<runner::CellCache>(cache_dir.string());
  runner::SweepSession rerun(manifest, (dir / "w.jsonl").string(), options);
  EXPECT_EQ(rerun.run(), 11u);
  EXPECT_TRUE(rerun.complete());
  EXPECT_EQ(rerun.deferred_cells(), 0u);
  EXPECT_EQ(slurp(dir / "w.jsonl"), reference);
  EXPECT_EQ(options.cache->stats().hits, 10u);
  EXPECT_EQ(options.cache->stats().misses, 1u);
  EXPECT_EQ(options.cache->stats().publishes, 1u);
  EXPECT_EQ(claim_files(cache_dir), 0u);
}

TEST(SweepSessionClaims, DeadSameHostClaimIsTakenOverAtOnce) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const runner::SweepManifest manifest(small_sweep(), 7, true);
  const fs::path cache_dir = dir / "cache";
  runner::SweepSession::Options options = four_workers();
  const std::string reference = run_checked(manifest, dir / "off.jsonl",
                                            options);

  // A worker on this host that died holding cell 3: a forked, reaped child.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  options.cache = std::make_shared<runner::CellCache>(cache_dir.string());
  const std::string& self = options.cache->worker();
  const std::string host = self.substr(0, self.rfind(':'));
  forge_fresh_claim(*options.cache, manifest, 3,
                    host + ":" + std::to_string(child));

  EXPECT_EQ(run_checked(manifest, dir / "w.jsonl", options), reference);
  EXPECT_EQ(options.cache->stats().publishes, 16u);
  EXPECT_EQ(claim_files(cache_dir), 0u);
}

TEST(SweepSessionClaims, ZeroLeaseCacheTakesOverFreshForeignClaims) {
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const runner::SweepManifest manifest(small_sweep(), 7, true);
  const fs::path cache_dir = dir / "cache";
  runner::SweepSession::Options options = four_workers();
  const std::string reference = run_checked(manifest, dir / "off.jsonl",
                                            options);

  options.cache = std::make_shared<runner::CellCache>(
      cache_dir.string(), runner::kCacheEpoch, /*lease_seconds=*/0);
  forge_fresh_claim(*options.cache, manifest, 0, "other-host:1");
  forge_fresh_claim(*options.cache, manifest, 9, "other-host:2");
  EXPECT_EQ(run_checked(manifest, dir / "w.jsonl", options), reference);
  EXPECT_EQ(options.cache->stats().publishes, 16u);
  EXPECT_EQ(claim_files(cache_dir), 0u);
}

TEST(SweepSessionClaims, FailingCellsReleaseTheirClaims) {
  // The P4 cells need a clique and fail on a ring; every claim taken before
  // the failure is gone once run() has rethrown.
  const ScopedTempDir temp;
  const fs::path& dir = temp.path();
  const runner::SweepManifest manifest(
      small_sweep().topology("ring").node_counts({4}), 7, true);
  const fs::path cache_dir = dir / "cache";
  runner::SweepSession::Options options = four_workers();
  options.cache = std::make_shared<runner::CellCache>(cache_dir.string());
  runner::SweepSession session(manifest, (dir / "w.jsonl").string(), options);
  EXPECT_THROW(session.run(), std::invalid_argument);
  EXPECT_FALSE(session.complete());
  EXPECT_EQ(claim_files(cache_dir), 0u);
}

TEST(SweepSession, CellErrorsNameTheManifestIndex) {
  // run(4) checkpoints the four EconCast cells; every cell left is a P4
  // cell, which needs a clique and fails on a ring. The error must name the
  // failing cell's position in the manifest, not in the batch of cells the
  // second run() had left to compute.
  const ScopedTempDir temp;
  const runner::SweepManifest manifest(
      small_sweep().topology("ring").node_counts({4}), 7, true);
  runner::SweepSession session(
      manifest, (temp.path() / "w.jsonl").string(), four_workers());
  ASSERT_EQ(session.run(4), 4u);
  try {
    session.run();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    const std::size_t at = message.find("(index ");
    ASSERT_NE(at, std::string::npos) << message;
    const std::size_t index = std::stoul(message.substr(at + 7));
    ASSERT_LT(index, session.cells().size()) << message;
    EXPECT_GE(index, 4u) << message;
    EXPECT_NE(message.find("'" + session.cells()[index].name + "'"),
              std::string::npos)
        << message;
  }
}

TEST(SweepSession, DefaultResultsPath) {
  EXPECT_EQ(runner::SweepSession::default_results_path("a/b/fig3a.manifest.json"),
            "a/b/fig3a.manifest.results.jsonl");
  EXPECT_EQ(runner::SweepSession::default_results_path("weird.txt"),
            "weird.txt.results.jsonl");
}

}  // namespace
