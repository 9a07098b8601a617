// econcast_perfbench: the repository benchmark's measuring program.
//
//   econcast_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      [--scale full|smoke]
//
// Run from the root of a checkout: it reads perfbench/expected.json and
// writes under .bench_out/. Cells run on min(4, nproc) threads.
//
// Untraced (--trace 0): for S seconds, repeatedly sets the workload up
// (setup_s) and runs it through runner::SweepSession (sweep_s), checking
// every results file against the first repetition and, for the default
// seed, against the digest recorded in expected.json. Reports the medians
// and the peak RSS. Traced (--trace 1): the same repetitions, then one traced pass
// over the same cells (spans around each layer call) plus the layer probes,
// reporting per-layer metrics and the tracing overhead. Either way the
// smoke-scale sweeps at the default seed are checked against their recorded
// digests. The last stdout line is the JSON result; trace spans go to
// .bench_out/trace-<workload>-seed<N>.json and a record of the run is
// appended to .bench_out/runs.jsonl.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "layers.h"
#include "trace.h"
#include "util/json.h"
#include "util/sha256.h"
#include "workloads.h"

namespace {

namespace fs = std::filesystem;
namespace json = econcast::util::json;
using namespace perfbench;

constexpr const char* kExpectedPath = "perfbench/expected.json";
constexpr const char* kOutDir = ".bench_out";
constexpr std::size_t kMaxThreads = 4;
constexpr std::size_t kMinSetups = 101;
constexpr double kExtraSetupSeconds = 2.0;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"sweep_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}};

constexpr MetricSpec kPerLayer[] = {
    {"sim.ns_per_event.grid", "ns"},  {"sim.ns_per_event.clique", "ns"},
    {"sim.run_ms_p50", "ms"},         {"sim.events", "count"},
    {"queue.ns_per_op.n100", "ns"},   {"queue.ns_per_op.n256", "ns"},
    {"protocol.make_sim_ms_p50", "ms"}, {"p4.solve_us_p50", "us"},
    {"oracle.solve_us_p50", "us"},    {"cache.key_us", "us"},
    {"cache.probe_hit_us", "us"},     {"cache.probe_miss_us", "us"},
    {"cache.publish_us", "us"},       {"cache.hit_frac", "fraction"},
    {"cache.entry_bytes", "B"},       {"json.encode_us_per_cell", "us"},
    {"runner.expand_ms", "ms"},       {"runner.cell_ms_p50", "ms"},
    {"runner.cell_ms_p99", "ms"},     {"runner.cells", "count"},
    {"exec.busy_frac", "fraction"},   {"exec.overhead_us_per_task", "us"},
    {"self_ms.runner", "ms"},         {"self_ms.protocol", "ms"},
    {"self_ms.sim", "ms"},            {"self_ms.gibbs", "ms"},
    {"self_ms.lp", "ms"},             {"self_ms.json", "ms"},
    {"self_ms.cache", "ms"},          {"trace.overhead_s", "s"}};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  std::size_t threads = 1;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "econcast_perfbench: %s\nusage: econcast_perfbench --workload "
               "NAME --seed N --seconds S --trace 0|1 [--scale full|smoke]\n",
               problem.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = std::stoi(value) != 0;
      else if (flag == "--scale" && (value == "full" || value == "smoke"))
        args.scale = value == "full" ? Scale::kFull : Scale::kSmoke;
      else usage("unknown argument " + flag + " " + value);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  bool known = false;
  for (const std::string& name : workload_names())
    known |= name == args.workload;
  if (!known) usage("unknown workload '" + args.workload + "'");
  args.threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(),
                                         1, kMaxThreads);
  return args;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("model name", 0) == 0)
      return line.substr(line.find(':') + 2);
  return "unknown";
}

json::Value fingerprint(std::size_t threads) {
  json::Object f;
  f.set("nproc", static_cast<double>(std::thread::hardware_concurrency()))
      .set("cpu", cpu_model())
      .set("compiler", PERFBENCH_COMPILER)
      .set("build_type", PERFBENCH_BUILD_TYPE)
      .set("threads", static_cast<double>(threads));
  return json::Value(std::move(f));
}

/// Cells attempted and failed, with a note per failure kind.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> notes;

  void add(std::size_t cells, std::size_t bad, const std::string& what) {
    attempted += cells;
    failed += bad;
    if (bad > 0)
      notes.push_back(what + ": " + std::to_string(bad) + "/" +
                      std::to_string(cells) + " cells");
  }
};

/// The "result" member of each line of a results file, as compact JSON.
std::vector<std::string> result_cells(const std::string& bytes) {
  std::vector<std::string> cells;
  std::istringstream in(bytes);
  for (std::string line; std::getline(in, line);)
    cells.push_back(json::dump(json::parse(line).at("result")));
  return cells;
}

/// SHA-256 of per-cell results, one line each.
std::string cells_digest(const std::vector<std::string>& cells) {
  std::string joined;
  for (const std::string& cell : cells) joined += cell + "\n";
  return econcast::util::sha256_hex(joined);
}

/// Number of the first `cells` cells that either side lacks or on which
/// they disagree.
std::size_t mismatches(std::size_t cells,
                       const std::vector<std::string>& expected,
                       const std::vector<std::string>& got) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < cells; ++i)
    if (i >= expected.size() || i >= got.size() || got[i] != expected[i])
      ++bad;
  return bad;
}

struct Expected {
  std::uint64_t default_seed = 1;
  json::Value digests;

  /// The recorded digest of `workload` at `scale`, or "" if none.
  std::string digest(const std::string& workload, Scale scale) const {
    const json::Value* w = digests.as_object().find(workload);
    if (w == nullptr) return "";
    const json::Value* d =
        w->as_object().find(scale == Scale::kFull ? "full" : "smoke");
    return d == nullptr ? "" : d->as_string();
  }
};

Expected load_expected(const std::string& path) {
  const json::Value root = json::parse(read_file(path));
  Expected e;
  e.default_seed = json::u64_from_string(root.at("default_seed").as_string());
  e.digests = root.at("results_sha256");
  return e;
}

/// What every phase of a run shares.
struct Run {
  Args args;
  Expected expected;
  std::string work;  // scratch directory, removed at exit
  std::shared_ptr<econcast::exec::Executor> executor;
  Tally tally;
  Metrics metrics;
  std::string digest;  // results digest of the first repetition
};

/// One untraced set-up + sweep of a workload.
struct Rep {
  double setup_s = 0.0;
  double sweep_s = 0.0;
  std::string digest;
  std::vector<std::string> results;  // per cell; empty unless complete
};

Rep run_rep(Run& run, const std::string& workload, std::uint64_t seed,
            Scale scale, const std::string& dir) {
  Rep rep;
  const std::int64_t t0 = now_ns();
  Setup setup =
      set_up(workload, seed, scale, dir, run.executor, run.args.threads);
  const std::int64_t t1 = now_ns();
  setup.session->run();
  const std::int64_t t2 = now_ns();
  rep.setup_s = static_cast<double>(t1 - t0) / 1e9;
  rep.sweep_s = static_cast<double>(t2 - t1) / 1e9;
  if (setup.session->complete()) {
    const std::string bytes = read_file(setup.session->results_path());
    rep.digest = econcast::util::sha256_hex(bytes);
    rep.results = result_cells(bytes);
  }
  fs::remove_all(dir);
  return rep;
}

/// Runs the smoke-scale sweep of `workload` at the default seed and checks
/// it against the recorded digest. Returns its per-cell results.
std::vector<std::string> smoke_check(Run& run, const std::string& workload) {
  const std::uint64_t seed = run.expected.default_seed;
  const std::size_t cells =
      make_manifest(workload, seed, Scale::kSmoke).spec.cell_count();
  try {
    Rep rep = run_rep(run, workload, seed, Scale::kSmoke, run.work + "/smoke");
    std::printf("digest %s smoke seed %llu: %s\n", workload.c_str(),
                static_cast<unsigned long long>(seed), rep.digest.c_str());
    const bool ok = rep.digest == run.expected.digest(workload, Scale::kSmoke);
    run.tally.add(cells, ok ? 0 : cells, workload + " smoke digest mismatch");
    return rep.results;
  } catch (const std::exception& e) {
    run.tally.add(cells, cells, workload + " smoke threw: " + e.what());
    return {};
  }
}

/// The end-to-end phase: set-up + sweep repetitions for --seconds, then
/// extra set-ups. Returns the first repetition's per-cell results.
std::vector<std::string> measure_sweeps(Run& run) {
  const Args& args = run.args;
  const std::size_t cells =
      make_manifest(args.workload, args.seed, args.scale).spec.cell_count();
  const std::string want_digest =
      args.seed == run.expected.default_seed
          ? run.expected.digest(args.workload, args.scale)
          : std::string();
  std::vector<double> setup_s, sweep_s;
  std::vector<std::string> reference;
  const std::int64_t start = now_ns();
  do {
    try {
      Rep rep = run_rep(run, args.workload, args.seed, args.scale,
                        run.work + "/rep");
      setup_s.push_back(rep.setup_s);
      sweep_s.push_back(rep.sweep_s);
      std::printf("repetition %zu setup_s %.6f sweep_s %.6f\n", sweep_s.size(),
                  rep.setup_s, rep.sweep_s);
      if (sweep_s.size() == 1) {
        reference = rep.results;
        run.digest = rep.digest;
      }
      if (!want_digest.empty() && rep.digest != want_digest)
        run.tally.add(cells, cells, "default-seed digest mismatch");
      else
        run.tally.add(cells, mismatches(cells, reference, rep.results),
                      "results missing or differing between repetitions");
    } catch (const std::exception& e) {
      run.tally.add(cells, cells, std::string("sweep threw: ") + e.what());
    }
  } while (static_cast<double>(now_ns() - start) / 1e9 < args.seconds);
  std::printf("digest %s %s seed %llu: %s (%zu repetitions)\n",
              args.workload.c_str(),
              args.scale == Scale::kFull ? "full" : "smoke",
              static_cast<unsigned long long>(args.seed), run.digest.c_str(),
              sweep_s.size());

  // Set-up alone is far shorter than a sweep on the DES workloads, so it
  // gets extra repetitions (bounded in time) for a steady median.
  const std::int64_t extra_start = now_ns();
  while (setup_s.size() < kMinSetups &&
         static_cast<double>(now_ns() - extra_start) / 1e9 <
             kExtraSetupSeconds) {
    const std::string dir = run.work + "/setup";
    try {
      const std::int64_t t0 = now_ns();
      const Setup setup = set_up(args.workload, args.seed, args.scale, dir,
                                 run.executor, args.threads);
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    } catch (const std::exception& e) {
      run.tally.add(cells, cells, std::string("set-up threw: ") + e.what());
      break;
    }
    fs::remove_all(dir);
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  run.metrics["sweep_s"] = median(sweep_s);
  run.metrics["setup_s"] = median(setup_s);
  run.metrics["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return reference;
}

/// The per-layer phase: a traced pass over the workload, checked against
/// the untraced results, then the layer probes and replays; spans go to
/// `tracer`.
void measure_layers(Run& run, const std::vector<std::string>& reference,
                    Tracer& tracer) {
  const Args& args = run.args;
  Metrics& metrics = run.metrics;
  const std::size_t cells =
      make_manifest(args.workload, args.seed, args.scale).spec.cell_count();
  try {
    Setup setup = set_up(args.workload, args.seed, args.scale,
                         run.work + "/traced", run.executor, args.threads);
    const TracedPass pass =
        traced_pass(setup, *run.executor, args.threads, tracer,
                    run.work + "/traced/traced.jsonl");
    std::printf("cells sha256 untraced %s traced %s\n",
                cells_digest(reference).c_str(),
                cells_digest(pass.cell_results).c_str());
    run.tally.add(cells, mismatches(cells, reference, pass.cell_results),
                  "traced results differ from untraced");
    metrics.insert(pass.metrics.begin(), pass.metrics.end());
    metrics["trace.overhead_s"] = pass.wall_s - metrics.at("sweep_s");
    metrics["runner.cells"] = static_cast<double>(cells);
  } catch (const std::exception& e) {
    run.tally.add(cells, cells, std::string("traced pass threw: ") + e.what());
  }

  // Layer probes: traced passes over every workload's smoke sweep at the
  // default seed. A metric the workload's own pass did not produce (its
  // layer is idle on this workload) is taken from the probes.
  const std::size_t probe_begin = tracer.spans().size();
  Metrics probe;
  for (const std::string& name : workload_names()) {
    const std::vector<std::string> smoke = smoke_check(run, name);
    const std::string dir = run.work + "/probe";
    try {
      Setup setup = set_up(name, run.expected.default_seed, Scale::kSmoke,
                           dir, run.executor, args.threads);
      const TracedPass pass = traced_pass(setup, *run.executor, args.threads,
                                          tracer, dir + "/traced.jsonl");
      const std::size_t n = setup.session->cell_count();
      run.tally.add(n, mismatches(n, smoke, pass.cell_results),
                    name + " probe results differ from smoke");
      if (const auto it = pass.metrics.find("cache.entry_bytes");
          it != pass.metrics.end())
        probe.insert(*it);
    } catch (const std::exception& e) {
      run.tally.add(1, 1, name + " probe threw: " + e.what());
    }
  }
  probe.merge(span_metrics(tracer.spans(), probe_begin, tracer.spans().size()));
  metrics.merge(probe);

  metrics["queue.ns_per_op.n100"] = queue_ns_per_op(100, args.seed);
  metrics["queue.ns_per_op.n256"] = queue_ns_per_op(256, args.seed);
  metrics["exec.overhead_us_per_task"] = executor_us_per_task(
      *run.executor,
      make_manifest("fig2-halfwarm", args.seed, args.scale).spec.cell_count(),
      args.threads);
  std::vector<double> expand_ms;
  for (int i = 0; i < 5; ++i) {
    const econcast::runner::SweepManifest m =
        make_manifest(args.workload, args.seed, args.scale);
    const std::int64_t t0 = now_ns();
    (void)m.spec.expand();
    expand_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  metrics["runner.expand_ms"] = median(expand_ms);
}

/// Prints every metric of [begin, end) and returns the JSON result line.
std::string result_line(Run& run, const MetricSpec* begin,
                        const MetricSpec* end) {
  json::Object reported;
  bool complete = true;
  for (const MetricSpec* spec = begin; spec != end; ++spec) {
    const auto it = run.metrics.find(spec->name);
    if (it == run.metrics.end()) {
      complete = false;
      run.tally.notes.push_back(std::string("not measured: ") + spec->name);
    }
    const double value = it == run.metrics.end() ? 0.0 : it->second;
    std::printf("metric %-28s %.6g %s\n", spec->name, value, spec->unit);
    json::Object m;
    m.set("value", value).set("unit", spec->unit);
    reported.set(spec->name, json::Value(std::move(m)));
  }
  const Tally& tally = run.tally;
  std::printf("metric %-28s %.6g fraction (%zu of %zu cells failed)\n",
              "error_rate",
              tally.attempted == 0 ? 1.0
                                   : static_cast<double>(tally.failed) /
                                         static_cast<double>(tally.attempted),
              tally.failed, tally.attempted);
  for (const std::string& note : tally.notes)
    std::printf("failure %s\n", note.c_str());
  json::Object result;
  result
      .set("correct", complete && tally.failed == 0 && tally.attempted > 0)
      .set("attempted", static_cast<double>(tally.attempted))
      .set("failed", static_cast<double>(tally.failed))
      .set("metrics", json::Value(std::move(reported)));
  return json::dump(json::Value(std::move(result)));
}

}  // namespace

int main(int argc, char** argv) {
  Run run{parse_args(argc, argv), {}, {}, {}, {}, {}, {}};
  const Args& args = run.args;
  run.expected = load_expected(kExpectedPath);
  run.work = std::string(kOutDir) + "/work-" + args.workload;
  run.executor = std::make_shared<econcast::exec::Executor>(args.threads);
  fs::create_directories(kOutDir);
  const json::Value machine = fingerprint(args.threads);
  std::printf("machine %s\n", json::dump(machine).c_str());

  const std::vector<std::string> reference = measure_sweeps(run);
  std::string line;
  if (args.trace) {
    Tracer tracer;
    measure_layers(run, reference, tracer);
    const std::string path = std::string(kOutDir) + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    tracer.write_chrome_trace(path);
    std::printf("trace %s (%zu spans)\n", path.c_str(), tracer.spans().size());
    line = result_line(run, std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    smoke_check(run, args.workload);
    line = result_line(run, std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  fs::remove_all(run.work);

  json::Object record;
  record.set("workload", args.workload)
      .set("seed", json::u64_to_string(args.seed))
      .set("trace", args.trace)
      .set("results_sha256", run.digest)
      .set("machine", machine)
      .set("result", json::parse(line));
  std::ofstream runs(std::string(kOutDir) + "/runs.jsonl", std::ios::app);
  runs << json::dump(json::Value(std::move(record))) << "\n";

  std::printf("%s\n", line.c_str());
  return 0;
}
