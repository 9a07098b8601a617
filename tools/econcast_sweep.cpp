// econcast_sweep — run any JSON sweep manifest end-to-end with
// checkpoint/resume, alone or as one of many workers sharing a cache.
//
//   econcast_sweep <manifest.json> [--results PATH] [--threads N]
//                  [--limit N] [--cache DIR [--lease SEC]] [--order NAME]
//                  [--fresh] [--progress] [--quiet]
//   econcast_sweep <manifest.json> --dry-run
//   econcast_sweep cache-stats <dir>
//   econcast_sweep cache-gc <dir> --max-bytes N
//
// Completed cells stream to the results JSONL next to the manifest (or
// --results). Re-running the same command resumes: the completed prefix is
// loaded, a partially written trailing line (from a kill) is truncated, and
// only the remaining cells execute — the final file is byte-identical to an
// uninterrupted run. --limit N checkpoints after N new cells and exits,
// which is how CI exercises the kill/resume path deterministically.
//
// Distributed sweeps: any number of processes, on any hosts, run the same
// manifest with one shared --cache directory and a --results file each.
// Every worker claims each cell right before computing it (a .claim file
// beside the cell's cache entry), publishes it, and releases the claim;
// cells another live worker holds or has already published are skipped. A
// claim whose process is gone (same host) or that is --lease seconds old is
// taken over. Once no worker is left, running the command once more is a
// warm pass that assembles the canonical results file from the cache. See
// the README's "Distributed sweeps" section.
//
// Exit codes (workers and spool scripts key retry decisions off these):
//   0  success
//   1  runtime failure — a cell failed or results I/O failed, or cells
//      were left to other workers; the checkpoint is intact, retryable
//   2  usage error — bad flags; nothing was read or written
//   3  manifest failure — the file named in the message is unreadable,
//      unparsable or invalid; retrying cannot succeed
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "protocol/protocol_json.h"
#include "runner/cell_cache.h"
#include "runner/cost_model.h"
#include "runner/sweep_session.h"
#include "util/json.h"

namespace {

enum ExitCode : int {
  kExitOk = 0,
  kExitRuntime = 1,
  kExitUsage = 2,
  kExitManifest = 3,
};

/// Wall clock for progress rates, ETAs and summary lines. Telemetry only:
/// no result byte ever depends on it.
double telemetry_now_s() {
  using clock = std::chrono::steady_clock;  // NOLINT-DETERMINISM(wall-clock): telemetry display only, never results
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <manifest.json> [--results PATH] [--threads N]\n"
      "       [--limit N] [--cache DIR|off] [--lease SEC] [--order NAME]\n"
      "       [--fresh] [--progress] [--quiet]\n"
      "   or: %s <manifest.json> --dry-run\n"
      "   or: %s cache-stats <dir>\n"
      "   or: %s cache-gc <dir> --max-bytes N\n"
      "\n"
      "  --results PATH  results JSONL (default: manifest path with\n"
      "                  .json replaced by .results.jsonl); give each\n"
      "                  concurrent worker its own\n"
      "  --threads N     cap worker threads (default: all cores)\n"
      "  --limit N       stop after N newly completed cells; rerun\n"
      "                  to resume from the checkpoint\n"
      "  --cache DIR     content-addressed result cache: cells already in\n"
      "                  DIR skip execution, new cells are published; the\n"
      "                  results file is byte-identical either way\n"
      "                  ('off', the default, disables caching); workers\n"
      "                  sharing DIR claim cells instead of duplicating\n"
      "                  them\n"
      "  --lease SEC     with --cache: a cell claim this old is stale and\n"
      "                  is taken over (default 300; 0 takes over every\n"
      "                  claim). Same-host claims of dead processes are\n"
      "                  taken over at once\n"
      "  --order NAME    submission order for pending cells: expansion\n"
      "                  (default) or cost (longest-expected-first per the\n"
      "                  calibrated cost model; same results, smaller\n"
      "                  makespan on skewed sweeps)\n"
      "  --fresh         discard an existing results file first\n"
      "  --progress      print a line per completed cell to stderr\n"
      "  --quiet         suppress the completion summary\n"
      "  --dry-run       parse + validate the manifest, print the cell\n"
      "                  count and axes, execute nothing\n"
      "  cache-stats     print entry count, bytes and per-protocol\n"
      "                  breakdown of a cache directory\n"
      "  cache-gc        delete oldest entries until the cache directory\n"
      "                  is within --max-bytes\n"
      "\n"
      "exit codes: 0 ok, 1 runtime failure or cells left to other\n"
      "            workers (retryable), 2 usage, 3 manifest\n"
      "            parse/validate failure (fatal)\n",
      argv0, argv0, argv0, argv0);
  std::exit(kExitUsage);
}

bool parse_size(const char* text, std::size_t& out) {
  // strtoull alone is not enough here: it skips leading whitespace, accepts
  // a sign ("-1" silently wraps to 2^64-1 — a huge --threads cap), and
  // saturates on overflow with only errno raised. Require plain decimal
  // digits and reject out-of-range values.
  if (text[0] < '0' || text[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  out = static_cast<std::size_t>(v);
  return static_cast<unsigned long long>(out) == v;  // 32-bit size_t
}

std::string join_doubles(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    if (!out.empty()) out += ", ";
    out += econcast::util::json::format_double(v);
  }
  return out;
}

void print_dry_run(const std::string& manifest_path,
                   const econcast::runner::SweepManifest& manifest) {
  using econcast::protocol::mode_to_token;
  const econcast::runner::SweepSpec& spec = manifest.spec;
  std::printf("manifest: %s\n", manifest_path.c_str());
  std::printf("sweep '%s': %zu cells\n", spec.name().c_str(),
              spec.cell_count());

  std::string protocols;
  for (const auto& p : spec.protocol_axis()) {
    if (!protocols.empty()) protocols += ", ";
    protocols += p.name;
  }
  std::printf("  protocols:   %s (%zu)\n", protocols.c_str(),
              spec.protocol_axis().size());

  std::string modes;
  for (const auto m : spec.mode_axis()) {
    if (!modes.empty()) modes += ", ";
    modes += mode_to_token(m);
  }
  std::printf("  modes:       %s (%zu)\n", modes.c_str(),
              spec.mode_axis().size());

  std::string counts;
  for (const std::size_t n : spec.node_count_axis()) {
    if (!counts.empty()) counts += ", ";
    counts += std::to_string(n);
  }
  std::printf("  node_counts: %s (%zu)\n", counts.c_str(),
              spec.node_count_axis().size());

  std::string powers;
  for (const auto& p : spec.power_axis()) {
    if (!powers.empty()) powers += ", ";
    powers += "(rho " + econcast::util::json::format_double(p.budget) +
              ", L " + econcast::util::json::format_double(p.listen_power) +
              ", X " + econcast::util::json::format_double(p.transmit_power) +
              ")";
  }
  std::printf("  powers:      %s (%zu)\n", powers.c_str(),
              spec.power_axis().size());

  if (spec.node_set_kind() == "sampled")
    std::printf("  h:           %s (%zu)\n",
                join_doubles(spec.heterogeneity_axis()).c_str(),
                spec.heterogeneity_axis().size());

  std::printf("  sigmas:      %s (%zu)\n",
              join_doubles(spec.sigma_axis()).c_str(),
              spec.sigma_axis().size());
  std::printf("  replicates:  %zu\n", spec.replicate_count());
  std::printf("  topology:    %s\n", spec.topology_kind().c_str());
  std::printf("  node_set:    %s\n", spec.node_set_kind().c_str());
  std::printf("  seeding:     base_seed %s, reseed %s\n",
              econcast::util::json::u64_to_string(manifest.base_seed).c_str(),
              manifest.reseed ? "true" : "false");
}

int cache_stats_main(int argc, char** argv) {
  if (argc != 3 || argv[2][0] == '-') usage(argv[0]);
  const std::string dir = argv[2];
  const econcast::runner::CellCache::DirStats stats =
      econcast::runner::CellCache::scan(dir);
  std::printf("cache %s: %zu entries, %llu bytes\n", dir.c_str(),
              stats.entries, static_cast<unsigned long long>(stats.bytes));
  for (const auto& [name, count] : stats.entries_by_protocol)
    std::printf("  %-14s %zu entries\n", name.c_str(), count);
  std::printf("recorded compute: %.3f s of cell wall clock\n",
              stats.total_wall_ms / 1000.0);
  return kExitOk;
}

int cache_gc_main(int argc, char** argv) {
  std::string dir;
  std::size_t max_bytes = 0;
  bool have_max = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-bytes") == 0) {
      if (i + 1 >= argc || !parse_size(argv[++i], max_bytes)) usage(argv[0]);
      have_max = true;
    } else if (argv[i][0] == '-' || !dir.empty()) {
      usage(argv[0]);
    } else {
      dir = argv[i];
    }
  }
  if (dir.empty() || !have_max) usage(argv[0]);
  const econcast::runner::CellCache::GcReport report =
      econcast::runner::CellCache::gc(dir, max_bytes);
  std::printf("cache %s: removed %zu of %zu entries (%llu -> %llu bytes)\n",
              dir.c_str(), report.entries_removed, report.entries_before,
              static_cast<unsigned long long>(report.bytes_before),
              static_cast<unsigned long long>(report.bytes_after));
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace econcast;

  if (argc >= 2) {
    // Cache maintenance subcommands take no manifest; dispatch before flag
    // parsing.
    if (std::strcmp(argv[1], "cache-stats") == 0)
      return cache_stats_main(argc, argv);
    if (std::strcmp(argv[1], "cache-gc") == 0)
      return cache_gc_main(argc, argv);
  }

  std::string manifest_path;
  std::string results_path;
  std::string cache_dir;  // empty = caching off
  bool cost_order = false;
  bool order_set = false;
  std::size_t threads = 0;
  std::size_t limit = 0;
  std::size_t lease = runner::kDefaultClaimLeaseSeconds;
  bool lease_set = false;
  bool fresh = false;
  bool progress = false;
  bool quiet = false;
  bool dry_run = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (std::strcmp(arg, "--results") == 0) {
      results_path = value();
    } else if (std::strcmp(arg, "--threads") == 0) {
      if (!parse_size(value(), threads)) usage(argv[0]);
    } else if (std::strcmp(arg, "--limit") == 0) {
      if (!parse_size(value(), limit)) usage(argv[0]);
    } else if (std::strcmp(arg, "--lease") == 0) {
      if (!parse_size(value(), lease) ||
          lease > static_cast<std::size_t>(
                      std::numeric_limits<std::int64_t>::max()))
        usage(argv[0]);
      lease_set = true;
    } else if (std::strcmp(arg, "--cache") == 0) {
      cache_dir = value();
      if (cache_dir.empty()) usage(argv[0]);
      if (cache_dir == "off") cache_dir.clear();
    } else if (std::strcmp(arg, "--order") == 0) {
      const char* order = value();
      if (std::strcmp(order, "cost") == 0)
        cost_order = true;
      else if (std::strcmp(order, "expansion") == 0)
        cost_order = false;
      else
        usage(argv[0]);
      order_set = true;
    } else if (std::strcmp(arg, "--fresh") == 0) {
      fresh = true;
    } else if (std::strcmp(arg, "--progress") == 0) {
      progress = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(arg, "--dry-run") == 0) {
      dry_run = true;
    } else if (arg[0] == '-') {
      usage(argv[0]);
    } else if (manifest_path.empty()) {
      manifest_path = arg;
    } else {
      usage(argv[0]);
    }
  }
  if (manifest_path.empty()) usage(argv[0]);
  // --dry-run executes nothing, and a lease only means something to a
  // cache's claims.
  if (dry_run && (fresh || limit > 0 || !results_path.empty() ||
                  !cache_dir.empty() || order_set || lease_set))
    usage(argv[0]);
  if (lease_set && cache_dir.empty()) usage(argv[0]);
  if (results_path.empty())
    results_path = runner::SweepSession::default_results_path(manifest_path);

  // Stage 1 — everything that can only fail because of the manifest file
  // itself. A failure here is fatal for this manifest: exit 3, offender
  // named.
  runner::SweepManifest manifest{runner::SweepSpec("unloaded")};
  try {
    manifest = runner::load_manifest(manifest_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "econcast_sweep: manifest '%s': %s\n",
                 manifest_path.c_str(), e.what());
    return kExitManifest;
  }

  if (dry_run) {
    print_dry_run(manifest_path, manifest);
    return kExitOk;
  }

  // Stage 2 — execution. Failures here leave a valid checkpoint behind and
  // are retryable: exit 1, offender named.
  try {
    if (fresh) std::remove(results_path.c_str());

    runner::SweepSession::Options options;
    options.num_threads = threads;
    if (!cache_dir.empty())
      options.cache = std::make_shared<runner::CellCache>(
          cache_dir, runner::kCacheEpoch, static_cast<std::int64_t>(lease));
    options.order = cost_order ? runner::SweepSession::SubmitOrder::kCost
                               : runner::SweepSession::SubmitOrder::kExpansion;
    if (progress) {
      // Cost-model ETA: cells flush in index order, so after cell p.index
      // the completed work is exactly the expansion prefix [0, p.index] and
      // prefix sums of the per-cell cost estimates give done/remaining
      // units directly. The model self-calibrates against this run — ETA =
      // elapsed × remaining/done units — so no absolute ms-per-unit scale
      // is needed.
      struct EtaState {
        std::vector<double> prefix;  // estimate-unit prefix sums
        double start_s = 0.0;
        double first_units = -1.0;  // prefix already done when run started
        std::size_t cells_this_run = 0;
      };
      auto eta = std::make_shared<EtaState>();
      const std::vector<runner::Scenario> cells = manifest.spec.expand();
      eta->prefix.resize(cells.size() + 1, 0.0);
      for (std::size_t i = 0; i < cells.size(); ++i)
        eta->prefix[i + 1] =
            eta->prefix[i] + runner::CostModel::estimate_units(cells[i]);
      eta->start_s = telemetry_now_s();
      options.on_cell_done = [eta](const runner::ScenarioProgress& p) {
        if (eta->first_units < 0.0) eta->first_units = eta->prefix[p.index];
        ++eta->cells_this_run;
        const double elapsed = telemetry_now_s() - eta->start_s;
        const double done_units =
            eta->prefix[p.index + 1] - eta->first_units;
        const double remaining_units =
            eta->prefix.back() - eta->prefix[p.index + 1];
        const double eta_s = done_units > 0.0 && elapsed > 0.0
                                 ? elapsed * remaining_units / done_units
                                 : 0.0;
        const double rate =
            elapsed > 0.0
                ? static_cast<double>(eta->cells_this_run) / elapsed
                : 0.0;
        std::fprintf(stderr, "[%zu/%zu] %s (%.1f cells/s, ETA %.0fs)\n",
                     p.done, p.total, p.scenario->name.c_str(), rate, eta_s);
      };
    }

    const double started_s = telemetry_now_s();
    runner::SweepSession session(std::move(manifest), results_path, options);
    const std::size_t resumed = session.completed_cells();
    const std::size_t ran = session.run(limit);
    const double elapsed_s = telemetry_now_s() - started_s;

    if (!quiet) {
      std::printf("sweep '%s': %zu/%zu cells complete (%zu resumed, %zu run)\n",
                  session.manifest().spec.name().c_str(),
                  session.completed_cells(), session.cell_count(), resumed,
                  ran);
      if (ran > 0 && elapsed_s > 0.0)
        std::printf("throughput: %zu cells in %.2fs (%.1f cells/s)\n", ran,
                    elapsed_s, static_cast<double>(ran) / elapsed_s);
      if (session.cache() != nullptr) {
        const runner::CellCache::Stats cs = session.cache()->stats();
        std::printf("cache: %zu hits, %zu misses, %zu rejected, "
                    "%zu published (%s)\n",
                    cs.hits, cs.misses, cs.rejected, cs.publishes,
                    session.cache()->dir().c_str());
      }
      std::printf("results: %s\n", session.results_path().c_str());
      if (session.complete()) {
        const runner::BatchResult all = session.results();
        std::printf(
            "summary: groupput mean %.6g (stddev %.3g), anyput mean %.6g, "
            "mean node power %.6g\n",
            all.summary.groupput.mean(), all.summary.groupput.stddev(),
            all.summary.anyput.mean(), all.summary.node_power.mean());
      } else if (session.deferred_cells() == 0) {
        std::printf("checkpointed early (--limit %zu); rerun to resume\n",
                    limit);
      }
    }
    if (session.deferred_cells() > 0) {
      std::fprintf(stderr,
                   "econcast_sweep: %zu cell(s) left to other workers in "
                   "cache '%s'; rerun once they finish to assemble the "
                   "results\n",
                   session.deferred_cells(), session.cache()->dir().c_str());
      return kExitRuntime;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "econcast_sweep: manifest '%s': %s\n",
                 manifest_path.c_str(), e.what());
    return kExitRuntime;
  }
  return kExitOk;
}
