// Shared helpers for the benchmark harnesses. Every bench binary regenerates
// one table or figure of the paper and prints (a) the measured rows and (b)
// a `paper:` reference line with the values/claims the paper states, so the
// reproduction can be eyeballed in one pass. The sweep-shaped benches
// additionally emit their sweeps as JSON manifests and execute them through
// runner::SweepSession (progress on stderr, tables on stdout), so every
// figure doubles as an `econcast_sweep`-runnable data file.
#ifndef ECONCAST_BENCH_BENCH_COMMON_H
#define ECONCAST_BENCH_BENCH_COMMON_H

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>

#include "runner/scenario_runner.h"
#include "runner/sweep_session.h"

namespace econcast::bench {

/// Standard banner: what is being reproduced and from where.
inline void banner(const char* experiment, const char* description) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", experiment, description);
  std::printf("(Chen, Ghaderi, Rubenstein, Zussman, CoNEXT'16 / arXiv:1610.04203)\n");
  std::printf("================================================================\n");
}

/// Reads an integer knob from argv ("--samples=N" style positional override)
/// falling back to `def`. Benches accept a single optional positional arg to
/// scale their workload; "--flag" arguments are skipped.
inline long knob(int argc, char** argv, long def) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] == '-') continue;
    const long v = std::atol(argv[i]);
    return v > 0 ? v : def;
  }
  return def;
}

/// Reads a "--name=value" string flag from argv. Only the '=' form is
/// supported so flag values can never be mistaken for the positional
/// workload knob (and vice versa).
inline std::string flag(int argc, char** argv, const char* name,
                        const std::string& def = "") {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=')
      return std::string(argv[i] + len + 1);
  }
  return def;
}

/// True when the bare flag `name` appears anywhere in argv.
inline bool bool_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return true;
  return false;
}

/// Directory the sweep-shaped benches write manifests/results into:
/// --manifest-dir=DIR if given, else <temp>/<default_name>-<pid>, so
/// concurrent runs of one bench never share a directory. Created on demand.
inline std::string manifest_dir(int argc, char** argv,
                                const char* default_name) {
  std::string dir = flag(argc, argv, "--manifest-dir");
  if (dir.empty())
    dir = (std::filesystem::temp_directory_path() /
           (std::string(default_name) + "-" + std::to_string(::getpid())))
              .string();
  std::filesystem::create_directories(dir);
  return dir;
}

/// Progress hook for the long sweeps: "[label] done/total name" on stderr
/// (stdout stays reserved for the tables) every `every` completions and at
/// the end. every == 0 picks roughly one line per eighth of the batch.
inline std::function<void(const runner::ScenarioProgress&)> progress_printer(
    std::string label, std::size_t every = 0) {
  return [label = std::move(label),
          every](const runner::ScenarioProgress& p) mutable {
    std::size_t stride = every;
    if (stride == 0) stride = p.total > 8 ? p.total / 8 : 1;
    if (p.done % stride == 0 || p.done == p.total)
      std::fprintf(stderr, "[%s] %zu/%zu %s\n", label.c_str(), p.done,
                   p.total, p.scenario->name.c_str());
  };
}

/// Emits `spec` as "<dir>/<name>.manifest.json", executes it through a fresh
/// SweepSession (stale results are discarded — benches always recompute),
/// and returns the aggregated batch. The manifest file stays behind so the
/// same sweep can be re-run or resumed standalone:
///   econcast_sweep <dir>/<name>.manifest.json
inline runner::BatchResult run_manifest_sweep(
    const std::string& dir, const std::string& name,
    const runner::SweepSpec& spec, std::uint64_t base_seed,
    bool reseed = true,
    std::shared_ptr<exec::Executor> executor = nullptr) {
  const std::string manifest_path = dir + "/" + name + ".manifest.json";
  const std::string results_path = dir + "/" + name + ".results.jsonl";
  const runner::SweepManifest manifest(spec, base_seed, reseed);
  runner::write_manifest(manifest, manifest_path);
  std::remove(results_path.c_str());

  runner::SweepSession::Options options;
  options.executor = std::move(executor);
  options.on_cell_done = progress_printer(name);
  runner::SweepSession session(manifest, results_path, options);
  std::fprintf(stderr, "[%s] manifest: %s (%zu cells)\n", name.c_str(),
               manifest_path.c_str(), session.cell_count());
  session.run();
  return session.results();
}

}  // namespace econcast::bench

#endif  // ECONCAST_BENCH_BENCH_COMMON_H
