// Self-hosted determinism lint for the EconCast tree.
//
// Every PR since the seed stakes correctness on one invariant: the printed
// paper tables are byte-identical across thread counts and shard/merge
// topologies. That invariant dies silently the
// moment a source file reaches for an ambient-nondeterministic primitive —
// wall-clock time, an OS-seeded RNG, hash-table iteration order, pointer
// values as sort keys, hidden thread_local state, or ad-hoc threads outside
// the executor/fabric layers. econcast_lint makes the ban machine-checked at
// build time: a dependency-free token-level scanner (strings and comments
// stripped first, so mentioning a banned name in a docstring is fine) walks
// the source directories and reports every use of a banned construct that is
// not either allowlisted for its directory in lint.json or explicitly
// annotated in place with
//
//     // NOLINT-DETERMINISM(rule): reason
//
// Annotations are counted and reported; a malformed annotation (unknown rule,
// missing reason) is itself a finding, so a typo cannot silently disable a
// rule. No libclang, no regex engine — the same "parse exactly what we need"
// spirit as util/json.
//
// Exit-code contract (mirrors econcast_sweep): 0 clean, 1 findings, 2 usage,
// 3 config error.
#ifndef ECONCAST_TOOLS_LINT_LINT_H
#define ECONCAST_TOOLS_LINT_LINT_H

#include <cstddef>
#include <iosfwd>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace econcast::lint {

enum class Severity { kWarning, kError };

/// "error" / "warning"; throws ConfigError on anything else, naming `what`
/// (the config key or CLI flag being parsed) in the message.
Severity severity_from_token(const std::string& token, const std::string& what);
std::string severity_token(Severity s);

/// One rule of the determinism ruleset. The registry is fixed at compile
/// time; lint.json can disable a rule, change its severity, or allowlist
/// path prefixes, but cannot invent rules (an unknown rule key is a config
/// error — the config and the scanner must agree on the ruleset).
struct RuleInfo {
  std::string id;       // e.g. "wall-clock"; the name used in NOLINT markers
  std::string summary;  // one line: what is banned and why
};

/// The built-in ruleset, in reporting order.
const std::vector<RuleInfo>& rules();
bool is_known_rule(const std::string& id);

/// A reported violation (or a malformed NOLINT annotation, rule "nolint").
struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  Severity severity = Severity::kError;
  std::string message;  // the matched token + rationale
};

/// One NOLINT-DETERMINISM annotation that actually suppressed a finding.
struct Suppression {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string reason;
};

/// Raised by config parsing/validation; the message names the offending key
/// or value. The CLI maps it to exit code 3.
class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(const std::string& message)
      : std::runtime_error(message) {}
};

/// Per-rule configuration (all fields optional in lint.json).
struct RuleConfig {
  bool enabled = true;
  Severity severity = Severity::kError;
  /// Path prefixes exempt from this rule. "bench/" matches everything under
  /// bench; "src/fabric/claim.cpp" matches exactly that file. Matched
  /// against the normalized scan path, so run the tool from the repo root.
  std::vector<std::string> allow;
};

struct Config {
  /// Path prefixes skipped entirely (e.g. the seeded violation fixtures).
  std::vector<std::string> exclude;
  /// Keyed by rule id; always contains every registered rule.
  std::map<std::string, RuleConfig> rules;

  /// Every rule enabled at error severity, no allowlists, no excludes.
  static Config defaults();
};

/// Parses and validates a lint.json document. `source_name` (the file path)
/// prefixes every error message. Unknown top-level keys, unknown rule ids,
/// unknown severity tokens, and wrongly-typed values are ConfigErrors that
/// name the offending key.
Config parse_config(std::string_view json_text, const std::string& source_name);

/// parse_config over the file's contents; unreadable file is a ConfigError.
Config load_config(const std::string& path);

struct ScanResult {
  std::vector<Finding> findings;          // unsuppressed only
  std::vector<Suppression> suppressions;  // annotations that fired
  std::size_t unused_suppressions = 0;    // annotations that matched nothing
  std::size_t files_scanned = 0;

  std::size_t error_count() const;
  std::size_t warning_count() const;
};

/// Scans one in-memory source. `path` is used verbatim in findings and for
/// allowlist matching (normalize_path is applied by the directory walker,
/// not here).
void scan_source(const std::string& path, std::string_view text,
                 const Config& config, ScanResult& out);

/// Strips "./" prefixes and collapses backslashes so allowlist prefixes
/// written with forward slashes match on every platform.
std::string normalize_path(std::string path);

/// Recursively collects C++ sources (.h .hh .hpp .cpp .cc .cxx .inl) under
/// each path (files are taken as-is), drops config.exclude matches, sorts
/// lexicographically (the report order is part of the tool's own
/// determinism contract), and scans. A nonexistent path throws
/// std::invalid_argument (the CLI maps it to usage, exit 2).
ScanResult scan_paths(const std::vector<std::string>& paths,
                      const Config& config);

/// The whole CLI: parses flags (--config FILE, --verbose, --list-rules),
/// loads the config, scans, prints findings to `out` and errors to `err`,
/// and returns the process exit code (0 clean / 1 findings / 2 usage /
/// 3 config error). Split from main() so tests can assert exact exit codes
/// and output without spawning processes.
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

}  // namespace econcast::lint

#endif  // ECONCAST_TOOLS_LINT_LINT_H
