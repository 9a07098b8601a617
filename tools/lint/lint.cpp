#include "tools/lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include "util/json.h"

namespace econcast::lint {
namespace {

namespace json = econcast::util::json;

// ----------------------------------------------------------- the ruleset --

// How a banned name is recognized in stripped source text.
enum class MatchKind {
  kExact,   // identifier token, both boundaries non-identifier
  kCall,    // identifier token immediately followed by '(' (spaces allowed),
            // and not a member access (.foo( / ->foo( are fields/methods of
            // our own types, not the libc symbol)
  kPrefix,  // identifier that *starts* with the token (pthread_create, ...)
};

struct TokenSpec {
  const char* token;
  MatchKind kind;
};

struct RuleSpec {
  const char* id;
  const char* summary;
  const char* rationale;  // appended to every finding message
  std::vector<TokenSpec> tokens;
};

// The determinism ruleset. Order is reporting order within a line.
const std::vector<RuleSpec>& rule_specs() {
  static const std::vector<RuleSpec> specs = {
      {"raw-rand",
       "std::rand/srand/random_device outside the seeded RNG entry points",
       "ambient RNG state bypasses the seedable util::Rng streams that make "
       "every run replayable from its seed",
       {{"std::rand", MatchKind::kExact},
        {"srand", MatchKind::kCall},
        {"rand", MatchKind::kCall},
        {"random_device", MatchKind::kExact}}},
      {"wall-clock",
       "wall-clock reads (time(), std::chrono clocks, gettimeofday, ...)",
       "wall-clock time differs between runs; simulation logic must advance "
       "only on the event-queue clock",
       {{"system_clock", MatchKind::kExact},
        {"steady_clock", MatchKind::kExact},
        {"high_resolution_clock", MatchKind::kExact},
        {"gettimeofday", MatchKind::kExact},
        {"clock_gettime", MatchKind::kExact},
        {"localtime", MatchKind::kExact},
        {"gmtime", MatchKind::kExact},
        {"time", MatchKind::kCall},
        {"clock", MatchKind::kCall}}},
      {"unordered-container",
       "std::unordered_map/std::unordered_set in result-producing code",
       "hash-table iteration order varies with libstdc++ version, seed and "
       "insertion history; use std::map/std::vector or sort before iterating",
       {{"unordered_map", MatchKind::kExact},
        {"unordered_set", MatchKind::kExact},
        {"unordered_multimap", MatchKind::kExact},
        {"unordered_multiset", MatchKind::kExact}}},
      {"pointer-key",
       "std::map/std::set keyed by pointer (ordering by address)",
       "pointer values depend on the allocator and ASLR, so iteration order "
       "changes run to run; key by a stable id (NodeId, index) instead",
       {}},  // matched structurally, not by token
      {"thread-local",
       "thread_local state",
       "per-thread state makes results depend on which worker ran a task; "
       "the executor deliberately keeps tasks thread-agnostic",
       {{"thread_local", MatchKind::kExact}}},
      {"raw-thread",
       "raw std::thread/std::async/pthread_* outside src/exec",
       "ad-hoc threads bypass the executor's determinism contract "
       "(serialized progress, index-confined writes); submit batches to "
       "exec::Executor instead",
       {{"std::thread", MatchKind::kExact},
        {"std::jthread", MatchKind::kExact},
        {"std::async", MatchKind::kExact},
        {"pthread_", MatchKind::kPrefix}}},
      {"raw-hash",
       "std::hash (or pointer hashing) where a stable fingerprint is needed",
       "std::hash is salted/implementation-defined — not stable across "
       "libstdc++ versions, processes or ASLR — so keys built from it "
       "cannot be persisted or shared (the result cache would silently "
       "never hit); content-address with util::sha256 instead",
       {{"std::hash", MatchKind::kExact},
        {"hash_value", MatchKind::kCall},
        {"hash_combine", MatchKind::kCall}}},
      {"raw-heap",
       "std::priority_queue or the <algorithm> heap calls outside src/sim",
       "a private event heap carries its own tie-break for equal times, "
       "outside the (time, seq) order sim::EventQueue documents; schedule "
       "on sim::EventQueue instead",
       {{"priority_queue", MatchKind::kExact},
        {"make_heap", MatchKind::kExact},
        {"push_heap", MatchKind::kExact},
        {"pop_heap", MatchKind::kExact}}},
      {"nolint",
       "malformed or unknown NOLINT-DETERMINISM annotation",
       "a typo in a suppression must not silently disable a rule",
       {}},
  };
  return specs;
}

const RuleSpec* find_rule_spec(const std::string& id) {
  for (const RuleSpec& spec : rule_specs())
    if (id == spec.id) return &spec;
  return nullptr;
}

// ------------------------------------------------------------- stripping --

bool is_ident(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

// One NOLINT-DETERMINISM annotation extracted from a comment.
struct Annotation {
  std::size_t line = 0;
  std::vector<std::string> annotation_rules;
  std::string reason;
  bool malformed = false;
  std::string problem;  // set when malformed
  bool used = false;
};

// A source file with comments, string literals and char literals blanked to
// spaces (newlines preserved, so line/column structure is intact) and every
// NOLINT-DETERMINISM annotation pulled out of the comment text.
struct StrippedSource {
  std::string code;
  std::vector<Annotation> annotations;
};

constexpr std::string_view kMarker = "NOLINT-DETERMINISM";

// Parses one annotation starting at the marker inside raw comment text.
// Grammar: NOLINT-DETERMINISM(rule[,rule...]): reason
Annotation parse_annotation(std::string_view comment, std::size_t marker_pos,
                            std::size_t line) {
  Annotation a;
  a.line = line;
  std::size_t i = marker_pos + kMarker.size();
  if (i >= comment.size() || comment[i] != '(') {
    a.malformed = true;
    a.problem = "expected '(' after NOLINT-DETERMINISM";
    return a;
  }
  const std::size_t close = comment.find(')', ++i);
  if (close == std::string_view::npos) {
    a.malformed = true;
    a.problem = "unterminated rule list (missing ')')";
    return a;
  }
  // Split the rule list on commas, trimming spaces.
  std::size_t start = i;
  for (std::size_t p = i; p <= close; ++p) {
    if (p == close || comment[p] == ',') {
      std::size_t b = start, e = p;
      while (b < e && comment[b] == ' ') ++b;
      while (e > b && comment[e - 1] == ' ') --e;
      const std::string rule(comment.substr(b, e - b));
      if (rule.empty()) {
        a.malformed = true;
        a.problem = "empty rule name in rule list";
        return a;
      }
      if (!is_known_rule(rule) || rule == "nolint") {
        a.malformed = true;
        a.problem = "unknown rule \"" + rule + "\"";
        return a;
      }
      a.annotation_rules.push_back(rule);
      start = p + 1;
    }
  }
  std::size_t r = close + 1;
  while (r < comment.size() && comment[r] == ' ') ++r;
  if (r >= comment.size() || comment[r] != ':') {
    a.malformed = true;
    a.problem = "expected \": reason\" after the rule list";
    return a;
  }
  ++r;
  const std::size_t eol = comment.find('\n', r);
  std::string reason(comment.substr(
      r, eol == std::string_view::npos ? comment.size() - r : eol - r));
  // Trim.
  std::size_t b = 0, e = reason.size();
  while (b < e && (reason[b] == ' ' || reason[b] == '\t')) ++b;
  while (e > b && (reason[e - 1] == ' ' || reason[e - 1] == '\t' ||
                   reason[e - 1] == '\r'))
    --e;
  a.reason = reason.substr(b, e - b);
  if (a.reason.empty()) {
    a.malformed = true;
    a.problem = "empty reason — say why the exception is sound";
  }
  return a;
}

// Scans raw comment text (which may span lines) for annotations.
void collect_annotations(std::string_view comment, std::size_t first_line,
                         std::vector<Annotation>& out) {
  std::size_t line = first_line;
  std::size_t search_from = 0;
  std::size_t line_start = 0;
  for (;;) {
    const std::size_t pos = comment.find(kMarker, search_from);
    if (pos == std::string_view::npos) return;
    // Count newlines between line_start and pos to get the marker's line.
    for (std::size_t i = line_start; i < pos; ++i)
      if (comment[i] == '\n') ++line;
    line_start = pos;
    out.push_back(parse_annotation(comment, pos, line));
    search_from = pos + kMarker.size();
  }
}

// The single-pass comment/string/char stripper. Handles // and /* */
// comments, escape sequences in quoted literals, and raw strings
// R"delim(...)delim" (the test tree uses them for JSON fixtures).
StrippedSource strip(std::string_view text) {
  StrippedSource out;
  out.code.assign(text.size(), ' ');
  std::size_t line = 1;
  std::size_t i = 0;
  const std::size_t n = text.size();
  auto copy_newlines = [&](std::size_t from, std::size_t to) {
    for (std::size_t k = from; k < to; ++k)
      if (text[k] == '\n') {
        out.code[k] = '\n';
        ++line;
      }
  };
  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      out.code[i] = '\n';
      ++line;
      ++i;
    } else if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      std::size_t end = text.find('\n', i);
      if (end == std::string_view::npos) end = n;
      collect_annotations(text.substr(i, end - i), line, out.annotations);
      i = end;  // the '\n' is handled by the top of the loop
    } else if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      std::size_t end = text.find("*/", i + 2);
      if (end == std::string_view::npos) end = n;
      else end += 2;
      collect_annotations(text.substr(i, end - i), line, out.annotations);
      copy_newlines(i, end);
      i = end;
    } else if (c == 'R' && i + 1 < n && text[i + 1] == '"' &&
               (i == 0 || !is_ident(text[i - 1]))) {
      // Raw string: R"delim( ... )delim"
      const std::size_t paren = text.find('(', i + 2);
      if (paren == std::string_view::npos) {
        out.code[i] = c;
        ++i;
        continue;
      }
      const std::string delim(text.substr(i + 2, paren - (i + 2)));
      const std::string closer = ")" + delim + "\"";
      std::size_t end = text.find(closer, paren + 1);
      end = end == std::string_view::npos ? n : end + closer.size();
      copy_newlines(i, end);
      i = end;
    } else if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t j = i + 1;
      while (j < n && text[j] != quote) {
        if (text[j] == '\\' && j + 1 < n) ++j;  // skip escaped char
        if (text[j] == '\n') break;             // unterminated: bail at EOL
        ++j;
      }
      if (j < n && text[j] == quote) ++j;
      copy_newlines(i, j);
      i = j;
    } else {
      out.code[i] = c;
      ++i;
    }
  }
  return out;
}

// ------------------------------------------------------------- matching --

// Finds `token` in `line` at or after `from` with identifier boundaries
// (kPrefix relaxes the trailing boundary). Returns npos when absent.
std::size_t find_token(std::string_view line, std::string_view token,
                       std::size_t from, MatchKind kind) {
  for (std::size_t pos = line.find(token, from);
       pos != std::string_view::npos; pos = line.find(token, pos + 1)) {
    if (pos > 0 && is_ident(line[pos - 1])) continue;
    const std::size_t after = pos + token.size();
    if (kind != MatchKind::kPrefix && after < line.size() &&
        is_ident(line[after]))
      continue;
    if (kind == MatchKind::kCall) {
      // Reject member access: .time( / ->time( are our own fields/methods.
      if (pos > 0 && (line[pos - 1] == '.' ||
                      (pos > 1 && line[pos - 1] == '>' &&
                       line[pos - 2] == '-')))
        continue;
      std::size_t p = after;
      while (p < line.size() && line[p] == ' ') ++p;
      if (p >= line.size() || line[p] != '(') continue;
    }
    return pos;
  }
  return std::string_view::npos;
}

// Structural matcher for pointer-keyed ordered containers: std::map< or
// std::set< whose first template argument names a pointer type. Line-local
// (a declaration split across lines is not seen — the rule is a tripwire,
// not a type checker).
bool match_pointer_key(std::string_view line, std::string* matched) {
  for (const char* head : {"std::map", "std::set"}) {
    for (std::size_t pos = find_token(line, head, 0, MatchKind::kExact);
         pos != std::string_view::npos;
         pos = find_token(line, head, pos + 1, MatchKind::kExact)) {
      std::size_t p = pos + std::string_view(head).size();
      while (p < line.size() && line[p] == ' ') ++p;
      if (p >= line.size() || line[p] != '<') continue;
      // Walk the first template argument at depth 1.
      int depth = 1;
      bool star = false;
      std::size_t q = p + 1;
      for (; q < line.size() && depth > 0; ++q) {
        const char c = line[q];
        if (c == '<') ++depth;
        else if (c == '>') --depth;
        else if (c == ',' && depth == 1) break;
        else if (c == '*' && depth == 1) star = true;
      }
      if (star) {
        if (matched)
          *matched = std::string(line.substr(pos, std::min(q, line.size()) -
                                                      pos + 1));
        return true;
      }
    }
  }
  return false;
}

// ------------------------------------------------------- path utilities --

bool path_matches(const std::string& path, const std::string& entry) {
  if (entry.empty()) return false;
  if (entry.back() == '/') return path.rfind(entry, 0) == 0;
  if (path == entry) return true;
  return path.size() > entry.size() && path.rfind(entry, 0) == 0 &&
         path[entry.size()] == '/';
}

bool path_matches_any(const std::string& path,
                      const std::vector<std::string>& entries) {
  for (const std::string& e : entries)
    if (path_matches(path, e)) return true;
  return false;
}

// ---------------------------------------------------------- config file --

void reject_unknown_keys(const json::Object& obj,
                         const std::vector<std::string>& known,
                         const std::string& where) {
  for (const auto& [key, value] : obj.members()) {
    (void)value;
    if (std::find(known.begin(), known.end(), key) == known.end())
      throw ConfigError(where + ": unknown key \"" + key + "\"");
  }
}

std::vector<std::string> string_array(const json::Value& v,
                                      const std::string& where) {
  if (!v.is_array())
    throw ConfigError(where + ": expected an array of strings");
  std::vector<std::string> out;
  for (const json::Value& item : v.as_array()) {
    if (!item.is_string())
      throw ConfigError(where + ": expected an array of strings");
    out.push_back(normalize_path(item.as_string()));
  }
  return out;
}

RuleConfig parse_rule_config(const json::Value& v, const std::string& where) {
  if (!v.is_object()) throw ConfigError(where + ": expected an object");
  const json::Object& obj = v.as_object();
  reject_unknown_keys(obj, {"enabled", "severity", "allow"}, where);
  RuleConfig rc;
  if (const json::Value* enabled = obj.find("enabled")) {
    if (!enabled->is_bool())
      throw ConfigError(where + ".enabled: expected true or false");
    rc.enabled = enabled->as_bool();
  }
  if (const json::Value* severity = obj.find("severity")) {
    if (!severity->is_string())
      throw ConfigError(where + ".severity: expected a string");
    rc.severity =
        severity_from_token(severity->as_string(), where + ".severity");
  }
  if (const json::Value* allow = obj.find("allow"))
    rc.allow = string_array(*allow, where + ".allow");
  return rc;
}

// ----------------------------------------------------------------- scan --

void scan_stripped(const std::string& path, const StrippedSource& src,
                   const Config& config, ScanResult& out) {
  std::vector<Annotation> annotations = src.annotations;
  const RuleConfig& nolint_cfg = config.rules.at("nolint");
  for (const Annotation& a : annotations) {
    if (a.malformed && nolint_cfg.enabled &&
        !path_matches_any(path, nolint_cfg.allow))
      out.findings.push_back(Finding{path, a.line, "nolint",
                                     nolint_cfg.severity,
                                     a.problem + " — syntax is "
                                     "// NOLINT-DETERMINISM(rule): reason"});
  }

  // Which lines carry any code after stripping. An annotation on a line
  // with code (trailing comment) suppresses that line; an annotation on a
  // comment-only line suppresses the next line that has code, so a comment
  // block above the construct works the way it reads.
  std::vector<bool> line_has_code;
  line_has_code.push_back(false);  // lines are 1-based
  {
    std::size_t start = 0;
    while (start <= src.code.size()) {
      std::size_t end = src.code.find('\n', start);
      if (end == std::string::npos) end = src.code.size();
      bool has_code = false;
      for (std::size_t k = start; k < end; ++k)
        if (src.code[k] != ' ' && src.code[k] != '\t' &&
            src.code[k] != '\r') {
          has_code = true;
          break;
        }
      line_has_code.push_back(has_code);
      if (end == src.code.size()) break;
      start = end + 1;
    }
  }
  auto effective_line = [&](std::size_t line) {
    while (line < line_has_code.size() && !line_has_code[line]) ++line;
    return line;
  };
  for (Annotation& a : annotations)
    if (!a.malformed) a.line = effective_line(a.line);

  auto suppressed = [&](std::size_t line, const std::string& rule,
                        const Finding& f) {
    for (Annotation& a : annotations) {
      if (a.malformed || a.line != line) continue;
      for (const std::string& r : a.annotation_rules) {
        if (r == rule) {
          if (!a.used) {
            a.used = true;
            out.suppressions.push_back(
                Suppression{f.file, f.line, rule, a.reason});
          }
          return true;
        }
      }
    }
    return false;
  };

  std::size_t line_no = 0;
  std::size_t start = 0;
  const std::string& code = src.code;
  while (start <= code.size()) {
    ++line_no;
    std::size_t end = code.find('\n', start);
    if (end == std::string::npos) end = code.size();
    const std::string_view line(code.data() + start, end - start);

    for (const RuleSpec& spec : rule_specs()) {
      const RuleConfig& rc = config.rules.at(spec.id);
      if (!rc.enabled || path_matches_any(path, rc.allow)) continue;
      std::string matched;
      bool hit = false;
      if (std::string_view(spec.id) == "pointer-key") {
        hit = match_pointer_key(line, &matched);
      } else {
        for (const TokenSpec& token : spec.tokens) {
          if (find_token(line, token.token, 0, token.kind) !=
              std::string_view::npos) {
            matched = token.token;
            hit = true;
            break;
          }
        }
      }
      if (!hit) continue;
      Finding f{path, line_no, spec.id, rc.severity,
                matched + " — " + spec.rationale};
      if (!suppressed(line_no, spec.id, f)) out.findings.push_back(std::move(f));
    }

    if (end == code.size()) break;
    start = end + 1;
  }

  for (const Annotation& a : annotations)
    if (!a.malformed && !a.used) ++out.unused_suppressions;
}

bool has_cpp_extension(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  for (const char* known : {".h", ".hh", ".hpp", ".cpp", ".cc", ".cxx",
                            ".inl"})
    if (ext == known) return true;
  return false;
}

}  // namespace

// ------------------------------------------------------------ public API --

Severity severity_from_token(const std::string& token,
                             const std::string& what) {
  if (token == "error") return Severity::kError;
  if (token == "warning") return Severity::kWarning;
  throw ConfigError(what + ": unknown severity \"" + token +
                    "\" (expected \"error\" or \"warning\")");
}

std::string severity_token(Severity s) {
  return s == Severity::kError ? "error" : "warning";
}

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> infos = [] {
    std::vector<RuleInfo> out;
    for (const RuleSpec& spec : rule_specs())
      out.push_back(RuleInfo{spec.id, spec.summary});
    return out;
  }();
  return infos;
}

bool is_known_rule(const std::string& id) {
  return find_rule_spec(id) != nullptr;
}

Config Config::defaults() {
  Config c;
  for (const RuleSpec& spec : rule_specs()) c.rules[spec.id] = RuleConfig{};
  return c;
}

std::size_t ScanResult::error_count() const {
  std::size_t n = 0;
  for (const Finding& f : findings)
    if (f.severity == Severity::kError) ++n;
  return n;
}

std::size_t ScanResult::warning_count() const {
  return findings.size() - error_count();
}

std::string normalize_path(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  while (path.rfind("./", 0) == 0) path.erase(0, 2);
  return path;
}

Config parse_config(std::string_view json_text,
                    const std::string& source_name) {
  json::Value root;
  try {
    root = json::parse(json_text);
  } catch (const json::Error& e) {
    throw ConfigError(source_name + ": " + e.what());
  }
  if (!root.is_object())
    throw ConfigError(source_name + ": top level must be an object");
  const json::Object& obj = root.as_object();
  reject_unknown_keys(obj, {"version", "exclude", "rules"}, source_name);
  const json::Value* version = obj.find("version");
  if (version == nullptr)
    throw ConfigError(source_name + ": missing required key \"version\"");
  if (!version->is_number() || version->as_number() != 1.0)
    throw ConfigError(source_name + ": unsupported \"version\" (expected 1)");

  Config config = Config::defaults();
  if (const json::Value* exclude = obj.find("exclude"))
    config.exclude = string_array(*exclude, source_name + ".exclude");
  if (const json::Value* rules_v = obj.find("rules")) {
    if (!rules_v->is_object())
      throw ConfigError(source_name + ".rules: expected an object");
    for (const auto& [rule_id, rule_cfg] : rules_v->as_object().members()) {
      if (!is_known_rule(rule_id))
        throw ConfigError(source_name + ".rules: unknown rule \"" + rule_id +
                          "\"");
      config.rules[rule_id] =
          parse_rule_config(rule_cfg, source_name + ".rules.\"" + rule_id +
                                          "\"");
    }
  }
  return config;
}

Config load_config(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError(path + ": cannot open config file");
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_config(buf.str(), path);
}

void scan_source(const std::string& path, std::string_view text,
                 const Config& config, ScanResult& out) {
  ++out.files_scanned;
  scan_stripped(path, strip(text), config, out);
}

ScanResult scan_paths(const std::vector<std::string>& paths,
                      const Config& config) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& raw : paths) {
    const std::string root = normalize_path(raw);
    const fs::path p(root);
    std::error_code ec;
    if (fs::is_regular_file(p, ec)) {
      files.push_back(root);
    } else if (fs::is_directory(p, ec)) {
      for (fs::recursive_directory_iterator it(p, ec), end; it != end;
           it.increment(ec)) {
        if (ec) break;
        if (it->is_regular_file(ec) && has_cpp_extension(it->path()))
          files.push_back(normalize_path(it->path().generic_string()));
      }
    } else {
      throw std::invalid_argument(root + ": no such file or directory");
    }
  }
  // Deterministic report order regardless of filesystem enumeration order.
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  ScanResult result;
  for (const std::string& file : files) {
    if (path_matches_any(file, config.exclude)) continue;
    std::ifstream in(file, std::ios::binary);
    if (!in) throw std::invalid_argument(file + ": cannot read file");
    std::ostringstream buf;
    buf << in.rdbuf();
    scan_source(file, buf.str(), config, result);
  }
  return result;
}

namespace {

constexpr const char* kUsage =
    "usage: econcast_lint [--config FILE] [--verbose] [--list-rules] PATH...\n"
    "\n"
    "Scans C++ sources for determinism-ruleset violations. PATH arguments\n"
    "are files or directories (recursed; .h/.hpp/.cpp/.cc/... only).\n"
    "Allowlist prefixes in the config match the printed paths, so run from\n"
    "the repository root.\n"
    "\n"
    "  --config FILE   load ruleset configuration (lint.json)\n"
    "  --verbose       also list every suppression that fired\n"
    "  --list-rules    print the ruleset and exit\n"
    "\n"
    "exit codes: 0 clean (warnings allowed) / 1 error findings / 2 usage /\n"
    "            3 config error\n";

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  std::string config_path;
  bool verbose = false;
  bool list_rules = false;
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--config") {
      if (i + 1 >= args.size()) {
        err << "econcast_lint: --config requires a file argument\n" << kUsage;
        return 2;
      }
      config_path = args[++i];
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (!arg.empty() && arg[0] == '-') {
      err << "econcast_lint: unknown flag \"" << arg << "\"\n" << kUsage;
      return 2;
    } else {
      paths.push_back(arg);
    }
  }

  if (list_rules) {
    for (const RuleInfo& info : rules())
      out << info.id << ": " << info.summary << "\n";
    if (paths.empty()) return 0;
  }
  if (paths.empty()) {
    err << kUsage;
    return 2;
  }

  Config config;
  try {
    config = config_path.empty() ? Config::defaults()
                                 : load_config(config_path);
  } catch (const ConfigError& e) {
    err << "econcast_lint: config error: " << e.what() << "\n";
    return 3;
  }

  ScanResult result;
  try {
    result = scan_paths(paths, config);
  } catch (const std::invalid_argument& e) {
    err << "econcast_lint: " << e.what() << "\n" << kUsage;
    return 2;
  }

  for (const Finding& f : result.findings)
    out << f.file << ":" << f.line << ": " << severity_token(f.severity)
        << ": [" << f.rule << "] " << f.message << "\n";
  if (verbose) {
    for (const Suppression& s : result.suppressions)
      out << s.file << ":" << s.line << ": note: suppressed [" << s.rule
          << "]: " << s.reason << "\n";
  }
  out << "econcast_lint: " << result.files_scanned << " files, "
      << result.findings.size() << " findings (" << result.error_count()
      << " errors, " << result.warning_count() << " warnings), "
      << result.suppressions.size() << " suppressions used, "
      << result.unused_suppressions << " unused\n";
  return result.error_count() > 0 ? 1 : 0;
}

}  // namespace econcast::lint
