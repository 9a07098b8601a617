// Tests for the determinism lint (tools/lint): token matching with
// string/comment/raw-string stripping, every rule against its seeded
// fixture file (exact lines), NOLINT-DETERMINISM suppression accounting in
// all three placement forms, lint.json validation that names the offending
// key, the CLI exit-code contract (0/1/2/3), and the self-lint of the
// repository tree at HEAD.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "tools/lint/lint.h"

namespace {

using econcast::lint::Config;
using econcast::lint::ConfigError;
using econcast::lint::Finding;
using econcast::lint::ScanResult;
using econcast::lint::Severity;

const std::string kFixtures = ECONCAST_LINT_FIXTURES_DIR;
const std::string kSourceDir = ECONCAST_SOURCE_DIR;

ScanResult scan_text(const std::string& text,
                     const Config& config = Config::defaults(),
                     const std::string& path = "src/test_input.cpp") {
  ScanResult result;
  econcast::lint::scan_source(path, text, config, result);
  return result;
}

ScanResult scan_fixture(const std::string& name,
                        const Config& config = Config::defaults()) {
  return econcast::lint::scan_paths({kFixtures + "/" + name}, config);
}

std::vector<std::size_t> lines_of(const ScanResult& r,
                                  const std::string& rule) {
  std::vector<std::size_t> lines;
  for (const Finding& f : r.findings)
    if (f.rule == rule) lines.push_back(f.line);
  return lines;
}

int run_cli(const std::vector<std::string>& args, std::string* out_text,
            std::string* err_text) {
  std::ostringstream out, err;
  const int rc = econcast::lint::run_cli(args, out, err);
  if (out_text) *out_text = out.str();
  if (err_text) *err_text = err.str();
  return rc;
}

// ------------------------------------------------------------- stripping --

TEST(LintStrip, BannedNamesInStringsAndCommentsAreIgnored) {
  const ScanResult r = scan_text(
      "// std::rand in a comment, and system_clock too\n"
      "/* thread_local std::unordered_map\n"
      "   spanning lines */\n"
      "const char* s = \"std::rand() time(nullptr) srand(1)\";\n"
      "const char* raw = R\"(std::thread steady_clock)\";\n"
      "const char c = 't';\n");
  EXPECT_TRUE(r.findings.empty());
}

TEST(LintStrip, EscapedQuotesDoNotLeakStringContents) {
  const ScanResult r = scan_text(
      "const char* s = \"quote \\\" then std::rand() still inside\";\n"
      "int after = 0;\n");
  EXPECT_TRUE(r.findings.empty());
}

TEST(LintStrip, CodeAfterStringOnSameLineIsStillScanned) {
  const ScanResult r =
      scan_text("const char* s = \"label\"; std::thread t;\n");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "raw-thread");
  EXPECT_EQ(r.findings[0].line, 1u);
}

// -------------------------------------------------------- token matching --

TEST(LintMatch, IdentifierBoundariesAreRespected) {
  // Fragments of longer identifiers must not match.
  const ScanResult r = scan_text(
      "double run_time(double t) { return t; }\n"
      "int time_since_epoch = 0;\n"
      "int my_srand_count = 0;\n"
      "struct randomizer {};\n");
  EXPECT_TRUE(r.findings.empty());
}

TEST(LintMatch, MemberCallNamedTimeIsNotAClockRead) {
  const ScanResult r = scan_text(
      "double a = timer.time();\n"
      "double b = timer_ptr->time();\n"
      "double c = time(nullptr);\n");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].line, 3u);
  EXPECT_EQ(r.findings[0].rule, "wall-clock");
}

TEST(LintMatch, ThisThreadIsNotRawThread) {
  const ScanResult r =
      scan_text("std::this_thread::sleep_for(std::chrono::seconds(1));\n");
  EXPECT_TRUE(r.findings.empty());
}

TEST(LintMatch, PointerKeyedMapAndSetAreFlagged) {
  const ScanResult hit = scan_text(
      "std::map<Node*, int> by_addr;\n"
      "std::set<const Node *> visited;\n"
      "std::map< Widget * , int > spaced;\n");
  EXPECT_EQ(lines_of(hit, "pointer-key"),
            (std::vector<std::size_t>{1, 2, 3}));

  const ScanResult clean = scan_text(
      "std::map<std::string, double> extras;\n"
      "std::map<int, Node*> values_may_be_pointers;\n"
      "std::set<std::pair<int, int>> pairs;\n");
  EXPECT_TRUE(clean.findings.empty());
}

// ------------------------------------------- fixture files, exact lines --

TEST(LintFixtures, RawRand) {
  const ScanResult r = scan_fixture("violations/raw_rand.cpp");
  EXPECT_EQ(r.findings.size(), 4u);
  EXPECT_EQ(lines_of(r, "raw-rand"), (std::vector<std::size_t>{6, 7, 8, 9}));
}

TEST(LintFixtures, WallClock) {
  const ScanResult r = scan_fixture("violations/wall_clock.cpp");
  EXPECT_EQ(r.findings.size(), 3u);
  EXPECT_EQ(lines_of(r, "wall-clock"), (std::vector<std::size_t>{6, 7, 8}));
}

TEST(LintFixtures, UnorderedContainers) {
  const ScanResult r = scan_fixture("violations/unordered.cpp");
  EXPECT_EQ(r.findings.size(), 4u);
  EXPECT_EQ(lines_of(r, "unordered-container"),
            (std::vector<std::size_t>{4, 5, 7, 8}));
}

TEST(LintFixtures, PointerKeys) {
  const ScanResult r = scan_fixture("violations/pointer_key.cpp");
  EXPECT_EQ(r.findings.size(), 2u);
  EXPECT_EQ(lines_of(r, "pointer-key"), (std::vector<std::size_t>{10, 11}));
}

TEST(LintFixtures, ThreadLocalState) {
  const ScanResult r = scan_fixture("violations/thread_local_state.cpp");
  EXPECT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(lines_of(r, "thread-local"), (std::vector<std::size_t>{3}));
}

TEST(LintFixtures, RawHash) {
  const ScanResult r = scan_fixture("violations/raw_hash.cpp");
  EXPECT_EQ(r.findings.size(), 3u);
  EXPECT_EQ(lines_of(r, "raw-hash"), (std::vector<std::size_t>{8, 10, 11}));
}

TEST(LintFixtures, RawThreads) {
  const ScanResult r = scan_fixture("violations/raw_thread.cpp");
  EXPECT_EQ(r.findings.size(), 5u);
  EXPECT_EQ(lines_of(r, "raw-thread"),
            (std::vector<std::size_t>{9, 10, 11, 12, 13}));
}

TEST(LintFixtures, RawHeap) {
  const ScanResult r = scan_fixture("violations/raw_heap.cpp");
  EXPECT_EQ(r.findings.size(), 4u);
  EXPECT_EQ(lines_of(r, "raw-heap"),
            (std::vector<std::size_t>{13, 14, 15, 17}));
}

TEST(LintFixtures, RawHeapIsAllowedOnlyInSim) {
  const Config config =
      econcast::lint::load_config(kSourceDir + "/lint.json");
  const std::string text = "std::priority_queue<int> q;\n";
  EXPECT_TRUE(scan_text(text, config, "src/sim/heap.cpp").findings.empty());
  const ScanResult r = scan_text(text, config, "src/baselines/heap.cpp");
  EXPECT_EQ(lines_of(r, "raw-heap"), (std::vector<std::size_t>{1}));
}

TEST(LintFixtures, MalformedAnnotationsAreFindingsAndDoNotSuppress) {
  const ScanResult r = scan_fixture("violations/bad_nolint.cpp");
  EXPECT_EQ(r.findings.size(), 4u);
  EXPECT_EQ(lines_of(r, "nolint"), (std::vector<std::size_t>{5, 8}));
  EXPECT_EQ(lines_of(r, "wall-clock"), (std::vector<std::size_t>{6, 9}));
  // The messages name the problem.
  bool unknown_rule_named = false;
  bool empty_reason_named = false;
  for (const Finding& f : r.findings) {
    if (f.message.find("wall-clok") != std::string::npos)
      unknown_rule_named = true;
    if (f.message.find("empty reason") != std::string::npos)
      empty_reason_named = true;
  }
  EXPECT_TRUE(unknown_rule_named);
  EXPECT_TRUE(empty_reason_named);
  EXPECT_TRUE(r.suppressions.empty());
}

TEST(LintFixtures, CleanFilesProduceNoFindings) {
  const ScanResult r = scan_fixture("clean/clean.cpp");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_TRUE(r.suppressions.empty());
  EXPECT_EQ(r.unused_suppressions, 0u);
}

TEST(LintFixtures, SuppressionAccountingAcrossPlacementForms) {
  const ScanResult r = scan_fixture("clean/suppressed.cpp");
  EXPECT_TRUE(r.findings.empty());
  ASSERT_EQ(r.suppressions.size(), 3u);
  std::vector<std::string> suppressed_rules;
  for (const auto& s : r.suppressions) suppressed_rules.push_back(s.rule);
  std::sort(suppressed_rules.begin(), suppressed_rules.end());
  EXPECT_EQ(suppressed_rules,
            (std::vector<std::string>{"raw-thread", "thread-local",
                                      "wall-clock"}));
  EXPECT_EQ(r.unused_suppressions, 1u);
  for (const auto& s : r.suppressions) EXPECT_FALSE(s.reason.empty());
}

// ---------------------------------------------------------- allowlisting --

TEST(LintConfig, AllowlistPrefixExemptsDirectoryAndExactFile) {
  Config config = Config::defaults();
  config.rules["raw-thread"].allow = {"src/exec/", "bench/special.cpp"};
  ScanResult r;
  econcast::lint::scan_source("src/exec/executor.cpp", "std::thread t;\n",
                              config, r);
  econcast::lint::scan_source("bench/special.cpp", "std::thread t;\n",
                              config, r);
  EXPECT_TRUE(r.findings.empty());
  econcast::lint::scan_source("src/sim/channel.cpp", "std::thread t;\n",
                              config, r);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].file, "src/sim/channel.cpp");
  // "bench/special.cpp" must not match "bench/special.cpp.bak"-style paths.
  econcast::lint::scan_source("bench/special.cpp2", "std::thread t;\n",
                              config, r);
  EXPECT_EQ(r.findings.size(), 2u);
}

TEST(LintConfig, DisabledRuleAndWarningSeverity) {
  Config config = Config::defaults();
  config.rules["raw-thread"].enabled = false;
  config.rules["wall-clock"].severity = Severity::kWarning;
  const ScanResult r = scan_text(
      "std::thread t;\n"
      "auto now = std::chrono::system_clock::now();\n",
      config);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "wall-clock");
  EXPECT_EQ(r.error_count(), 0u);
  EXPECT_EQ(r.warning_count(), 1u);
}

// ------------------------------------------------------ config rejection --

TEST(LintConfig, GoodConfigParses) {
  const Config config = econcast::lint::load_config(
      kFixtures + "/configs/good.json");
  EXPECT_EQ(config.rules.at("wall-clock").severity, Severity::kWarning);
  EXPECT_EQ(config.rules.at("wall-clock").allow,
            (std::vector<std::string>{"bench/"}));
  EXPECT_FALSE(config.rules.at("raw-thread").enabled);
  EXPECT_EQ(config.exclude, (std::vector<std::string>{"generated/"}));
  // Untouched rules keep their defaults.
  EXPECT_TRUE(config.rules.at("raw-rand").enabled);
  EXPECT_EQ(config.rules.at("raw-rand").severity, Severity::kError);
}

void expect_config_error(const std::string& file,
                         const std::string& named_offender) {
  try {
    econcast::lint::load_config(kFixtures + "/configs/" + file);
    FAIL() << file << " should have been rejected";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(named_offender), std::string::npos)
        << file << ": message \"" << e.what() << "\" does not name \""
        << named_offender << "\"";
  }
}

TEST(LintConfig, RejectionNamesTheOffendingKey) {
  expect_config_error("bad_key.json", "rulez");
  expect_config_error("bad_rule.json", "wall-clok");
  expect_config_error("bad_severity.json", "fatal");
  expect_config_error("bad_version.json", "version");
  expect_config_error("bad_allow.json", "allow");
}

TEST(LintConfig, MissingConfigFileIsAConfigError) {
  EXPECT_THROW(econcast::lint::load_config(kFixtures + "/configs/nope.json"),
               ConfigError);
}

// ------------------------------------------------------------------- CLI --

TEST(LintCli, ExitCodeContract) {
  std::string out, err;
  // 0: clean tree.
  EXPECT_EQ(run_cli({kFixtures + "/clean"}, &out, &err), 0);
  EXPECT_NE(out.find("0 findings"), std::string::npos);
  EXPECT_NE(out.find("3 suppressions used"), std::string::npos);
  EXPECT_NE(out.find("1 unused"), std::string::npos);

  // 1: findings.
  EXPECT_EQ(run_cli({kFixtures + "/violations"}, &out, &err), 1);
  EXPECT_NE(out.find("[raw-rand]"), std::string::npos);
  EXPECT_NE(out.find("[wall-clock]"), std::string::npos);
  EXPECT_NE(out.find("[raw-thread]"), std::string::npos);
  EXPECT_NE(out.find("[raw-hash]"), std::string::npos);
  EXPECT_NE(out.find("[raw-heap]"), std::string::npos);

  // 2: usage — no paths, unknown flag, missing scan path.
  EXPECT_EQ(run_cli({}, &out, &err), 2);
  EXPECT_NE(err.find("usage:"), std::string::npos);
  EXPECT_EQ(run_cli({"--frobnicate", "src"}, &out, &err), 2);
  EXPECT_NE(err.find("--frobnicate"), std::string::npos);
  EXPECT_EQ(run_cli({kFixtures + "/no_such_dir"}, &out, &err), 2);

  // 3: config errors, file named.
  EXPECT_EQ(run_cli({"--config", kFixtures + "/configs/bad_rule.json",
                     kFixtures + "/clean"},
                    &out, &err),
            3);
  EXPECT_NE(err.find("bad_rule.json"), std::string::npos);
  EXPECT_NE(err.find("wall-clok"), std::string::npos);
  EXPECT_EQ(run_cli({"--config", kFixtures + "/configs/missing.json",
                     kFixtures + "/clean"},
                    &out, &err),
            3);
}

TEST(LintCli, WarningsOnlyFindingsExitZero) {
  std::string out, err;
  // good.json downgrades wall-clock to a warning and disables raw-thread,
  // but other rules stay errors — scan only the wall-clock fixture.
  EXPECT_EQ(run_cli({"--config", kFixtures + "/configs/good.json",
                     kFixtures + "/violations/wall_clock.cpp"},
                    &out, &err),
            0);
  EXPECT_NE(out.find("warning: [wall-clock]"), std::string::npos);
  EXPECT_NE(out.find("3 findings (0 errors, 3 warnings)"),
            std::string::npos);
}

TEST(LintCli, ListRulesPrintsTheRegistry) {
  std::string out, err;
  EXPECT_EQ(run_cli({"--list-rules"}, &out, &err), 0);
  for (const auto& info : econcast::lint::rules())
    EXPECT_NE(out.find(info.id + ":"), std::string::npos) << info.id;
}

TEST(LintCli, VerboseListsSuppressions) {
  std::string out, err;
  EXPECT_EQ(run_cli({"--verbose", kFixtures + "/clean/suppressed.cpp"},
                    &out, &err),
            0);
  EXPECT_NE(out.find("note: suppressed [wall-clock]"), std::string::npos);
}

// -------------------------------------------------------------- self-lint --

TEST(LintSelfHost, RepositoryTreeAtHeadIsClean) {
  // The acceptance gate, in-process: the checked-in lint.json over every
  // source directory must come back clean. Run from the source root so the
  // allowlist prefixes match.
  const std::filesystem::path previous = std::filesystem::current_path();
  std::filesystem::current_path(kSourceDir);
  std::string out, err;
  const int rc = run_cli({"--config", "lint.json", "src", "tools", "tests",
                          "bench", "examples"},
                         &out, &err);
  std::filesystem::current_path(previous);
  EXPECT_EQ(rc, 0) << out << err;
  EXPECT_NE(out.find("0 findings"), std::string::npos) << out;
  // The tree's deliberate exceptions are all annotated: every suppression
  // fired and none dangle.
  EXPECT_NE(out.find("0 unused"), std::string::npos) << out;
}

}  // namespace
