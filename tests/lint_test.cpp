// End-to-end tests for tools/repro_lint against the committed fixture
// corpus in tests/lint_fixtures/. Each fixture is a minimal file that
// violates exactly one rule (placed so the rule's path scoping fires),
// plus clean files proving the lexer ignores comments and strings.
//
// The lint binary and fixture directory are injected at configure time:
//   REPRO_LINT_BIN      — $<TARGET_FILE:repro_lint>
//   REPRO_LINT_FIXTURES — ${CMAKE_SOURCE_DIR}/tests/lint_fixtures

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;
};

// Runs repro_lint with a fixture dir as --root (so repo-relative path
// scoping treats fixtures as if they lived at their mirrored location)
// and returns exit code + combined output. `subdir` selects one of the
// self-contained fixture trees (arch_cycle, ...); `env` is an optional
// VAR=value prefix (REPRO_THREADS for the determinism tests).
LintRun run_lint_in(const std::string& subdir, const std::string& env,
                    const std::vector<std::string>& args) {
  std::string cmd = "cd \"";
  cmd += REPRO_LINT_FIXTURES;
  if (!subdir.empty()) {
    cmd += '/';
    cmd += subdir;
  }
  cmd += "\" && ";
  if (!env.empty()) {
    cmd += env;
    cmd += ' ';
  }
  cmd += '"';
  cmd += REPRO_LINT_BIN;
  cmd += "\" --root .";
  for (const std::string& a : args) {
    cmd += " \"";
    cmd += a;
    cmd += '"';
  }
  cmd += " 2>&1";

  LintRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    return run;
  }
  std::array<char, 512> buf{};
  while (std::fgets(buf.data(), static_cast<int>(buf.size()), pipe) != nullptr) {
    run.output += buf.data();
  }
  const int status = pclose(pipe);
  if (status >= 0 && WIFEXITED(status)) {
    run.exit_code = WEXITSTATUS(status);
  }
  return run;
}

LintRun run_lint(const std::vector<std::string>& args) {
  return run_lint_in("", "", args);
}

// Counts occurrences of `needle` in `haystack`.
int count_of(const std::string& haystack, const std::string& needle) {
  int n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

struct RuleCase {
  const char* fixture;
  const char* rule_id;
};

// Without a printer gtest shows a parameter as its raw bytes (pointers and
// padding), and that text becomes part of the ctest name, so it would
// change with every build. The case printers below print the rule id.
void PrintTo(const RuleCase& c, std::ostream* os) { *os << c.rule_id; }

// One fixture per rule class; each must fire its own rule exactly once
// and nothing else.
const RuleCase kRuleCases[] = {
    {"src/flowgen/rl001_raw_rng.cpp.fixture", "RL001"},
    {"src/nn/rl002_raw_thread.cpp.fixture", "RL002"},
    {"src/eval/rl003_raw_getenv.cpp.fixture", "RL003"},
    {"src/ml/rl004_stdio.cpp.fixture", "RL004"},
    {"src/nprint/rl005_c_cast.cpp.fixture", "RL005"},
    {"src/diffusion/rl006_wall_clock.cpp.fixture", "RL006"},
    {"src/gan/rl007_bad_metric_name.cpp.fixture", "RL007"},
    {"src/replay/rl008_missing_pragma_once.hpp.fixture", "RL008"},
    {"src/net/rl009_using_namespace.cpp.fixture", "RL009"},
    {"src/serve/rl011_bad_serve_prefix.cpp.fixture", "RL011"},
    {"src/replay/rl012_raw_socket.cpp.fixture", "RL012"},
    {"src/flowgen/rl013_unordered_to_sink.cpp.fixture", "RL013"},
    {"src/replay/rl014_pointer_order.cpp.fixture", "RL014"},
    {"src/diffusion/rl015_thread_id.cpp.fixture", "RL015"},
    {"src/nn/rl016_atomic_float.cpp.fixture", "RL016"},
    {"src/net/rl017_reinterpret.cpp.fixture", "RL017"},
    {"src/replay/rl024_bad_replay_prefix.cpp.fixture", "RL024"},
    {"src/nn/rl025_mutable_model_state.cpp.fixture", "RL025"},
};

class LintRuleFires : public ::testing::TestWithParam<RuleCase> {};

TEST_P(LintRuleFires, FiresExactlyItsOwnRule) {
  const RuleCase& c = GetParam();
  const LintRun run = run_lint({c.fixture});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(count_of(run.output, std::string("[") + c.rule_id + "/"), 1)
      << run.output;
  EXPECT_EQ(count_of(run.output, "error:"), 1) << run.output;
}

INSTANTIATE_TEST_SUITE_P(AllRules, LintRuleFires,
                         ::testing::ValuesIn(kRuleCases),
                         [](const ::testing::TestParamInfo<RuleCase>& param_info) {
                           return param_info.param.rule_id;
                         });

TEST(LintSuppression, AllowWithoutReasonFiresAndSuppressesNothing) {
  const LintRun run =
      run_lint({"src/common/rl010_allow_no_reason.cpp.fixture"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // The bare allow() is itself a finding AND the rule it names still fires.
  EXPECT_EQ(count_of(run.output, "[RL010/"), 1) << run.output;
  EXPECT_EQ(count_of(run.output, "[RL006/"), 1) << run.output;
}

TEST(LintSuppression, JustifiedAllowSilencesTheNamedRule) {
  const LintRun run = run_lint({"src/diffusion/rl006_suppressed.cpp.fixture"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(count_of(run.output, "error:"), 0) << run.output;
}

TEST(LintClean, CommentsAndStringsDoNotFire) {
  const LintRun run = run_lint({"src/common/clean.cpp.fixture"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintClean, HeaderWithPragmaOnceIsClean) {
  const LintRun run = run_lint({"src/common/clean.hpp.fixture"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintScope, StdioIsExemptOutsideSrc) {
  const LintRun run = run_lint({"bench/stdio_ok.cpp.fixture"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// src/serve/ is covered by the lane-model and wall-clock rules; only
// the two dedicated translation units (worker = the background pump's
// thread, clock = the ClockFn wrapper) carry path exemptions.
TEST(LintScope, ServeRawThreadFiresOutsideWorker) {
  const LintRun run = run_lint({"src/serve/rl002_raw_thread.cpp.fixture"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(count_of(run.output, "[RL002/"), 1) << run.output;
}

TEST(LintScope, ServeWorkerIsExemptFromRawThread) {
  const LintRun run = run_lint({"src/serve/worker.cpp.fixture"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintScope, ServeWallClockFiresOutsideClock) {
  const LintRun run = run_lint({"src/serve/rl006_wall_clock.cpp.fixture"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(count_of(run.output, "[RL006/"), 1) << run.output;
}

TEST(LintScope, ServeClockIsExemptFromWallClock) {
  const LintRun run = run_lint({"src/serve/clock.cpp.fixture"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// RL011 is scoped to src/serve/: a serve.-prefixed name is clean there,
// and non-serve subsystems may use their own prefixes freely (the gan
// fixture's bad grammar fires RL007 but never RL011).
TEST(LintScope, ServePrefixedTelemetryIsClean) {
  const LintRun run = run_lint({"src/serve/rl011_good_prefix.cpp.fixture"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintScope, ServePrefixRuleDoesNotApplyOutsideServe) {
  const LintRun run = run_lint({"src/gan/rl007_bad_metric_name.cpp.fixture"});
  EXPECT_EQ(count_of(run.output, "[RL011/"), 0) << run.output;
}

// RL012 confines the socket/poll system headers to the socket
// front-end: the same includes that fire in src/replay are clean under
// src/serve/net/.
TEST(LintScope, SocketHeadersAllowedInServeNet) {
  const LintRun run = run_lint({"src/serve/net/rl012_socket_ok.cpp.fixture"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(count_of(run.output, "[RL012/"), 0) << run.output;
}

// RL024 mirrors the serve contracts for replay: clock reads confine to
// emit/pacer.cpp (the Pacer implementation), and telemetry registered
// from src/replay/ must carry the replay. prefix. A raw clock read
// elsewhere in replay/ double-fires — the repo-wide determinism rule
// AND the replay confinement angle — which is intentional: the finding
// names both the global contract and the local remedy.
TEST(LintScope, ReplayWallClockFiresBothDeterminismAndConfinement) {
  const LintRun run =
      run_lint({"src/replay/emit/rl024_wall_clock.cpp.fixture"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(count_of(run.output, "[RL006/"), 1) << run.output;
  EXPECT_EQ(count_of(run.output, "[RL024/"), 1) << run.output;
}

TEST(LintScope, ReplayPacerIsExemptFromWallClock) {
  const LintRun run = run_lint({"src/replay/emit/pacer.cpp.fixture"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintScope, ReplayPrefixedTelemetryIsClean) {
  const LintRun run = run_lint({"src/replay/rl024_good_prefix.cpp.fixture"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintScope, ReplayPrefixRuleDoesNotApplyOutsideReplay) {
  // The serve fixture's escaped prefix fires RL011, never RL024.
  const LintRun run =
      run_lint({"src/serve/rl011_bad_serve_prefix.cpp.fixture"});
  EXPECT_EQ(count_of(run.output, "[RL024/"), 0) << run.output;
}

// RL013 only fires when the iteration can reach a sink: an
// order-insensitive reduction over the same container type is clean.
TEST(LintDeterminism, UnorderedIterationWithoutSinkIsClean) {
  const LintRun run =
      run_lint({"src/flowgen/rl013_unordered_no_sink.cpp.fixture"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// ---------------------------------------------------------------------------
// Architecture pass (RL020-RL022) over the self-contained fixture
// trees. Each tree mirrors a src/ layout and violates exactly one rule.

struct ArchCase {
  const char* tree;        // subdirectory under tests/lint_fixtures/
  const char* layers;      // manifest inside the tree, or nullptr
  const char* rule_id;     // expected rule, or nullptr for clean
  const char* name;        // test-case label
};

void PrintTo(const ArchCase& c, std::ostream* os) {
  *os << (c.rule_id != nullptr ? c.rule_id : "clean");
}

const ArchCase kArchCases[] = {
    {"arch_cycle", nullptr, "RL020", "Cycle"},
    {"arch_layers", "layers.txt", "RL021", "UpwardInclude"},
    {"arch_confine", "layers.txt", "RL021", "ConfinedHeader"},
    {"arch_selfcontained", nullptr, "RL022", "CompanionNotFirst"},
    {"arch_dangling", nullptr, "RL022", "DanglingInclude"},
    {"arch_clean", "layers.txt", nullptr, "CleanWithAllowEdge"},
};

class LintArchitecture : public ::testing::TestWithParam<ArchCase> {};

TEST_P(LintArchitecture, TreeFiresExactlyItsRule) {
  const ArchCase& c = GetParam();
  std::vector<std::string> args;
  if (c.layers != nullptr) {
    args.push_back("--layers");
    args.push_back(c.layers);
  }
  args.push_back("--include-fixtures");
  args.push_back("src");
  const LintRun run = run_lint_in(c.tree, "", args);
  if (c.rule_id == nullptr) {
    EXPECT_EQ(run.exit_code, 0) << run.output;
    EXPECT_EQ(count_of(run.output, "error:"), 0) << run.output;
  } else {
    EXPECT_EQ(run.exit_code, 1) << run.output;
    EXPECT_EQ(count_of(run.output, std::string("[") + c.rule_id + "/"), 1)
        << run.output;
    EXPECT_EQ(count_of(run.output, "error:"), 1) << run.output;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTrees, LintArchitecture,
                         ::testing::ValuesIn(kArchCases),
                         [](const ::testing::TestParamInfo<ArchCase>& param_info) {
                           return std::string(param_info.param.name);
                         });

// ---------------------------------------------------------------------------
// Engine determinism: the --json stream over the whole fixture corpus
// must be byte-identical at every lane count (per-chunk buffers merged
// in path order).

TEST(LintEngine, JsonOutputIsByteIdenticalAcrossLaneCounts) {
  const std::vector<std::string> args = {"--json", "--include-fixtures",
                                         "src"};
  const LintRun one = run_lint_in("", "REPRO_THREADS=1", args);
  const LintRun two = run_lint_in("", "REPRO_THREADS=2", args);
  const LintRun eight = run_lint_in("", "REPRO_THREADS=8", args);
  ASSERT_EQ(one.exit_code, 1) << one.output;  // rule fixtures do fire
  EXPECT_NE(one.output.find("\"findings\""), std::string::npos) << one.output;
  EXPECT_EQ(one.output, two.output);
  EXPECT_EQ(one.output, eight.output);
  EXPECT_EQ(two.exit_code, 1);
  EXPECT_EQ(eight.exit_code, 1);
}

TEST(LintEngine, GraphDotEmitsModuleEdges) {
  const LintRun run = run_lint_in(
      "arch_clean", "",
      {"--layers", "layers.txt", "--graph-dot", "-", "--include-fixtures",
       "src"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("digraph include_graph"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("\"mid\" -> \"peer\""), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("\"mid\" -> \"base\""), std::string::npos)
      << run.output;
}

TEST(LintCli, BadManifestIsUsageError) {
  const LintRun run = run_lint_in(
      "arch_clean", "",
      {"--layers", "does_not_exist.txt", "--include-fixtures", "src"});
  EXPECT_EQ(run.exit_code, 2) << run.output;
}

struct FormatCase {
  const char* fixture;
  const char* rule_id;
};

void PrintTo(const FormatCase& c, std::ostream* os) { *os << c.rule_id; }

const FormatCase kFormatCases[] = {
    {"format/rf001_trailing_ws.cpp.fixture", "RF001"},
    {"format/rf002_tab_indent.cpp.fixture", "RF002"},
    {"format/rf003_crlf.cpp.fixture", "RF003"},
    {"format/rf004_no_final_newline.cpp.fixture", "RF004"},
    {"format/rf005_long_line.cpp.fixture", "RF005"},
};

class LintFormatFires : public ::testing::TestWithParam<FormatCase> {};

TEST_P(LintFormatFires, FiresItsFormatRule) {
  const FormatCase& c = GetParam();
  const LintRun run = run_lint({"--format-check", c.fixture});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_GE(count_of(run.output, std::string("[") + c.rule_id + "/"), 1)
      << run.output;
}

INSTANTIATE_TEST_SUITE_P(
    AllFormatRules, LintFormatFires, ::testing::ValuesIn(kFormatCases),
    [](const ::testing::TestParamInfo<FormatCase>& param_info) {
      return param_info.param.rule_id;
    });

TEST(LintFormat, CleanFilePasses) {
  const LintRun run = run_lint({"--format-check", "format/rf_clean.cpp.fixture"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintCli, ListRulesNamesEveryRuleClass) {
  const LintRun run = run_lint({"--list-rules"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
  for (const RuleCase& c : kRuleCases) {
    EXPECT_NE(run.output.find(c.rule_id), std::string::npos)
        << "missing " << c.rule_id << " in:\n"
        << run.output;
  }
  EXPECT_NE(run.output.find("RL010"), std::string::npos) << run.output;
  // Whole-corpus rules have no single-file fixture row above; the rule
  // table must still document them.
  for (const char* id : {"RL020", "RL021", "RL022"}) {
    EXPECT_NE(run.output.find(id), std::string::npos)
        << "missing " << id << " in:\n"
        << run.output;
  }
}

TEST(LintCli, UnknownFlagIsUsageError) {
  const LintRun run = run_lint({"--definitely-not-a-flag"});
  EXPECT_EQ(run.exit_code, 2) << run.output;
}

}  // namespace
