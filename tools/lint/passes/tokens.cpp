// The token pass: the original per-file lexer rules RL001-RL012, plus
// the format pass RF001-RF005. Both work on the stripped code view a
// SourceFile carries, so comments and string literals never fire.

#include <ostream>
#include <regex>
#include <string_view>

#include "lint/passes.hpp"

namespace repro::lint {
namespace {

struct Rule {
  const char* id;
  const char* name;
  std::vector<std::string> include;  // path prefixes; empty = everywhere
  std::vector<std::string> allow;    // exempt path prefixes
  const char* pattern_text;          // for --list-rules
  std::regex pattern;                // matched against stripped code
  const char* message;
  const char* rationale;
};

std::vector<Rule> build_rules() {
  const auto re = [](const char* p) {
    return std::regex(p, std::regex::ECMAScript | std::regex::optimize);
  };
  static constexpr const char* kRngPattern =
      R"(\b(std::)?(mt19937(_64)?|minstd_rand0?|ranlux\w+|random_device)\b)"
      R"(|\b(rand|srand|rand_r|drand48)\s*\()";
  static constexpr const char* kCastPattern =
      R"(\(\s*(float|double|(unsigned\s+)?(char|short|int|long))"
      R"(|(std::)?u?int(8|16|32|64)_t|(std::)?(size_t|ptrdiff_t))\s*\))"
      R"(\s*[\w(~!-])";
  static constexpr const char* kClockPattern =
      R"(\b(steady_clock|system_clock|high_resolution_clock)\b)"
      R"(|\b(std::)?(time|clock)\s*\(|\b(gettimeofday|clock_gettime)\s*\()";
  // Matches the system headers, not bare syscall names: identifiers
  // like accept()/bind() are ordinary C++ (src/replay's conntrack has
  // an accept()), but no translation unit can reach the socket/poll
  // syscalls without including one of these.
  static constexpr const char* kSocketPattern =
      R"(#\s*include\s*<(sys/socket\.h|sys/epoll\.h|(sys/)?poll\.h)"
      R"(|netinet/[a-z0-9_]+\.h|arpa/inet\.h)>)";
  std::vector<Rule> rules;
  rules.push_back(Rule{
      "RL001", "raw-rng", {},
      {"src/common/rng."},
      kRngPattern,
      re(kRngPattern),
      "raw RNG construction; all randomness must flow through repro::Rng "
      "(src/common/rng) so streams fork deterministically",
      "an untracked RNG breaks bit-exact reproducibility across runs and "
      "lane counts"});
  rules.push_back(Rule{
      "RL002", "raw-thread", {},
      {"src/common/parallel/", "src/serve/worker."},
      R"(\bstd::(thread|jthread|async)\b)",
      re(R"(\bstd::(thread|jthread|async)\b)"),
      "raw thread creation; use parallel::parallel_for / the shared pool "
      "(src/common/parallel) which chunks deterministically",
      "ad-hoc threads bypass the REPRO_THREADS lane model and make results "
      "depend on scheduling"});
  rules.push_back(Rule{
      "RL003", "raw-getenv", {},
      {"src/common/env.cpp"},
      R"(\b(std::)?getenv\s*\()",
      re(R"(\b(std::)?getenv\s*\()"),
      "raw getenv; read configuration through repro::env_size/env_double/"
      "env_string (src/common/env) which validate and fall back",
      "unvalidated environment reads turn typos into silent UB or throws"});
  rules.push_back(Rule{
      "RL004", "stdio-logging", {"src/"},
      {"src/common/logging."},
      R"(\b(printf|fprintf|puts|fputs|fwrite)\s*\(|\bstd::(cout|cerr|clog)\b)",
      re(R"(\b(printf|fprintf|puts|fputs|fwrite)\s*\(|\bstd::(cout|cerr|clog)\b)"),
      "direct stdio in library code; log through REPRO_LOG_* "
      "(common/logging) — benches/tools/tests/examples are exempt",
      "embedding applications must be able to silence or redirect library "
      "output"});
  rules.push_back(Rule{
      "RL005", "numeric-c-cast",
      {"src/nprint/", "src/net/pcap."},
      {},
      kCastPattern,
      re(kCastPattern),
      "C-style numeric cast in a bit-codec path; use static_cast or the "
      "checked repro::narrow<T>() (common/bytes.hpp)",
      "silent narrowing here corrupts the {1,0,-1} nprint bit semantics "
      "the paper's Figure 2 depends on"});
  rules.push_back(Rule{
      "RL006", "wall-clock", {"src/"},
      {"src/common/telemetry/", "src/serve/clock.",
       "src/replay/emit/pacer."},
      kClockPattern,
      re(kClockPattern),
      "wall-clock read outside telemetry; generated artifacts must not "
      "depend on real time",
      "time-dependent values in the data path make two identical runs "
      "produce different bits"});
  rules.push_back(Rule{
      "RL007", "telemetry-name", {}, {},
      "(name grammar check on REPRO_SPAN / telemetry::count|gauge_set|"
      "observe literals)",
      re(R"(\bREPRO_SPAN\s*\(|\btelemetry::(count|gauge_set|observe)\s*\()"),
      "telemetry name must be lowercase dotted `component.detail` "
      "([a-z0-9_]+(.[a-z0-9_]+)+)",
      "exporters aggregate by prefix; one off-grammar name splinters the "
      "metric tree"});
  rules.push_back(Rule{
      "RL008", "pragma-once", {}, {},
      "(header files must contain #pragma once)",
      re(R"(^\s*#\s*pragma\s+once\b)"),
      "header is missing #pragma once",
      "double inclusion produces ODR violations that surface as baffling "
      "link errors"});
  rules.push_back(Rule{
      "RL009", "using-namespace-std", {}, {},
      R"(\busing\s+namespace\s+std\s*;)",
      re(R"(\busing\s+namespace\s+std\s*;)"),
      "`using namespace std` pollutes every includer's lookup",
      "unqualified std names shadow project helpers (min/max/size) and "
      "break builds at a distance"});
  rules.push_back(Rule{
      "RL011", "serve-telemetry-prefix", {"src/serve/"}, {},
      "(telemetry literals registered from src/serve/ must start with "
      "`serve.`)",
      re(R"(\bREPRO_SPAN\s*\(|\btelemetry::(count|gauge_set|observe)\s*\(|)"
         R"(\bSpanTimer\b|\.\s*(counter|gauge|histogram)\s*\()"),
      "telemetry name registered from src/serve/ must use the `serve.` "
      "prefix",
      "the health exporter and dashboards aggregate the serving metric "
      "tree by prefix; a stray name drops out of every serve view"});
  rules.push_back(Rule{
      "RL012", "raw-socket", {"src/"},
      {"src/serve/net/"},
      kSocketPattern,
      re(kSocketPattern),
      "socket/poll system header outside src/serve/net/; all transport "
      "I/O goes through the socket front-end (SocketServer / "
      "BlockingClient)",
      "transport code outside the front-end bypasses the framed "
      "protocol, connection accounting, and conn-scoped flight events "
      "the serving contract guarantees"});
  // RL024 is one rule id with two enforcement angles (matched by rule
  // *name* in the literal-prefix dispatch below): the replay analogue
  // of RL006's clock confinement and RL011's telemetry-prefix contract.
  rules.push_back(Rule{
      "RL024", "replay-wall-clock", {"src/replay/"},
      {"src/replay/emit/pacer."},
      kClockPattern,
      re(kClockPattern),
      "wall-clock read in src/replay/ outside emit/pacer.cpp; replay "
      "code paces through the Pacer interface (replay/emit/pacer.hpp)",
      "emission must be bit-identical under virtual and real pacing; a "
      "stray clock read drags wall time back into the event loop"});
  rules.push_back(Rule{
      "RL024", "replay-telemetry-prefix", {"src/replay/"}, {},
      "(telemetry literals registered from src/replay/ must start with "
      "`replay.`)",
      re(R"(\bREPRO_SPAN\s*\(|\btelemetry::(count|gauge_set|observe)\s*\()"),
      "telemetry name registered from src/replay/ must use the `replay.` "
      "prefix",
      "rate/jitter dashboards aggregate the replay metric tree by "
      "prefix; a stray name drops out of every replay view"});
  rules.push_back(Rule{
      "RL025", "model-state-mutable", {"src/nn/", "src/diffusion/"},
      {"src/nn/arena."},
      R"(\bmutable\b|\bconst_cast\s*<)",
      re(R"(\bmutable\b|\bconst_cast\s*<)"),
      "`mutable` member or const_cast in model code; the const forward "
      "must not write state (nn/module.hpp)",
      "serving lanes share one model and sample through its const "
      "forward; one writable member turns that sharing into a data race"});
  return rules;
}

bool rule_applies_to(const Rule& rule, const std::string& path) {
  if (!rule.include.empty() && !path_has_prefix(path, rule.include)) {
    return false;
  }
  return !path_has_prefix(path, rule.allow);
}

bool valid_telemetry_name(const std::string& name) {
  static const std::regex grammar(R"(^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$)");
  return std::regex_match(name, grammar);
}

class TokenPass : public Pass {
 public:
  TokenPass() : rules_(build_rules()) {}

  const char* name() const override { return "tokens"; }

  void lint_file(const SourceFile& file,
                 std::vector<Finding>& out) const override {
    for (const Rule& rule : rules_) {
      const std::string_view id(rule.id);
      if (!rule_applies_to(rule, file.rel_path)) continue;

      if (id == "RL008") {
        if (!is_header(file.rel_path)) continue;
        bool found = false;
        for (const std::string& code : file.code) {
          if (std::regex_search(code, rule.pattern)) {
            found = true;
            break;
          }
        }
        if (!found) {
          out.push_back(
              Finding{file.rel_path, 1, rule.id, rule.name, rule.message});
        }
        continue;
      }

      for (std::size_t i = 0; i < file.code.size(); ++i) {
        const std::string& code = file.code[i];
        if (code.empty()) continue;
        // Prefix rules share an id with sibling rules (RL024 has a
        // clock angle and a telemetry angle), so dispatch on the rule
        // *name*, not just the id.
        const std::string_view rule_name(rule.name);
        const char* required_prefix =
            rule_name == "serve-telemetry-prefix"    ? "serve."
            : rule_name == "replay-telemetry-prefix" ? "replay."
                                                     : nullptr;
        if (id == "RL007" || required_prefix != nullptr) {
          // Validate the literal argument of each telemetry call site;
          // names built at runtime or on a later line are out of scope
          // for a lexical pass.
          auto begin = std::sregex_iterator(code.begin(), code.end(),
                                            rule.pattern);
          for (auto it = begin; it != std::sregex_iterator(); ++it) {
            const auto call_end =
                static_cast<std::size_t>(it->position() + it->length());
            const std::optional<std::string> literal =
                first_string_literal(file.raw[i], call_end);
            if (!literal.has_value()) continue;
            const bool bad =
                required_prefix == nullptr
                    ? !valid_telemetry_name(*literal)
                    : literal->rfind(required_prefix, 0) != 0;
            if (bad) {
              out.push_back(Finding{file.rel_path, i + 1, rule.id, rule.name,
                                    std::string(rule.message) + " (got \"" +
                                        *literal + "\")"});
            }
          }
          continue;
        }
        if (std::regex_search(code, rule.pattern)) {
          out.push_back(
              Finding{file.rel_path, i + 1, rule.id, rule.name, rule.message});
        }
      }
    }
  }

  void describe(std::ostream& out) const override {
    for (const Rule& rule : rules_) {
      out << rule.id << "  " << rule.name << "\n    scope: ";
      if (rule.include.empty()) {
        out << "all sources";
      } else {
        for (std::size_t i = 0; i < rule.include.size(); ++i) {
          out << (i ? ", " : "") << rule.include[i];
        }
      }
      if (!rule.allow.empty()) {
        out << "  (exempt: ";
        for (std::size_t i = 0; i < rule.allow.size(); ++i) {
          out << (i ? ", " : "") << rule.allow[i];
        }
        out << ")";
      }
      out << "\n    why:   " << rule.rationale << "\n";
    }
    out << "RL010  allow-without-reason\n    scope: all sources\n"
        << "    why:   a suppression is a waiver of a project invariant; "
        << "the reviewer needs the justification inline\n";
  }

 private:
  std::vector<Rule> rules_;
};

// ---------------------------------------------------------------------------
// Format pass (--format-check).

struct FormatRuleDoc {
  const char* id;
  const char* name;
  const char* message;
};
constexpr FormatRuleDoc kFormatRules[] = {
    {"RF001", "trailing-whitespace", "trailing whitespace"},
    {"RF002", "tab-indent", "tab character (indent with spaces)"},
    {"RF003", "crlf", "CRLF line ending (use LF)"},
    {"RF004", "no-final-newline", "file does not end with a newline"},
    {"RF005", "line-too-long", "line exceeds 100 columns"},
};
constexpr std::size_t kMaxLineLength = 100;

class FormatPass : public Pass {
 public:
  const char* name() const override { return "format"; }

  void lint_file(const SourceFile& file,
                 std::vector<Finding>& out) const override {
    for (std::size_t i = 0; i < file.raw.size(); ++i) {
      const std::string& line = file.raw[i];
      if (!line.empty() && (line.back() == ' ' || line.back() == '\t')) {
        out.push_back(Finding{file.rel_path, i + 1, "RF001",
                              "trailing-whitespace", kFormatRules[0].message});
      }
      if (line.find('\t') != std::string::npos) {
        out.push_back(Finding{file.rel_path, i + 1, "RF002", "tab-indent",
                              kFormatRules[1].message});
      }
      if (line.size() > kMaxLineLength) {
        out.push_back(Finding{file.rel_path, i + 1, "RF005", "line-too-long",
                              kFormatRules[4].message});
      }
    }
    if (file.has_crlf) {
      // One finding per file is enough.
      out.push_back(Finding{file.rel_path, file.first_crlf_line, "RF003",
                            "crlf", kFormatRules[2].message});
    }
    if (!file.ends_with_newline) {
      out.push_back(Finding{file.rel_path, file.raw.size(), "RF004",
                            "no-final-newline", kFormatRules[3].message});
    }
  }

  void describe(std::ostream& out) const override {
    for (const FormatRuleDoc& rule : kFormatRules) {
      out << rule.id << "  " << rule.name << ": " << rule.message << "\n";
    }
  }
};

}  // namespace

std::unique_ptr<Pass> make_token_pass() {
  return std::make_unique<TokenPass>();
}

std::unique_ptr<Pass> make_format_pass() {
  return std::make_unique<FormatPass>();
}

}  // namespace repro::lint
