// Multi-pass analysis engine behind tools/repro_lint.
//
// The engine owns everything rule-independent: lexing every source file
// into a comment/string-stripped view, scanning suppression directives,
// collecting inputs, scheduling the per-file passes over
// common/parallel::parallel_for, filtering waived findings, and merging
// results in deterministic path order so the output is byte-identical
// at any REPRO_THREADS setting.
//
// Rules live in passes (tools/lint/passes/*.cpp). A pass implements one
// or both hooks:
//   lint_file(file, out)    called once per file, possibly concurrently
//                           with other files — it must only read `file`
//                           and append to `out`;
//   lint_corpus(corpus, out) called once, serially, after every
//                           per-file sweep — whole-repo analyses
//                           (include graph, layering) live here.
//
// Suppressions are engine-level: passes report every site and the
// engine drops findings covered by a justified
// `// repro-lint: allow(RLxxx) -- reason` on (or above) the line.
// RL010 (allow without a reason) is emitted by the engine itself.
#pragma once

#include <cstddef>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace repro::lint {

// ---------------------------------------------------------------------------
// Lexed view of one source file.

/// Parsed `repro-lint: allow(...)` directives: line -> rule ids allowed
/// there. A directive on a comment-only line covers the next line too.
struct Suppressions {
  std::map<std::size_t, std::set<std::string>> by_line;  // 1-based
  std::vector<std::size_t> missing_reason;               // RL010 sites

  bool allows(std::size_t line, const std::string& rule_id) const {
    const auto it = by_line.find(line);
    return it != by_line.end() && it->second.count(rule_id) > 0;
  }
};

struct SourceFile {
  std::string rel_path;    // repo-relative, forward slashes
  std::string canon_path;  // rel_path with a trailing ".fixture" dropped
  std::vector<std::string> raw;       // original lines (no trailing \n)
  std::vector<std::string> code;      // comments/string contents blanked
  std::vector<std::string> comments;  // per-line comment text
  bool ends_with_newline = true;
  bool has_crlf = false;
  std::size_t first_crlf_line = 0;  // 1-based, valid when has_crlf
  Suppressions suppressions;
};

/// Strips comments and string/char literal contents, preserving line
/// structure and column positions (stripped spans become spaces; the
/// quote characters themselves are kept). Also scans suppressions and
/// CRLF state, so a SourceFile is self-contained for every pass.
SourceFile lex_file(std::string rel_path, const std::string& content);

// ---------------------------------------------------------------------------
// Findings.

struct Finding {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string rule_id;
  std::string rule_name;
  std::string message;
};

// ---------------------------------------------------------------------------
// Corpus: every file of one engine run, sorted by rel_path.

struct Corpus {
  std::filesystem::path root;
  std::vector<SourceFile> files;
  // canon_path -> index into files, for include-graph resolution.
  std::map<std::string, std::size_t> by_canon;

  const SourceFile* find_canon(const std::string& canon) const {
    const auto it = by_canon.find(canon);
    return it == by_canon.end() ? nullptr : &files[it->second];
  }
};

// ---------------------------------------------------------------------------
// Pass interface.

class Pass {
 public:
  virtual ~Pass() = default;
  virtual const char* name() const = 0;
  /// Per-file hook; may run concurrently across files.
  virtual void lint_file(const SourceFile& file,
                         std::vector<Finding>& out) const;
  /// Whole-corpus hook; runs once, serially, after the per-file sweep.
  virtual void lint_corpus(const Corpus& corpus,
                           std::vector<Finding>& out) const;
  /// Appends this pass's rule table to a --list-rules dump.
  virtual void describe(std::ostream& out) const;
};

// ---------------------------------------------------------------------------
// Engine.

struct EngineResult {
  std::vector<Finding> findings;  // filtered, sorted (file, line, rule)
  std::size_t files_scanned = 0;
};

class Engine {
 public:
  void add_pass(std::unique_ptr<Pass> pass);
  const std::vector<std::unique_ptr<Pass>>& passes() const { return passes_; }

  /// Runs every registered pass over the corpus. `emit_rl010` is on for
  /// rule mode and off for --format-check (matching the historical
  /// single-pass behavior).
  EngineResult run(const Corpus& corpus, bool emit_rl010) const;

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

// ---------------------------------------------------------------------------
// Input collection and corpus loading.

/// Recursively collects *.cpp *.cc *.cxx *.hpp *.h *.hh under directory
/// inputs (plus *.fixture variants when `include_fixtures`); explicitly
/// named files are always taken. Returns a sorted, deduplicated list.
std::vector<std::filesystem::path> collect_files(
    const std::vector<std::string>& inputs, const std::filesystem::path& root,
    bool include_fixtures, bool& io_error);

/// Reads and lexes every file (in parallel, deterministic slot writes).
/// Unreadable files are reported on stderr and set `io_error`.
Corpus load_corpus(const std::vector<std::filesystem::path>& files,
                   const std::filesystem::path& root, bool& io_error);

// ---------------------------------------------------------------------------
// Shared helpers for passes.

bool path_has_prefix(const std::string& path,
                     const std::vector<std::string>& prefixes);
bool is_header(const std::string& path);

/// Extracts the first "..." literal in `raw` at or after `from`.
std::optional<std::string> first_string_literal(const std::string& raw,
                                                std::size_t from);

/// The target of an `#include "..."` directive on a stripped code line,
/// or nullopt. (Quoted includes only; <...> system headers are not
/// project edges.)
std::optional<std::string> quoted_include_target(const std::string& code,
                                                 const std::string& raw);

/// Function-body line spans [begin, end], 1-based inclusive: every
/// brace-balanced block whose opening brace follows a ')' (allowing
/// const/noexcept/override/final/try and trailing-return tokens in
/// between). Lambdas and nested blocks are contained in their parent
/// span; smallest_enclosing() picks the innermost.
struct FunctionSpans {
  struct Span {
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  std::vector<Span> spans;

  const Span* smallest_enclosing(std::size_t line) const;
};
FunctionSpans find_function_spans(const SourceFile& file);

}  // namespace repro::lint
