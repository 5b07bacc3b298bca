#include "lint/engine.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <iostream>
#include <regex>
#include <sstream>

#include "common/parallel/parallel_for.hpp"

namespace repro::lint {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Lexer.

namespace {

Suppressions scan_suppressions(const std::vector<std::string>& comments,
                               const std::vector<std::string>& code) {
  Suppressions out;
  static const std::regex directive(
      R"(repro-lint:\s*allow\(\s*([A-Za-z0-9_,\s]+)\s*\))",
      std::regex::ECMAScript);
  static const std::regex reason_tail(
      R"(repro-lint:\s*allow\([^)]*\)\s*--\s*\S)", std::regex::ECMAScript);
  for (std::size_t i = 0; i < comments.size(); ++i) {
    const std::string& comment = comments[i];
    if (comment.find("repro-lint:") == std::string::npos) continue;
    std::smatch m;
    if (!std::regex_search(comment, m, directive)) continue;
    const std::size_t line = i + 1;
    if (!std::regex_search(comment, reason_tail)) {
      out.missing_reason.push_back(line);
      continue;  // an unjustified allow() suppresses nothing
    }
    std::set<std::string> ids;
    std::stringstream list(m[1].str());
    std::string id;
    while (std::getline(list, id, ',')) {
      id.erase(std::remove_if(id.begin(), id.end(),
                              [](unsigned char c) { return std::isspace(c); }),
               id.end());
      if (!id.empty()) ids.insert(id);
    }
    out.by_line[line].insert(ids.begin(), ids.end());
    // Comment-only line: the directive governs the following line.
    const std::string& code_line = code[i];
    const bool code_empty = std::all_of(
        code_line.begin(), code_line.end(),
        [](unsigned char c) { return std::isspace(c) || c == 0; });
    if (code_empty) out.by_line[line + 1].insert(ids.begin(), ids.end());
  }
  return out;
}

}  // namespace

SourceFile lex_file(std::string rel_path, const std::string& content) {
  SourceFile out;
  out.rel_path = std::move(rel_path);
  out.canon_path = out.rel_path;
  if (out.canon_path.ends_with(".fixture")) {
    out.canon_path.resize(out.canon_path.size() - std::strlen(".fixture"));
  }
  out.ends_with_newline = !content.empty() && content.back() == '\n';

  enum class State { kCode, kLineComment, kBlockComment, kString, kChar,
                     kRawString };
  State state = State::kCode;
  std::string raw_line, code_line, comment_line;
  std::string raw_delim;  // raw-string closing delimiter: )delim"
  bool escaped = false;
  std::size_t line_no = 1;

  auto flush_line = [&] {
    out.raw.push_back(raw_line);
    out.code.push_back(code_line);
    out.comments.push_back(comment_line);
    raw_line.clear();
    code_line.clear();
    comment_line.clear();
  };

  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kCode;
      // Unterminated ordinary string/char at end of line: reset (line
      // splices are not worth modeling here).
      if (state == State::kString || state == State::kChar) {
        state = State::kCode;
      }
      if (i > 0 && content[i - 1] == '\r' && !out.has_crlf) {
        out.has_crlf = true;
        out.first_crlf_line = line_no;
      }
      flush_line();
      ++line_no;
      escaped = false;
      continue;
    }
    if (c != '\r') raw_line.push_back(c);
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';

    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          code_line += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          code_line += "  ";
          ++i;
        } else if (c == '"') {
          // Raw string? The opener is R" possibly behind an encoding
          // prefix (u8R", LR", ...).
          const bool raw_string =
              !raw_line.empty() && raw_line.size() >= 2 &&
              raw_line[raw_line.size() - 2] == 'R' &&
              (raw_line.size() == 2 ||
               !(std::isalnum(static_cast<unsigned char>(
                     raw_line[raw_line.size() - 3])) ||
                 raw_line[raw_line.size() - 3] == '_'));
          if (raw_string) {
            state = State::kRawString;
            raw_delim = ")";
            for (std::size_t j = i + 1;
                 j < content.size() && content[j] != '('; ++j) {
              raw_delim += content[j];
            }
            raw_delim += '"';
          } else {
            state = State::kString;
          }
          code_line.push_back('"');
          escaped = false;
        } else if (c == '\'') {
          state = State::kChar;
          code_line.push_back('\'');
          escaped = false;
        } else {
          code_line.push_back(c);
        }
        break;
      case State::kLineComment:
        if (c != '\r') comment_line.push_back(c);
        code_line.push_back(' ');
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          code_line += "  ";
          ++i;
        } else {
          comment_line.push_back(c);
          code_line.push_back(' ');
        }
        break;
      case State::kString:
        if (escaped) {
          escaped = false;
          code_line.push_back(' ');
        } else if (c == '\\') {
          escaped = true;
          code_line.push_back(' ');
        } else if (c == '"') {
          state = State::kCode;
          code_line.push_back('"');
        } else {
          code_line.push_back(' ');
        }
        break;
      case State::kChar:
        if (escaped) {
          escaped = false;
          code_line.push_back(' ');
        } else if (c == '\\') {
          escaped = true;
          code_line.push_back(' ');
        } else if (c == '\'') {
          state = State::kCode;
          code_line.push_back('\'');
        } else {
          code_line.push_back(' ');
        }
        break;
      case State::kRawString: {
        code_line.push_back(' ');
        // Close when the tail of what we've consumed equals )delim".
        if (c == '"' && raw_line.size() >= raw_delim.size() &&
            raw_line.compare(raw_line.size() - raw_delim.size(),
                             raw_delim.size(), raw_delim) == 0) {
          state = State::kCode;
          code_line.back() = '"';
        }
        break;
      }
    }
  }
  if (!raw_line.empty() || out.raw.empty()) flush_line();
  out.suppressions = scan_suppressions(out.comments, out.code);
  return out;
}

// ---------------------------------------------------------------------------
// Pass defaults.

void Pass::lint_file(const SourceFile&, std::vector<Finding>&) const {}
void Pass::lint_corpus(const Corpus&, std::vector<Finding>&) const {}
void Pass::describe(std::ostream&) const {}

// ---------------------------------------------------------------------------
// Engine.

void Engine::add_pass(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
}

EngineResult Engine::run(const Corpus& corpus, bool emit_rl010) const {
  EngineResult result;
  result.files_scanned = corpus.files.size();

  std::map<std::string, const SourceFile*> by_rel;
  for (const SourceFile& file : corpus.files) {
    by_rel.emplace(file.rel_path, &file);
  }
  const auto waived = [&](const Finding& f) {
    const auto it = by_rel.find(f.file);
    return it != by_rel.end() &&
           it->second->suppressions.allows(f.line, f.rule_id);
  };

  // RL010 is the engine's own rule: a suppression without a reason is a
  // finding and suppresses nothing.
  if (emit_rl010) {
    for (const SourceFile& file : corpus.files) {
      for (const std::size_t line : file.suppressions.missing_reason) {
        result.findings.push_back(Finding{
            file.rel_path, line, "RL010", "allow-without-reason",
            "repro-lint: allow(...) without a `-- <reason>` tail"});
      }
    }
  }

  const std::size_t n = corpus.files.size();
  constexpr std::size_t kGrain = 4;
  for (const std::unique_ptr<Pass>& pass : passes_) {
    // Per-file sweep: per-chunk buffers, merged in chunk (= path) order
    // so the result is identical at every lane count.
    std::vector<std::vector<Finding>> parts(
        parallel::chunk_count(n, kGrain));
    parallel::parallel_for(0, n, kGrain,
                           [&](std::size_t begin, std::size_t end) {
      std::vector<Finding>& slot =
          parts[parallel::chunk_index(0, kGrain, begin)];
      for (std::size_t i = begin; i < end; ++i) {
        pass->lint_file(corpus.files[i], slot);
      }
    });
    for (std::vector<Finding>& part : parts) {
      for (Finding& f : part) {
        if (waived(f)) continue;
        result.findings.push_back(std::move(f));
      }
    }

    std::vector<Finding> corpus_findings;
    pass->lint_corpus(corpus, corpus_findings);
    for (Finding& f : corpus_findings) {
      if (waived(f)) continue;
      result.findings.push_back(std::move(f));
    }
  }

  std::stable_sort(result.findings.begin(), result.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule_id < b.rule_id;
                   });
  return result;
}

// ---------------------------------------------------------------------------
// Input collection and corpus loading.

namespace {

bool has_source_extension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
         ext == ".h" || ext == ".hh";
}

bool is_fixture_source(const fs::path& path) {
  return path.extension().string() == ".fixture" &&
         has_source_extension(path.stem());
}

}  // namespace

std::vector<fs::path> collect_files(const std::vector<std::string>& inputs,
                                    const fs::path& root,
                                    bool include_fixtures, bool& io_error) {
  std::vector<fs::path> files;
  for (const std::string& input : inputs) {
    fs::path p(input);
    if (p.is_relative()) p = root / p;
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (fs::recursive_directory_iterator it(p, ec), end; it != end;
           it.increment(ec)) {
        if (ec) break;
        if (!it->is_regular_file()) continue;
        if (has_source_extension(it->path()) ||
            (include_fixtures && is_fixture_source(it->path()))) {
          files.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(p);  // explicit files are always linted
    } else {
      std::cerr << "repro_lint: no such file or directory: " << input << "\n";
      io_error = true;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

namespace {

std::string relative_to(const fs::path& file, const fs::path& root) {
  std::error_code ec;
  const fs::path rel = fs::relative(file, root, ec);
  if (ec || rel.empty() || *rel.begin() == "..") {
    return file.generic_string();
  }
  return rel.generic_string();
}

}  // namespace

Corpus load_corpus(const std::vector<fs::path>& files, const fs::path& root,
                   bool& io_error) {
  Corpus corpus;
  corpus.root = root;

  // Read serially (stable stderr order on IO errors), lex in parallel
  // into pre-sized slots keyed by the sorted file order.
  std::vector<std::string> contents(files.size());
  std::vector<bool> readable(files.size(), false);
  for (std::size_t i = 0; i < files.size(); ++i) {
    std::ifstream in(files[i], std::ios::binary);
    if (!in) {
      std::cerr << "repro_lint: cannot read " << files[i] << "\n";
      io_error = true;
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    contents[i] = buffer.str();
    readable[i] = true;
  }

  corpus.files.resize(files.size());
  parallel::parallel_for(0, files.size(), 8,
                         [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (!readable[i]) continue;
      corpus.files[i] = lex_file(relative_to(files[i], root), contents[i]);
    }
  });

  // Drop unreadable slots, keeping sorted order.
  std::vector<SourceFile> kept;
  kept.reserve(corpus.files.size());
  for (std::size_t i = 0; i < corpus.files.size(); ++i) {
    if (readable[i]) kept.push_back(std::move(corpus.files[i]));
  }
  corpus.files = std::move(kept);
  std::sort(corpus.files.begin(), corpus.files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.rel_path < b.rel_path;
            });
  for (std::size_t i = 0; i < corpus.files.size(); ++i) {
    corpus.by_canon[corpus.files[i].canon_path] = i;
  }
  return corpus;
}

// ---------------------------------------------------------------------------
// Shared helpers.

bool path_has_prefix(const std::string& path,
                     const std::vector<std::string>& prefixes) {
  return std::any_of(prefixes.begin(), prefixes.end(),
                     [&](const std::string& p) {
                       return path.compare(0, p.size(), p) == 0;
                     });
}

bool is_header(const std::string& path) {
  return path.ends_with(".hpp") || path.ends_with(".h") ||
         path.ends_with(".hh") || path.ends_with(".hpp.fixture") ||
         path.ends_with(".h.fixture");
}

std::optional<std::string> first_string_literal(const std::string& raw,
                                                std::size_t from) {
  const std::size_t open = raw.find('"', from);
  if (open == std::string::npos) return std::nullopt;
  std::string value;
  for (std::size_t i = open + 1; i < raw.size(); ++i) {
    if (raw[i] == '\\') {
      ++i;
      if (i < raw.size()) value.push_back(raw[i]);
    } else if (raw[i] == '"') {
      return value;
    } else {
      value.push_back(raw[i]);
    }
  }
  return std::nullopt;
}

std::optional<std::string> quoted_include_target(const std::string& code,
                                                 const std::string& raw) {
  static const std::regex directive(R"(^\s*#\s*include\s*")");
  if (!std::regex_search(code, directive)) return std::nullopt;
  // The stripped line blanks the literal's contents; the raw line still
  // carries the target.
  return first_string_literal(raw, 0);
}

// ---------------------------------------------------------------------------
// Function spans.

const FunctionSpans::Span* FunctionSpans::smallest_enclosing(
    std::size_t line) const {
  const Span* best = nullptr;
  for (const Span& span : spans) {
    if (line < span.begin || line > span.end) continue;
    if (best == nullptr || span.end - span.begin < best->end - best->begin) {
      best = &span;
    }
  }
  return best;
}

FunctionSpans find_function_spans(const SourceFile& file) {
  FunctionSpans out;
  // A '{' opens a function body when the preceding significant tokens
  // end in ')' (allowing const/noexcept/override/final/try and a
  // trailing-return type in between). Only the OUTERMOST such block is
  // recorded: nested control-flow blocks belong to their function.
  static const std::regex function_tail(
      R"(\)\s*(const\b)?\s*(noexcept(\s*\([^()]*\))?)?\s*)"
      R"((override\b|final\b)?\s*(->\s*[~\w:<>,&*\[\]\s]+)?\s*(try\b)?\s*$)");

  std::string tail;  // rolling window of recent significant chars
  int depth = 0;
  bool in_span = false;
  int span_open_depth = 0;
  std::size_t span_begin = 0;

  for (std::size_t li = 0; li < file.code.size(); ++li) {
    for (const char c : file.code[li]) {
      if (std::isspace(static_cast<unsigned char>(c)) || c == '\0') {
        if (!tail.empty() && tail.back() != ' ') tail.push_back(' ');
        continue;
      }
      if (c == '{') {
        if (!in_span) {
          std::string probe = tail;
          while (!probe.empty() && probe.back() == ' ') probe.pop_back();
          if (std::regex_search(probe, function_tail)) {
            in_span = true;
            span_open_depth = depth;
            span_begin = li + 1;
          }
        }
        ++depth;
      } else if (c == '}') {
        --depth;
        if (in_span && depth == span_open_depth) {
          out.spans.push_back(FunctionSpans::Span{span_begin, li + 1});
          in_span = false;
        }
      }
      tail.push_back(c);
      if (tail.size() > 96) tail.erase(0, tail.size() - 96);
    }
  }
  if (in_span) {
    out.spans.push_back(FunctionSpans::Span{span_begin, file.code.size()});
  }
  return out;
}

}  // namespace repro::lint
