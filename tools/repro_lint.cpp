// repro_lint — driver for the multi-pass analysis engine in tools/lint/.
//
// The engine (tools/lint/engine.{hpp,cpp}) owns lexing, suppression
// filtering, the parallel per-file sweep, and deterministic merging;
// the rules live in tools/lint/passes/. This file only parses flags,
// assembles the pass list, and renders results.
//
// Modes:
//   (default)        RL001-RL025 rule passes (tokens, determinism,
//                    architecture against tools/lint/layers.txt)
//   --format-check   RF001-RF005 whitespace/line hygiene only
//   --json           machine-readable findings on stdout (byte-identical
//                    at any REPRO_THREADS)
//   --graph-dot F|-  module-level include graph as Graphviz DOT
//   --layers F       layering manifest (default: <root>/tools/lint/layers.txt)
//   --include-fixtures  also collect *.cpp.fixture etc. from directories
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO error.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "lint/engine.hpp"
#include "lint/passes.hpp"

namespace {

namespace fs = std::filesystem;
using namespace repro::lint;

void print_findings_json(std::ostream& out, const EngineResult& result,
                         bool format_mode) {
  out << "{\n  \"mode\": \"" << (format_mode ? "format" : "rules")
      << "\",\n  \"files_scanned\": " << result.files_scanned
      << ",\n  \"findings\": [";
  for (std::size_t i = 0; i < result.findings.size(); ++i) {
    const Finding& f = result.findings[i];
    out << (i ? "," : "") << "\n    {\"file\": "
        << repro::json_escape(f.file) << ", \"line\": " << f.line
        << ", \"rule\": \"" << f.rule_id << "\", \"name\": \""
        << f.rule_name << "\", \"message\": "
        << repro::json_escape(f.message) << "}";
  }
  out << (result.findings.empty() ? "" : "\n  ") << "]\n}\n";
}

void print_rules(const Engine& engine, const Pass& format_pass) {
  std::cout << "repro_lint rule table\n\n";
  for (const auto& pass : engine.passes()) pass->describe(std::cout);
  std::cout << "\nformat rules (--format-check)\n\n";
  format_pass.describe(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  bool format_mode = false;
  bool json_mode = false;
  bool list_rules = false;
  bool include_fixtures = false;
  std::string graph_dot;   // output path, "-" = stdout
  std::string layers_path; // empty = default manifest
  std::vector<std::string> inputs;

  const auto need_value = [&](int& i, const std::string_view arg) {
    if (i + 1 >= argc) {
      std::cerr << "repro_lint: " << arg << " needs a value\n";
      std::exit(2);
    }
    return std::string(argv[++i]);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--root") {
      root = fs::path(need_value(i, arg));
    } else if (arg == "--format-check") {
      format_mode = true;
    } else if (arg == "--json") {
      json_mode = true;
    } else if (arg == "--graph-dot") {
      graph_dot = need_value(i, arg);
    } else if (arg == "--layers") {
      layers_path = need_value(i, arg);
    } else if (arg == "--include-fixtures") {
      include_fixtures = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout
          << "usage: repro_lint [--root <dir>] [--format-check] [--json]\n"
             "                  [--graph-dot <file|->]\n"
             "                  [--layers <manifest>] [--include-fixtures]\n"
             "                  [--list-rules] <paths...>\n";
      return 0;
    } else if (!arg.empty() && arg.front() == '-') {
      std::cerr << "repro_lint: unknown option " << arg << "\n";
      return 2;
    } else {
      inputs.emplace_back(arg);
    }
  }

  // Layering manifest: explicit --layers must parse; the default one is
  // optional so the tool still works on a bare tree.
  LayerManifest manifest;
  try {
    if (!layers_path.empty()) {
      fs::path p(layers_path);
      if (p.is_relative()) p = root / p;
      manifest = parse_layer_manifest(p);
    } else {
      const fs::path fallback = root / "tools" / "lint" / "layers.txt";
      std::error_code ec;
      if (fs::is_regular_file(fallback, ec)) {
        manifest = parse_layer_manifest(fallback);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "repro_lint: " << e.what() << "\n";
    return 2;
  }

  Engine engine;
  if (format_mode) {
    engine.add_pass(make_format_pass());
  } else {
    engine.add_pass(make_token_pass());
    engine.add_pass(make_determinism_pass());
    engine.add_pass(make_architecture_pass(manifest));
  }

  if (list_rules) {
    if (format_mode) {
      // Keep --list-rules output identical in both modes.
      Engine rules;
      rules.add_pass(make_token_pass());
      rules.add_pass(make_determinism_pass());
      rules.add_pass(make_architecture_pass(manifest));
      print_rules(rules, *make_format_pass());
    } else {
      print_rules(engine, *make_format_pass());
    }
    return 0;
  }
  if (inputs.empty()) {
    std::cerr << "repro_lint: no input paths (try --help)\n";
    return 2;
  }

  bool io_error = false;
  const std::vector<fs::path> files =
      collect_files(inputs, root, include_fixtures, io_error);
  const Corpus corpus = load_corpus(files, root, io_error);
  const EngineResult result = engine.run(corpus, /*emit_rl010=*/!format_mode);

  if (!graph_dot.empty()) {
    const std::string dot = include_graph_dot(corpus, manifest);
    if (graph_dot == "-") {
      // DOT owns stdout; findings still drive the exit code.
      std::cout << dot;
      if (io_error) return 2;
      return result.findings.empty() ? 0 : 1;
    }
    std::ofstream out(graph_dot, std::ios::binary);
    if (!out) {
      std::cerr << "repro_lint: cannot write " << graph_dot << "\n";
      return 2;
    }
    out << dot;
  }

  if (json_mode) {
    print_findings_json(std::cout, result, format_mode);
  } else {
    for (const Finding& f : result.findings) {
      std::cout << f.file << ":" << f.line << ": error: [" << f.rule_id
                << "/" << f.rule_name << "] " << f.message << "\n";
    }
    std::cout << "repro_lint: " << result.files_scanned
              << " files scanned, " << result.findings.size()
              << (format_mode ? " format findings\n" : " findings\n");
  }
  if (io_error) return 2;
  return result.findings.empty() ? 0 : 1;
}
