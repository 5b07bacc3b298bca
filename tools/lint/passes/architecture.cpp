// The architecture pass: RL020-RL022. Builds the file-level include
// graph of every src/ file in the corpus and checks it against the
// layering manifest (tools/lint/layers.txt):
//
//   RL020  include cycles (strongly connected components);
//   RL021  layer-order violations — an include that points at a higher
//          layer, an undeclared same-layer edge, an undeclared module,
//          or a confined header included outside its allowed prefix;
//   RL022  self-containment — a .cpp must include its companion header
//          first (proving the header compiles standalone), and every
//          quoted include must resolve to a repo header.
//
// Project includes are repo-root-relative under src/ (the repo
// convention: `#include "common/rng.hpp"` is src/common/rng.hpp). A
// trailing ".fixture" is transparent, so the fixture corpora mirror
// src/ exactly.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <ostream>
#include <regex>
#include <sstream>
#include <stdexcept>

#include "lint/passes.hpp"

namespace repro::lint {

// ---------------------------------------------------------------------------
// Manifest.

LayerManifest parse_layer_manifest(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read layering manifest: " +
                             path.generic_string());
  }
  LayerManifest manifest;
  int layer = 0;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream tokens(line);
    std::string word;
    if (!(tokens >> word)) continue;
    const auto fail = [&](const std::string& why) {
      throw std::runtime_error(path.generic_string() + ":" +
                               std::to_string(line_no) + ": " + why);
    };
    if (word == "layer") {
      std::string module;
      bool any = false;
      while (tokens >> module) {
        if (manifest.layer_of.count(module) > 0) {
          fail("module '" + module + "' declared twice");
        }
        manifest.layer_of[module] = layer;
        any = true;
      }
      if (!any) fail("`layer` needs at least one module");
      ++layer;
    } else if (word == "allow") {
      std::string from, arrow, to;
      if (!(tokens >> from >> arrow >> to) || arrow != "->") {
        fail("`allow` grammar is: allow <from> -> <to>");
      }
      manifest.allowed.emplace(from, to);
    } else if (word == "confine") {
      std::string target, includer;
      if (!(tokens >> target >> includer)) {
        fail("`confine` grammar is: confine <target-prefix> "
             "<includer-prefix>");
      }
      manifest.confined.emplace_back(target, includer);
    } else {
      fail("unknown directive '" + word + "'");
    }
  }
  for (const auto& [from, to] : manifest.allowed) {
    if (manifest.layer_of.count(from) == 0 ||
        manifest.layer_of.count(to) == 0) {
      throw std::runtime_error(path.generic_string() + ": allow " + from +
                               " -> " + to + " names an undeclared module");
    }
  }
  manifest.loaded = true;
  return manifest;
}

namespace {

constexpr const char* kCycleMessage =
    "include cycle in src/ (modules must form a DAG)";

struct RuleDoc {
  const char* id;
  const char* name;
  const char* message;
  const char* rationale;
};
constexpr RuleDoc kDocs[] = {
    {"RL020", "include-cycle", kCycleMessage,
     "a cyclic include means no build order exists in which each header "
     "is self-contained; refactors ripple unboundedly"},
    {"RL021", "layer-violation",
     "include violates the layering manifest (tools/lint/layers.txt)",
     "the serving stack depends on lower layers never reaching "
     "up; one upward include couples every release of both layers"},
    {"RL022", "non-self-contained",
     "self-containment violation (companion header not included first, "
     "or include does not resolve)",
     "a .cpp that includes its own header first proves that header "
     "compiles standalone; anything else hides include-order bugs"},
};

/// Module of a src/ canon path: "src/serve/net/x.hpp" -> "serve".
std::string module_of(const std::string& canon) {
  const std::size_t begin = std::strlen("src/");
  const std::size_t slash = canon.find('/', begin);
  if (slash == std::string::npos) return {};
  return canon.substr(begin, slash - begin);
}

struct IncludeSite {
  std::size_t line = 0;      // 1-based
  std::string target;        // as written: "common/rng.hpp"
  std::size_t to = SIZE_MAX; // corpus file index when the target is in-corpus
  bool resolved = false;     // in corpus OR on disk under root/src
};

std::vector<IncludeSite> include_sites(const Corpus& corpus,
                                       const SourceFile& file) {
  std::vector<IncludeSite> sites;
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::optional<std::string> target =
        quoted_include_target(file.code[i], file.raw[i]);
    if (!target.has_value()) continue;
    IncludeSite site;
    site.line = i + 1;
    site.target = *target;
    const std::string canon = "src/" + *target;
    const auto it = corpus.by_canon.find(canon);
    if (it != corpus.by_canon.end()) {
      site.to = it->second;
      site.resolved = true;
    } else {
      std::error_code ec;
      site.resolved =
          std::filesystem::is_regular_file(corpus.root / canon, ec) ||
          std::filesystem::is_regular_file(
              corpus.root / (canon + ".fixture"), ec);
    }
    sites.push_back(std::move(site));
  }
  return sites;
}

/// First `#include` directive (quoted or angle) in the file, or 0.
std::size_t first_include_line(const SourceFile& file) {
  static const std::regex directive(R"(^\s*#\s*include\b)");
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    if (std::regex_search(file.code[i], directive)) return i + 1;
  }
  return 0;
}

// Tarjan SCC over the in-corpus src/ subgraph.
class Tarjan {
 public:
  explicit Tarjan(const std::vector<std::vector<std::size_t>>& adj)
      : adj_(adj), state_(adj.size()) {}

  std::vector<std::vector<std::size_t>> run() {
    for (std::size_t v = 0; v < adj_.size(); ++v) {
      if (state_[v].index == kUnvisited) strongconnect(v);
    }
    return components_;
  }

 private:
  static constexpr std::size_t kUnvisited = SIZE_MAX;
  struct NodeState {
    std::size_t index = kUnvisited;
    std::size_t lowlink = 0;
    bool on_stack = false;
  };

  void strongconnect(std::size_t v) {
    // Iterative DFS: each frame tracks the next edge to explore.
    struct Frame {
      std::size_t node;
      std::size_t edge = 0;
    };
    std::vector<Frame> call_stack{Frame{v}};
    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const std::size_t u = frame.node;
      if (frame.edge == 0) {
        state_[u].index = state_[u].lowlink = next_index_++;
        stack_.push_back(u);
        state_[u].on_stack = true;
      }
      bool descended = false;
      while (frame.edge < adj_[u].size()) {
        const std::size_t w = adj_[u][frame.edge++];
        if (state_[w].index == kUnvisited) {
          call_stack.push_back(Frame{w});
          descended = true;
          break;
        }
        if (state_[w].on_stack) {
          state_[u].lowlink = std::min(state_[u].lowlink, state_[w].index);
        }
      }
      if (descended) continue;
      if (state_[u].lowlink == state_[u].index) {
        std::vector<std::size_t> component;
        for (;;) {
          const std::size_t w = stack_.back();
          stack_.pop_back();
          state_[w].on_stack = false;
          component.push_back(w);
          if (w == u) break;
        }
        components_.push_back(std::move(component));
      }
      call_stack.pop_back();
      if (!call_stack.empty()) {
        Frame& parent = call_stack.back();
        state_[parent.node].lowlink =
            std::min(state_[parent.node].lowlink, state_[u].lowlink);
      }
    }
  }

  const std::vector<std::vector<std::size_t>>& adj_;
  std::vector<NodeState> state_;
  std::vector<std::size_t> stack_;
  std::size_t next_index_ = 0;
  std::vector<std::vector<std::size_t>> components_;
};

class ArchitecturePass : public Pass {
 public:
  explicit ArchitecturePass(LayerManifest manifest)
      : manifest_(std::move(manifest)) {}

  const char* name() const override { return "architecture"; }

  void lint_corpus(const Corpus& corpus,
                   std::vector<Finding>& out) const override {
    // src/ node set and per-file include sites.
    std::vector<std::size_t> src_files;
    std::map<std::size_t, std::vector<IncludeSite>> sites_of;
    for (std::size_t i = 0; i < corpus.files.size(); ++i) {
      const SourceFile& file = corpus.files[i];
      if (file.canon_path.compare(0, 4, "src/") != 0) continue;
      src_files.push_back(i);
      sites_of[i] = include_sites(corpus, file);
    }

    for (const std::size_t i : src_files) {
      const SourceFile& file = corpus.files[i];
      const std::string from_module = module_of(file.canon_path);
      for (const IncludeSite& site : sites_of[i]) {
        // RL022 (dangling): a quoted include must name a repo header.
        if (!site.resolved) {
          out.push_back(Finding{
              file.rel_path, site.line, kDocs[2].id, kDocs[2].name,
              "project include \"" + site.target +
                  "\" does not resolve to a header under src/"});
          continue;
        }
        // RL021 (confinement) applies by path prefix, resolved or not.
        for (const auto& [target_prefix, includer_prefix] :
             manifest_.confined) {
          if (site.target.compare(0, target_prefix.size(), target_prefix) ==
                  0 &&
              file.rel_path.compare(0, includer_prefix.size(),
                                    includer_prefix) != 0) {
            out.push_back(Finding{
                file.rel_path, site.line, kDocs[1].id, kDocs[1].name,
                "\"" + site.target + "\" is confined to " + includer_prefix +
                    " by the layering manifest"});
          }
        }
        // RL021 (layer order), only with a loaded manifest.
        if (!manifest_.loaded || from_module.empty()) continue;
        const std::string to_module = module_of("src/" + site.target);
        if (to_module.empty() || to_module == from_module) continue;
        const auto from_it = manifest_.layer_of.find(from_module);
        const auto to_it = manifest_.layer_of.find(to_module);
        if (from_it == manifest_.layer_of.end()) {
          out.push_back(Finding{
              file.rel_path, site.line, kDocs[1].id, kDocs[1].name,
              "module '" + from_module +
                  "' is not declared in the layering manifest"});
          continue;
        }
        if (to_it == manifest_.layer_of.end()) {
          out.push_back(Finding{
              file.rel_path, site.line, kDocs[1].id, kDocs[1].name,
              "module '" + to_module +
                  "' is not declared in the layering manifest"});
          continue;
        }
        if (to_it->second > from_it->second) {
          out.push_back(Finding{
              file.rel_path, site.line, kDocs[1].id, kDocs[1].name,
              "'" + from_module + "' (layer " +
                  std::to_string(from_it->second) + ") may not include '" +
                  to_module + "' (layer " + std::to_string(to_it->second) +
                  ") above it"});
        } else if (to_it->second == from_it->second &&
                   manifest_.allowed.count({from_module, to_module}) == 0) {
          out.push_back(Finding{
              file.rel_path, site.line, kDocs[1].id, kDocs[1].name,
              "same-layer include '" + from_module + "' -> '" + to_module +
                  "' is not sanctioned (add `allow " + from_module + " -> " +
                  to_module + "` with a reason, or restructure)"});
        }
      }

      // RL022 (companion-first): a src/ .cpp whose companion header
      // exists must include it before anything else.
      check_companion_first(corpus, file, sites_of[i], out);
    }

    // RL020: strongly connected components of the in-corpus subgraph.
    report_cycles(corpus, src_files, sites_of, out);
  }

  void describe(std::ostream& out) const override {
    for (const RuleDoc& doc : kDocs) {
      out << doc.id << "  " << doc.name << "\n    scope: src/ include graph"
          << "\n    why:   " << doc.rationale << "\n";
    }
  }

 private:
  static void check_companion_first(const Corpus& corpus,
                                    const SourceFile& file,
                                    const std::vector<IncludeSite>& sites,
                                    std::vector<Finding>& out) {
    const std::string& canon = file.canon_path;
    const std::size_t dot = canon.rfind('.');
    if (dot == std::string::npos) return;
    const std::string ext = canon.substr(dot);
    if (ext != ".cpp" && ext != ".cc" && ext != ".cxx") return;
    const std::string companion = canon.substr(0, dot) + ".hpp";
    std::error_code ec;
    const bool companion_exists =
        corpus.by_canon.count(companion) > 0 ||
        std::filesystem::is_regular_file(corpus.root / companion, ec) ||
        std::filesystem::is_regular_file(
            corpus.root / (companion + ".fixture"), ec);
    if (!companion_exists) return;
    const std::string expected = companion.substr(std::strlen("src/"));
    const std::size_t first_directive = first_include_line(file);
    const bool ok = !sites.empty() && first_directive == sites.front().line &&
                    sites.front().target == expected;
    if (!ok) {
      out.push_back(Finding{
          file.rel_path, first_directive == 0 ? 1 : first_directive,
          kDocs[2].id, kDocs[2].name,
          "companion header \"" + expected +
              "\" must be the first include (self-containment proof)"});
    }
  }

  static void report_cycles(
      const Corpus& corpus, const std::vector<std::size_t>& src_files,
      const std::map<std::size_t, std::vector<IncludeSite>>& sites_of,
      std::vector<Finding>& out) {
    // Compact node ids over src files, adjacency from in-corpus edges.
    std::map<std::size_t, std::size_t> node_of;
    for (const std::size_t i : src_files) {
      node_of.emplace(i, node_of.size());
    }
    std::vector<std::vector<std::size_t>> adj(node_of.size());
    std::vector<bool> self_loop(node_of.size(), false);
    for (const std::size_t i : src_files) {
      for (const IncludeSite& site : sites_of.at(i)) {
        if (site.to == SIZE_MAX) continue;
        const auto it = node_of.find(site.to);
        if (it == node_of.end()) continue;
        adj[node_of.at(i)].push_back(it->second);
        if (it->second == node_of.at(i)) self_loop[node_of.at(i)] = true;
      }
    }
    const std::vector<std::vector<std::size_t>> components =
        Tarjan(adj).run();

    std::vector<std::size_t> index_of_node(node_of.size());
    for (const auto& [file_index, node] : node_of) {
      index_of_node[node] = file_index;
    }
    std::vector<Finding> cycle_findings;
    for (const std::vector<std::size_t>& component : components) {
      if (component.size() < 2 &&
          !(component.size() == 1 && self_loop[component.front()])) {
        continue;
      }
      std::vector<std::string> members;
      for (const std::size_t node : component) {
        members.push_back(corpus.files[index_of_node[node]].canon_path);
      }
      std::sort(members.begin(), members.end());
      // Anchor the finding at the smallest member's first include into
      // the component.
      const SourceFile& anchor =
          corpus.files[corpus.by_canon.at(members.front())];
      std::size_t line = 1;
      for (const IncludeSite& site :
           sites_of.at(corpus.by_canon.at(members.front()))) {
        if (site.to != SIZE_MAX &&
            std::find(members.begin(), members.end(),
                      corpus.files[site.to].canon_path) != members.end()) {
          line = site.line;
          break;
        }
      }
      std::string list;
      for (std::size_t i = 0; i < members.size(); ++i) {
        list += (i ? ", " : "") + members[i];
      }
      cycle_findings.push_back(Finding{
          anchor.rel_path, line, kDocs[0].id, kDocs[0].name,
          std::string(kCycleMessage) + ": " + list});
    }
    std::sort(cycle_findings.begin(), cycle_findings.end(),
              [](const Finding& a, const Finding& b) {
                return a.message < b.message;
              });
    for (Finding& f : cycle_findings) out.push_back(std::move(f));
  }

  LayerManifest manifest_;
};

}  // namespace

std::unique_ptr<Pass> make_architecture_pass(LayerManifest manifest) {
  return std::make_unique<ArchitecturePass>(std::move(manifest));
}

// ---------------------------------------------------------------------------
// DOT export (--graph-dot).

std::string include_graph_dot(const Corpus& corpus,
                              const LayerManifest& manifest) {
  // Module-level aggregation: nodes are src/ modules, edge labels count
  // file-level includes.
  std::set<std::string> modules;
  std::map<std::pair<std::string, std::string>, std::size_t> edges;
  for (const SourceFile& file : corpus.files) {
    if (file.canon_path.compare(0, 4, "src/") != 0) continue;
    const std::string from = module_of(file.canon_path);
    if (from.empty()) continue;
    modules.insert(from);
    for (std::size_t i = 0; i < file.code.size(); ++i) {
      const std::optional<std::string> target =
          quoted_include_target(file.code[i], file.raw[i]);
      if (!target.has_value()) continue;
      const std::string to = module_of("src/" + *target);
      if (to.empty() || to == from) continue;
      modules.insert(to);
      ++edges[{from, to}];
    }
  }

  std::ostringstream out;
  out << "// Module-level include graph of src/, generated by\n"
         "//   repro_lint --graph-dot  (refreshed by scripts/check.sh).\n"
         "// Edge labels are file-level include counts; ranks follow the\n"
         "// layering manifest tools/lint/layers.txt.\n"
         "digraph include_graph {\n"
         "  rankdir=BT;\n"
         "  node [shape=box, fontname=\"monospace\"];\n";
  if (manifest.loaded) {
    std::map<int, std::vector<std::string>> by_layer;
    for (const std::string& module : modules) {
      const auto it = manifest.layer_of.find(module);
      if (it != manifest.layer_of.end()) {
        by_layer[it->second].push_back(module);
      }
    }
    for (const auto& [layer, members] : by_layer) {
      out << "  { rank=same;";
      for (const std::string& module : members) {
        out << " \"" << module << "\";";
      }
      out << " }  // layer " << layer << "\n";
    }
  }
  for (const std::string& module : modules) {
    out << "  \"" << module << "\";\n";
  }
  for (const auto& [edge, count] : edges) {
    out << "  \"" << edge.first << "\" -> \"" << edge.second
        << "\" [label=\"" << count << "\"];\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace repro::lint
