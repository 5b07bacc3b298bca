#include "common/telemetry/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

#include "common/env.hpp"
#include "common/json.hpp"

namespace repro::telemetry {
namespace detail {

struct ProfileNode {
  const char* name = "";  // static storage (REPRO_SPAN passes literals)
  ProfileNode* parent = nullptr;
  std::uint64_t calls = 0;
  double total_seconds = 0.0;
  std::vector<std::unique_ptr<ProfileNode>> children;
};

/// One completed span occurrence, for the Chrome trace timeline.
struct TraceEvent {
  const char* name;
  double ts_us;      ///< start, microseconds since the profile epoch
  double dur_us;     ///< duration, microseconds
  std::string args;  ///< accumulated `"k":v` members; empty for none
};

struct ThreadProfile {
  ProfileNode root;
  ProfileNode* current = nullptr;
  std::vector<TraceEvent> events;
  std::uint64_t dropped_events = 0;
  std::uint32_t tid = 0;
  std::string name;  ///< set_thread_name(); empty = anonymous

  ThreadProfile() {
    root.name = "<root>";
    current = &root;
  }
};

namespace {

struct GlobalState {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadProfile>> threads;
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  std::size_t max_events_per_thread =
      env_size("REPRO_TRACE_EVENTS", 262144);
};

GlobalState& global() {
  static GlobalState* state = new GlobalState();  // leaked: outlives threads
  return *state;
}

}  // namespace

ThreadProfile& thread_profile() {
  // The registry owns every ThreadProfile and never removes entries, so
  // this cached pointer stays valid across reset_profile().
  thread_local ThreadProfile* profile = [] {
    GlobalState& g = global();
    std::lock_guard<std::mutex> lock(g.mutex);
    g.threads.push_back(std::make_unique<ThreadProfile>());
    g.threads.back()->tid = static_cast<std::uint32_t>(g.threads.size());
    return g.threads.back().get();
  }();
  return *profile;
}

ProfileNode* span_enter(ThreadProfile& tp, const char* name) {
  ProfileNode* parent = tp.current;
  for (const auto& child : parent->children) {
    if (child->name == name || std::strcmp(child->name, name) == 0) {
      tp.current = child.get();
      return tp.current;
    }
  }
  auto node = std::make_unique<ProfileNode>();
  node->name = name;
  node->parent = parent;
  parent->children.push_back(std::move(node));
  tp.current = parent->children.back().get();
  return tp.current;
}

void span_exit(ThreadProfile& tp, ProfileNode* node,
               std::chrono::steady_clock::time_point start,
               std::string&& args) noexcept {
  const auto end = std::chrono::steady_clock::now();
  const double seconds =
      std::chrono::duration<double>(end - start).count();
  node->calls += 1;
  node->total_seconds += seconds;
  tp.current = node->parent != nullptr ? node->parent : &tp.root;

  const GlobalState& g = global();
  if (tp.events.size() < g.max_events_per_thread) {
    const double ts_us =
        std::chrono::duration<double, std::micro>(start - g.epoch).count();
    tp.events.push_back(
        TraceEvent{node->name, ts_us, seconds * 1e6, std::move(args)});
  } else {
    tp.dropped_events += 1;
    // Cached reference: Registry metrics are never destroyed, and the
    // drop path is already past the cheap-case budget.
    static Counter& dropped =
        Registry::instance().counter("telemetry.trace.dropped_events");
    dropped.add();
  }
}

}  // namespace detail

void set_thread_name(const char* name) {
  // Registers the thread even while telemetry is disabled: naming
  // happens once at thread startup, and a later set_enabled(true) must
  // still attribute the thread's slices.
  detail::ThreadProfile& tp = detail::thread_profile();
  detail::GlobalState& g = detail::global();
  std::lock_guard<std::mutex> lock(g.mutex);
  tp.name = name;
}

void SpanTimer::arg_key(const char* key) {
  if (!args_.empty()) args_ += ',';
  args_ += '"';
  args_ += key;
  args_ += "\":";
}

SpanTimer& SpanTimer::arg(const char* key, std::uint64_t v) {
  if (tp_ == nullptr) return *this;
  arg_key(key);
  args_ += std::to_string(v);
  return *this;
}

SpanTimer& SpanTimer::arg(const char* key, double v) {
  if (tp_ == nullptr) return *this;
  arg_key(key);
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  args_ += buf;
  return *this;
}

SpanTimer& SpanTimer::arg(const char* key, const std::string& v) {
  if (tp_ == nullptr) return *this;
  arg_key(key);
  args_ += json_escape(v);
  return *this;
}

namespace {

SpanReport* find_or_add_child(SpanReport& parent, const char* name) {
  for (auto& child : parent.children) {
    if (child.name == name) return &child;
  }
  parent.children.push_back(SpanReport{});
  parent.children.back().name = name;
  return &parent.children.back();
}

void merge_node(const detail::ProfileNode& src, SpanReport& dst) {
  dst.calls += src.calls;
  dst.total_seconds += src.total_seconds;
  for (const auto& child : src.children) {
    merge_node(*child, *find_or_add_child(dst, child->name));
  }
}

void finalize(SpanReport& node) {
  std::sort(node.children.begin(), node.children.end(),
            [](const SpanReport& a, const SpanReport& b) {
              return a.total_seconds > b.total_seconds;
            });
  double child_total = 0.0;
  for (auto& child : node.children) {
    finalize(child);
    child_total += child.total_seconds;
  }
  node.self_seconds = std::max(node.total_seconds - child_total, 0.0);
}

void append_text(const SpanReport& node, std::size_t depth,
                 std::string& out) {
  std::string label(depth * 2, ' ');
  label += node.name;
  if (label.size() < 52) label.resize(52, ' ');
  char buf[128];
  std::snprintf(buf, sizeof buf, " %9llu %11.3f %11.3f\n",
                static_cast<unsigned long long>(node.calls),
                node.total_seconds * 1e3, node.self_seconds * 1e3);
  out += label;
  out += buf;
  for (const auto& child : node.children) {
    append_text(child, depth + 1, out);
  }
}

}  // namespace

std::size_t SpanReport::node_count() const noexcept {
  std::size_t n = 0;
  for (const auto& child : children) n += 1 + child.node_count();
  return n;
}

SpanReport profile_snapshot() {
  SpanReport root;
  root.name = "<root>";
  detail::GlobalState& g = detail::global();
  std::lock_guard<std::mutex> lock(g.mutex);
  for (const auto& tp : g.threads) {
    merge_node(tp->root, root);
  }
  root.calls = 0;
  root.total_seconds = 0.0;
  for (const auto& child : root.children) {
    root.total_seconds += child.total_seconds;
  }
  finalize(root);
  root.self_seconds = 0.0;
  return root;
}

std::string profile_text_report() {
  const SpanReport root = profile_snapshot();
  std::string out = "telemetry profile (wall time, merged across threads)\n";
  std::string header = "span";
  header.resize(52, ' ');
  out += header + "     calls    total_ms     self_ms\n";
  if (root.children.empty()) {
    out += "  (no spans recorded; set REPRO_TELEMETRY=1)\n";
    return out;
  }
  for (const auto& child : root.children) {
    append_text(child, 0, out);
  }
  return out;
}

std::string chrome_trace_json() {
  JsonWriter json;
  json.begin_array();
  detail::GlobalState& g = detail::global();
  std::lock_guard<std::mutex> lock(g.mutex);
  // thread_name metadata first, so viewers label every tid before the
  // first slice: named threads (BackgroundWorker, pool lanes) show as
  // their role, everything else stays tid-N.
  for (const auto& tp : g.threads) {
    if (tp->name.empty()) continue;
    json.begin_object();
    json.key("name");
    json.value("thread_name");
    json.key("ph");
    json.value("M");
    json.key("pid");
    json.value(std::uint64_t{1});
    json.key("tid");
    json.value(static_cast<std::uint64_t>(tp->tid));
    json.key("args");
    json.begin_object();
    json.key("name");
    json.value(tp->name);
    json.end_object();
    json.end_object();
  }
  for (const auto& tp : g.threads) {
    for (const auto& event : tp->events) {
      json.begin_object();
      json.key("name");
      json.value(event.name);
      json.key("cat");
      json.value("repro");
      json.key("ph");
      json.value("X");
      json.key("ts");
      json.value(event.ts_us);
      json.key("dur");
      json.value(event.dur_us);
      json.key("pid");
      json.value(std::uint64_t{1});
      json.key("tid");
      json.value(static_cast<std::uint64_t>(tp->tid));
      if (!event.args.empty()) {
        json.key("args");
        json.raw("{" + event.args + "}");
      }
      json.end_object();
    }
  }
  json.end_array();
  return std::move(json).str();
}

void reset_profile() {
  detail::GlobalState& g = detail::global();
  std::lock_guard<std::mutex> lock(g.mutex);
  for (const auto& tp : g.threads) {
    tp->root.children.clear();
    tp->root.calls = 0;
    tp->root.total_seconds = 0.0;
    tp->current = &tp->root;
    tp->events.clear();
    tp->dropped_events = 0;
  }
  g.epoch = std::chrono::steady_clock::now();
}

}  // namespace repro::telemetry
