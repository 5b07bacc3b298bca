// repro_trace_inspect — reconstructs per-request timelines and
// per-batch composition from serving-layer observability artifacts.
//
// Input (auto-detected by shape):
//   * a flight-recorder dump (repro_served --dump-flightrec, or
//     FlightRecorder::dump_json): rebuilds every request's
//     admission-to-terminal event timeline and the composition of each
//     batched model call, flagging incomplete timelines;
//   * a Chrome trace export (BENCH_<name>.trace.json, written by any
//     bench run under REPRO_TELEMETRY=1): summarizes spans (calls,
//     total wall time) and lists the serve.batch.execute slices with
//     their args (batch id, request count, flows, model version).
//
// Modes:
//   --json             machine-readable report instead of text
//   --expect-complete  flight-dump mode: exit non-zero unless the dump
//                      is complete (serve::observe::incomplete_reason:
//                      every timeline complete, every connection closed
//                      and frame-balanced)
//   --top N            chrome mode: how many spans to list (default 10)
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/json.hpp"
#include "serve/observe/inspect.hpp"

using namespace repro;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return in ? out.str() : std::string();
}

struct SpanAgg {
  std::uint64_t calls = 0;
  double total_us = 0.0;
};

int inspect_chrome_trace(const JsonValue& doc, bool json_mode,
                         std::size_t top) {
  std::map<std::string, SpanAgg> spans;
  std::vector<const JsonValue*> batch_slices;
  for (const JsonValue& event : doc.array) {
    const JsonValue* ph = event.find("ph");
    if (ph == nullptr || ph->str_or("") != "X") continue;
    const JsonValue* name = event.find("name");
    if (name == nullptr) continue;
    SpanAgg& agg = spans[name->str_or("")];
    agg.calls += 1;
    const JsonValue* dur = event.find("dur");
    agg.total_us += dur != nullptr ? dur->num_or(0.0) : 0.0;
    if (name->str_or("") == "serve.batch.execute") {
      batch_slices.push_back(&event);
    }
  }
  std::vector<std::pair<std::string, SpanAgg>> ranked(spans.begin(),
                                                      spans.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second.total_us > b.second.total_us;
  });
  if (ranked.size() > top) ranked.resize(top);

  if (json_mode) {
    JsonWriter json;
    json.begin_object();
    json.key("spans");
    json.begin_array();
    for (const auto& [name, agg] : ranked) {
      json.begin_object();
      json.key("name");
      json.value(name);
      json.key("calls");
      json.value(agg.calls);
      json.key("total_ms");
      json.value(agg.total_us / 1e3);
      json.end_object();
    }
    json.end_array();
    json.key("batches");
    json.begin_array();
    for (const JsonValue* slice : batch_slices) {
      json.begin_object();
      const JsonValue* args = slice->find("args");
      if (args != nullptr && args->is_object()) {
        for (const auto& [key, value] : args->object) {
          json.key(key);
          if (value.type == JsonValue::Type::kNumber) {
            json.value(value.number);
          } else {
            json.value(value.str_or(""));
          }
        }
      }
      const JsonValue* dur = slice->find("dur");
      json.key("dur_ms");
      json.value((dur != nullptr ? dur->num_or(0.0) : 0.0) / 1e3);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    std::printf("%s\n", std::move(json).str().c_str());
    return 0;
  }

  std::printf("chrome trace: %zu span names, %zu serve.batch.execute "
              "slices\n",
              spans.size(), batch_slices.size());
  std::printf("top spans by total wall time:\n");
  for (const auto& [name, agg] : ranked) {
    std::printf("  %-40s calls=%-8llu total=%.3fms\n", name.c_str(),
                static_cast<unsigned long long>(agg.calls),
                agg.total_us / 1e3);
  }
  for (const JsonValue* slice : batch_slices) {
    const JsonValue* args = slice->find("args");
    const JsonValue* dur = slice->find("dur");
    std::printf("  batch");
    if (args != nullptr && args->is_object()) {
      for (const auto& [key, value] : args->object) {
        if (value.type == JsonValue::Type::kNumber) {
          std::printf(" %s=%.0f", key.c_str(), value.number);
        } else {
          std::printf(" %s=%s", key.c_str(), value.str_or("").c_str());
        }
      }
    }
    std::printf(" dur=%.3fms\n",
                (dur != nullptr ? dur->num_or(0.0) : 0.0) / 1e3);
  }
  return 0;
}

int run(int argc, char** argv) {
  bool json_mode = false, expect_complete = false;
  std::size_t top = 10;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") json_mode = true;
    else if (arg == "--expect-complete") expect_complete = true;
    else if (arg == "--top" && i + 1 < argc)
      top = parse_size(argv[++i]).value_or(top);
    else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "repro_trace_inspect: unknown option '%s'\n",
                   arg.c_str());
      return 2;
    } else {
      path = arg;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: repro_trace_inspect [--json] [--expect-complete] "
                 "[--top N] <flight dump | chrome trace json>\n");
    return 2;
  }

  const std::string text = read_file(path);
  if (text.empty()) {
    std::fprintf(stderr, "repro_trace_inspect: cannot read %s\n",
                 path.c_str());
    return 1;
  }

  if (const auto dump = serve::observe::parse_flight_dump(text)) {
    const auto report = serve::observe::reconstruct(dump->events);
    if (json_mode) {
      std::printf("%s\n", serve::observe::report_json(report).c_str());
    } else {
      std::printf("%s", serve::observe::report_text(report).c_str());
      if (dump->overwritten > 0) {
        std::printf("note: ring overwrote %llu events; oldest timelines "
                    "may be truncated\n",
                    static_cast<unsigned long long>(dump->overwritten));
      }
    }
    if (expect_complete) {
      if (const auto why = serve::observe::incomplete_reason(report)) {
        std::fprintf(stderr, "repro_trace_inspect: FAIL — %s\n",
                     why->c_str());
        return 1;
      }
      std::fprintf(stderr, "repro_trace_inspect: OK — %zu/%zu timelines "
                   "complete, %zu connections balanced\n",
                   report.complete, report.requests.size(),
                   report.connections.size());
    }
    return 0;
  }

  const auto doc = parse_json(text);
  if (doc && doc->is_array()) {
    if (expect_complete) {
      std::fprintf(stderr,
                   "repro_trace_inspect: --expect-complete requires a "
                   "flight-recorder dump\n");
      return 2;
    }
    return inspect_chrome_trace(*doc, json_mode, top);
  }

  std::fprintf(stderr,
               "repro_trace_inspect: %s is neither a flight-recorder dump "
               "nor a chrome trace\n",
               path.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
