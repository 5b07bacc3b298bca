#include "common/telemetry/export.hpp"

#include <filesystem>
#include <fstream>

#include "common/env.hpp"

namespace repro::telemetry {

void append_metrics(JsonWriter& json, const MetricsSnapshot& snapshot) {
  json.begin_object();
  json.key("counters");
  json.begin_object();
  for (const auto& [name, value] : snapshot.counters) {
    json.key(name);
    json.value(value);
  }
  json.end_object();
  json.key("gauges");
  json.begin_object();
  for (const auto& [name, value] : snapshot.gauges) {
    json.key(name);
    json.value(value);
  }
  json.end_object();
  json.key("histograms");
  json.begin_object();
  for (const auto& [name, hist] : snapshot.histograms) {
    json.key(name);
    json.begin_object();
    json.key("count");
    json.value(hist.count);
    json.key("sum");
    json.value(hist.sum);
    json.key("min");
    json.value(hist.min);
    json.key("max");
    json.value(hist.max);
    json.key("mean");
    json.value(hist.mean());
    json.key("p50");
    json.value(hist.quantile(0.50));
    json.key("p95");
    json.value(hist.quantile(0.95));
    json.key("p99");
    json.value(hist.quantile(0.99));
    json.end_object();
  }
  json.end_object();
  json.end_object();
}

void append_span(JsonWriter& json, const SpanReport& span) {
  json.begin_object();
  json.key("name");
  json.value(span.name);
  json.key("calls");
  json.value(span.calls);
  json.key("total_ms");
  json.value(span.total_seconds * 1e3);
  json.key("self_ms");
  json.value(span.self_seconds * 1e3);
  json.key("children");
  json.begin_array();
  for (const auto& child : span.children) {
    append_span(json, child);
  }
  json.end_array();
  json.end_object();
}

std::string metrics_json(const MetricsSnapshot& snapshot) {
  JsonWriter json;
  append_metrics(json, snapshot);
  return std::move(json).str();
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

std::string report_path(const std::string& filename) {
  const std::string dir = env_string("REPRO_BENCH_DIR", "");
  if (dir.empty()) return filename;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort; the
  // subsequent write reports failure if the directory is unusable
  return (std::filesystem::path(dir) / filename).string();
}

}  // namespace repro::telemetry
