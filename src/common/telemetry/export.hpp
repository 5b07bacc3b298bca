// JSON exporters for telemetry state: the metrics registry snapshot and
// the span profile tree, written with common/json's JsonWriter.
#pragma once

#include <string>

#include "common/json.hpp"
#include "common/telemetry/metrics.hpp"
#include "common/telemetry/trace.hpp"

namespace repro::telemetry {

/// Appends the registry snapshot as an object:
/// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,min,
///  max,mean,p50,p95,p99},...}}.
void append_metrics(JsonWriter& json, const MetricsSnapshot& snapshot);

/// Appends one span node (recursively) as
/// {"name":...,"calls":...,"total_ms":...,"self_ms":...,"children":[...]}.
void append_span(JsonWriter& json, const SpanReport& span);

/// The registry snapshot alone, as a JSON document.
std::string metrics_json(const MetricsSnapshot& snapshot);

/// Full telemetry state: {"enabled":...,"metrics":{...},"spans":[...]}
/// where "spans" holds the top-level children of the profile tree.
std::string telemetry_json();

/// Writes `content` to `path`, returning false on I/O failure.
bool write_text_file(const std::string& path, const std::string& content);

/// Resolves a report filename against REPRO_BENCH_DIR: when the
/// variable is set the directory is created on demand and
/// "<dir>/<filename>" returned, otherwise `filename` passes through
/// unchanged. Lets parallel `ctest -j` runs point bench/tool reports at
/// disjoint directories instead of clobbering the shared working
/// directory. Re-reads the environment on every call.
std::string report_path(const std::string& filename);

}  // namespace repro::telemetry
