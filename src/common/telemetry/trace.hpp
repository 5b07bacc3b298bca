// Hierarchical trace spans.
//
// REPRO_SPAN("subsystem.stage") opens an RAII span: while telemetry is
// enabled, entering builds/extends a per-thread parent/child profile
// tree (wall time + call counts) and records a Chrome trace_event slice;
// while disabled the constructor is a single atomic load — no locks, no
// allocation, no clock read.
//
// The aggregated tree is exported two ways:
//   * chrome_trace_json()    — trace_event JSON for chrome://tracing,
//                              https://ui.perfetto.dev or
//                              tools/repro_trace_inspect,
//   * profile_snapshot()     — structured tree for the JSON exporter.
//
// Span names must have static storage duration (string literals).
// reset_profile() must only be called while no spans are open on other
// threads.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/telemetry/metrics.hpp"

namespace repro::telemetry {

namespace detail {
struct ProfileNode;
struct ThreadProfile;

/// The calling thread's profile (created and registered on first use).
ThreadProfile& thread_profile();
ProfileNode* span_enter(ThreadProfile& tp, const char* name);
void span_exit(ThreadProfile& tp, ProfileNode* node,
               std::chrono::steady_clock::time_point start,
               std::string&& args) noexcept;
}  // namespace detail

/// Names the calling thread in Chrome-trace exports (emitted as a
/// thread_name metadata event). Dedicated scheduler threads (e.g. the
/// serve BackgroundWorker) call this once at startup so their slices are
/// attributable in chrome://tracing instead of appearing as an
/// anonymous colliding tid. Safe to call with telemetry disabled.
void set_thread_name(const char* name);

/// Aggregated view of one span node (merged across threads).
struct SpanReport {
  std::string name;
  std::uint64_t calls = 0;
  double total_seconds = 0.0;  ///< inclusive wall time
  double self_seconds = 0.0;   ///< total minus instrumented children
  std::vector<SpanReport> children;

  /// Depth-first count of nodes (excluding this synthetic root when
  /// called on the snapshot root).
  std::size_t node_count() const noexcept;
};

/// RAII span timer; use via REPRO_SPAN, or declare one explicitly to
/// attach args (key/value pairs shown in the Chrome-trace slice, e.g.
/// request id / batch size / model version for serve spans). arg() is a
/// no-op while telemetry is disabled — no allocation.
class SpanTimer {
 public:
  explicit SpanTimer(const char* name) noexcept {
    if (!enabled()) return;
    tp_ = &detail::thread_profile();
    node_ = detail::span_enter(*tp_, name);
    start_ = std::chrono::steady_clock::now();
  }
  ~SpanTimer() {
    if (tp_ != nullptr) {
      detail::span_exit(*tp_, node_, start_, std::move(args_));
    }
  }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  SpanTimer& arg(const char* key, std::uint64_t v);
  SpanTimer& arg(const char* key, double v);
  SpanTimer& arg(const char* key, const std::string& v);

 private:
  void arg_key(const char* key);

  detail::ThreadProfile* tp_ = nullptr;
  detail::ProfileNode* node_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
  std::string args_;  ///< accumulated `"k":v` JSON members
};

/// Merged profile tree; the returned root is synthetic ("<root>") with
/// one child per top-level span name.
SpanReport profile_snapshot();

/// Chrome trace_event JSON (array-of-slices form). Events are capped per
/// thread (REPRO_TRACE_EVENTS, default 262144); drops are counted in the
/// "telemetry.trace.dropped_events" counter.
std::string chrome_trace_json();

/// Clears all span trees and trace events. Only call while no spans are
/// open on other threads.
void reset_profile();

}  // namespace repro::telemetry

#define REPRO_SPAN_CONCAT2(a, b) a##b
#define REPRO_SPAN_CONCAT(a, b) REPRO_SPAN_CONCAT2(a, b)
/// Opens a span covering the rest of the enclosing scope.
#define REPRO_SPAN(name) \
  ::repro::telemetry::SpanTimer REPRO_SPAN_CONCAT(repro_span_, __LINE__)(name)
