// Timeline reconstruction from flight-recorder dumps and Chrome traces.
//
// The flight recorder emits flat JSON; this layer parses it back with
// common/json's reader and reconstructs:
//   * per-request timelines — ordered events from admission to the
//     terminal event, flagged complete/incomplete,
//   * per-batch composition — which requests each batched model call
//     served and how many flows it carried.
//
// tools/repro_trace_inspect is a thin CLI over these functions, and the
// serving tests call them directly to verify that a dump covers every
// request end-to-end (incomplete_reason).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/observe/events.hpp"

namespace repro::serve::observe {

// --- Flight-dump decoding -------------------------------------------------

std::optional<EventKind> event_kind_from(const std::string& name);
std::optional<RejectReason> reject_reason_from(const std::string& name);

struct FlightDump {
  std::size_t capacity = 0;
  std::uint64_t recorded = 0;
  std::uint64_t overwritten = 0;
  std::vector<FlightEvent> events;
};

/// Decodes a dump produced by FlightRecorder::dump_json(); nullopt when
/// the document is not a flight dump.
std::optional<FlightDump> parse_flight_dump(const std::string& text);

// --- Reconstruction -------------------------------------------------------

struct RequestTimeline {
  std::uint64_t request_id = 0;
  std::vector<FlightEvent> events;  ///< in recorded order
  std::uint64_t batch_id = 0;       ///< 0 = never batched
  std::uint64_t conn_id = 0;        ///< 0 = not served over a socket
  std::uint8_t lane = 0;
  /// A timeline is complete when it spans admission to a terminal event
  /// — or, for wire requests, when it runs frame_decoded to frame_sent
  /// (a request rejected at the protocol layer never reaches submit()
  /// but was still answered on the connection).
  bool complete = false;
  double start = 0.0;  ///< first event time
  double end = 0.0;    ///< last event time
  EventKind terminal = EventKind::kSubmitted;  ///< valid when complete
};

struct BatchComposition {
  std::uint64_t batch_id = 0;
  std::vector<std::uint64_t> request_ids;
  std::uint32_t flows = 0;      ///< from the model_start event
  double model_start = 0.0;
  double model_end = 0.0;
};

/// Per-connection summary rebuilt from the conn-scoped events the
/// socket front-end records (frame_decoded / frame_sent bracket each
/// wire request; conn_opened / conn_closed bracket the connection).
struct ConnectionSummary {
  std::uint64_t conn_id = 0;
  std::size_t frames_decoded = 0;
  std::size_t frames_sent = 0;
  bool opened = false;
  bool closed = false;
  std::vector<std::uint64_t> request_ids;  ///< trace ids decoded on it
};

struct InspectReport {
  std::vector<RequestTimeline> requests;  ///< ascending request id
  std::vector<BatchComposition> batches;  ///< ascending batch id
  std::vector<ConnectionSummary> connections;  ///< ascending conn id
  std::size_t complete = 0;               ///< requests with full timelines
};

InspectReport reconstruct(const std::vector<FlightEvent>& events);

/// The rule for a complete dump: it holds at least one request, every
/// request timeline is complete, and every connection was opened and
/// closed and sent as many frames as it decoded (each decoded request
/// frame answered by exactly one reply). Returns nullopt when the report
/// is complete, else the first violation in words.
std::optional<std::string> incomplete_reason(const InspectReport& report);

/// Human-readable rendering of the report (one line per event, grouped
/// by request, then the batch table).
std::string report_text(const InspectReport& report);

/// Report as JSON, for scripted assertions.
std::string report_json(const InspectReport& report);

}  // namespace repro::serve::observe
