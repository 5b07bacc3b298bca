#include "serve/observe/inspect.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/json.hpp"

namespace repro::serve::observe {

// --- Flight-dump decoding -------------------------------------------------

std::optional<EventKind> event_kind_from(const std::string& name) {
  for (std::size_t i = 0; i < kEventKinds; ++i) {
    const auto kind = static_cast<EventKind>(i);
    if (name == to_string(kind)) return kind;
  }
  return std::nullopt;
}

std::optional<RejectReason> reject_reason_from(const std::string& name) {
  for (const RejectReason reason :
       {RejectReason::kQueueFull, RejectReason::kDeadlineExpired,
        RejectReason::kUnknownModel, RejectReason::kUnknownClass,
        RejectReason::kBadRequest, RejectReason::kShuttingDown}) {
    if (name == to_string(reason)) return reason;
  }
  return std::nullopt;
}

std::optional<FlightDump> parse_flight_dump(const std::string& text) {
  const std::optional<JsonValue> doc = parse_json(text);
  if (!doc || !doc->is_object()) return std::nullopt;
  const JsonValue* events = doc->find("events");
  if (events == nullptr || !events->is_array()) return std::nullopt;

  FlightDump dump;
  if (const JsonValue* v = doc->find("capacity")) {
    dump.capacity = static_cast<std::size_t>(v->num_or(0.0));
  }
  if (const JsonValue* v = doc->find("recorded")) {
    dump.recorded = static_cast<std::uint64_t>(v->num_or(0.0));
  }
  if (const JsonValue* v = doc->find("overwritten")) {
    dump.overwritten = static_cast<std::uint64_t>(v->num_or(0.0));
  }
  dump.events.reserve(events->array.size());
  for (const JsonValue& entry : events->array) {
    if (!entry.is_object()) return std::nullopt;
    FlightEvent event;
    const JsonValue* kind = entry.find("kind");
    if (kind == nullptr) return std::nullopt;
    const std::optional<EventKind> decoded =
        event_kind_from(kind->str_or(""));
    if (!decoded) return std::nullopt;
    event.kind = *decoded;
    if (const JsonValue* v = entry.find("t")) event.time = v->num_or(0.0);
    if (const JsonValue* v = entry.find("request")) {
      event.request_id = static_cast<std::uint64_t>(v->num_or(0.0));
    }
    if (const JsonValue* v = entry.find("batch")) {
      event.batch_id = static_cast<std::uint64_t>(v->num_or(0.0));
    }
    // Conn-scoped events store the connection id under "conn"; it rides
    // in the same POD field (see events.hpp).
    if (const JsonValue* v = entry.find("conn")) {
      event.batch_id = static_cast<std::uint64_t>(v->num_or(0.0));
    }
    if (const JsonValue* v = entry.find("lane")) {
      event.lane = static_cast<std::uint8_t>(v->num_or(0.0));
    }
    if (const JsonValue* v = entry.find("flows")) {
      event.flows = static_cast<std::uint32_t>(v->num_or(0.0));
    }
    if (const JsonValue* v = entry.find("reason")) {
      if (const auto reason = reject_reason_from(v->str_or(""))) {
        event.detail = static_cast<std::uint16_t>(*reason);
      }
    }
    dump.events.push_back(event);
  }
  return dump;
}

// --- Reconstruction -------------------------------------------------------

InspectReport reconstruct(const std::vector<FlightEvent>& events) {
  std::map<std::uint64_t, RequestTimeline> requests;
  std::map<std::uint64_t, BatchComposition> batches;
  std::map<std::uint64_t, ConnectionSummary> connections;
  for (const FlightEvent& event : events) {
    if (is_conn_scoped(event.kind)) {
      // batch_id carries the connection id for these kinds; they must
      // never enter the batch table.
      if (event.batch_id != 0) {
        ConnectionSummary& conn = connections[event.batch_id];
        conn.conn_id = event.batch_id;
        switch (event.kind) {
          case EventKind::kConnOpened: conn.opened = true; break;
          case EventKind::kConnClosed: conn.closed = true; break;
          case EventKind::kFrameDecoded:
            ++conn.frames_decoded;
            if (event.request_id != 0) {
              conn.request_ids.push_back(event.request_id);
            }
            break;
          case EventKind::kFrameSent: ++conn.frames_sent; break;
          default: break;
        }
      }
    } else if (event.batch_id != 0) {
      BatchComposition& batch = batches[event.batch_id];
      batch.batch_id = event.batch_id;
      if (event.kind == EventKind::kModelStart) {
        batch.model_start = event.time;
        batch.flows = event.flows;
      } else if (event.kind == EventKind::kModelEnd) {
        batch.model_end = event.time;
      } else if (event.kind == EventKind::kCoalesced) {
        batch.request_ids.push_back(event.request_id);
      }
    }
    if (event.request_id == 0) continue;  // batch-/connection-scoped
    RequestTimeline& timeline = requests[event.request_id];
    timeline.request_id = event.request_id;
    if (timeline.events.empty()) timeline.start = event.time;
    timeline.end = event.time;
    if (event.batch_id != 0) {
      if (is_conn_scoped(event.kind)) {
        timeline.conn_id = event.batch_id;
      } else {
        timeline.batch_id = event.batch_id;
      }
    }
    if (!is_conn_scoped(event.kind)) timeline.lane = event.lane;
    if (is_terminal(event.kind)) timeline.terminal = event.kind;
    timeline.events.push_back(event);
  }
  InspectReport report;
  report.requests.reserve(requests.size());
  for (auto& [id, timeline] : requests) {
    bool has_submit = false, has_terminal = false;
    bool has_decoded = false, has_sent = false;
    for (const FlightEvent& e : timeline.events) {
      if (e.kind == EventKind::kSubmitted) has_submit = true;
      if (is_terminal(e.kind)) has_terminal = true;
      if (e.kind == EventKind::kFrameDecoded) has_decoded = true;
      if (e.kind == EventKind::kFrameSent) has_sent = true;
    }
    // In-process requests must run admission to terminal; wire requests
    // count as complete once their response frame left the connection
    // (protocol-layer rejects are answered without ever reaching
    // submit(), so frame_decoded -> frame_sent is their full story).
    timeline.complete = (has_submit && has_terminal) ||
                        (has_decoded && has_sent);
    if (timeline.complete) ++report.complete;
    report.requests.push_back(std::move(timeline));
  }
  report.batches.reserve(batches.size());
  for (auto& [id, batch] : batches) {
    report.batches.push_back(std::move(batch));
  }
  report.connections.reserve(connections.size());
  for (auto& [id, conn] : connections) {
    report.connections.push_back(std::move(conn));
  }
  return report;
}

std::optional<std::string> incomplete_reason(const InspectReport& report) {
  char buf[160];
  if (report.requests.empty()) return std::string("dump holds no requests");
  if (report.complete != report.requests.size()) {
    std::snprintf(buf, sizeof buf, "%zu/%zu timelines incomplete",
                  report.requests.size() - report.complete,
                  report.requests.size());
    return std::string(buf);
  }
  for (const ConnectionSummary& conn : report.connections) {
    if (conn.opened && conn.closed &&
        conn.frames_decoded == conn.frames_sent) {
      continue;
    }
    std::snprintf(buf, sizeof buf,
                  "conn %llu unbalanced (%zu frames in / %zu out, "
                  "opened=%d closed=%d)",
                  static_cast<unsigned long long>(conn.conn_id),
                  conn.frames_decoded, conn.frames_sent, conn.opened ? 1 : 0,
                  conn.closed ? 1 : 0);
    return std::string(buf);
  }
  return std::nullopt;
}

std::string report_text(const InspectReport& report) {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%zu requests (%zu complete), %zu batches\n\n",
                report.requests.size(), report.complete,
                report.batches.size());
  out += buf;
  for (const RequestTimeline& timeline : report.requests) {
    std::snprintf(buf, sizeof buf,
                  "request %llu lane=%u %s span=%.3fms%s\n",
                  static_cast<unsigned long long>(timeline.request_id),
                  static_cast<unsigned>(timeline.lane),
                  timeline.complete ? "complete" : "INCOMPLETE",
                  (timeline.end - timeline.start) * 1e3,
                  timeline.batch_id != 0 ? "" : " (unbatched)");
    out += buf;
    for (const FlightEvent& event : timeline.events) {
      std::snprintf(buf, sizeof buf, "  %10.3fms  %-14s", event.time * 1e3,
                    to_string(event.kind));
      out += buf;
      if (event.batch_id != 0) {
        std::snprintf(buf, sizeof buf, " %s=%llu",
                      is_conn_scoped(event.kind) ? "conn" : "batch",
                      static_cast<unsigned long long>(event.batch_id));
        out += buf;
      }
      if (event.flows != 0) {
        std::snprintf(buf, sizeof buf, " flows=%u", event.flows);
        out += buf;
      }
      if (event.kind == EventKind::kRejected ||
          event.kind == EventKind::kCancelled) {
        std::snprintf(buf, sizeof buf, " reason=%s",
                      to_string(static_cast<RejectReason>(event.detail)));
        out += buf;
      }
      out += '\n';
    }
  }
  if (!report.batches.empty()) out += "\nbatches:\n";
  for (const BatchComposition& batch : report.batches) {
    std::snprintf(buf, sizeof buf,
                  "  batch %llu: %zu requests, %u flows, model %.3fms\n",
                  static_cast<unsigned long long>(batch.batch_id),
                  batch.request_ids.size(), batch.flows,
                  (batch.model_end - batch.model_start) * 1e3);
    out += buf;
  }
  if (!report.connections.empty()) out += "\nconnections:\n";
  for (const ConnectionSummary& conn : report.connections) {
    std::snprintf(buf, sizeof buf,
                  "  conn %llu: %zu frames in, %zu frames out, "
                  "%zu requests%s%s\n",
                  static_cast<unsigned long long>(conn.conn_id),
                  conn.frames_decoded, conn.frames_sent,
                  conn.request_ids.size(), conn.opened ? "" : " (no open)",
                  conn.closed ? "" : " (still open)");
    out += buf;
  }
  return out;
}

std::string report_json(const InspectReport& report) {
  JsonWriter json;
  json.begin_object();
  json.key("requests");
  json.value(static_cast<std::uint64_t>(report.requests.size()));
  json.key("complete");
  json.value(static_cast<std::uint64_t>(report.complete));
  json.key("timelines");
  json.begin_array();
  for (const RequestTimeline& timeline : report.requests) {
    json.begin_object();
    json.key("request");
    json.value(timeline.request_id);
    json.key("lane");
    json.value(static_cast<std::uint64_t>(timeline.lane));
    json.key("complete");
    json.value(timeline.complete);
    json.key("batch");
    json.value(timeline.batch_id);
    json.key("start");
    json.value(timeline.start);
    json.key("end");
    json.value(timeline.end);
    if (timeline.complete) {
      json.key("terminal");
      json.value(to_string(timeline.terminal));
    }
    json.key("events");
    json.begin_array();
    for (const FlightEvent& event : timeline.events) {
      json.value(to_string(event.kind));
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.key("batches");
  json.begin_array();
  for (const BatchComposition& batch : report.batches) {
    json.begin_object();
    json.key("batch");
    json.value(batch.batch_id);
    json.key("flows");
    json.value(static_cast<std::uint64_t>(batch.flows));
    json.key("model_ms");
    json.value((batch.model_end - batch.model_start) * 1e3);
    json.key("requests");
    json.begin_array();
    for (const std::uint64_t id : batch.request_ids) json.value(id);
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.key("connections");
  json.begin_array();
  for (const ConnectionSummary& conn : report.connections) {
    json.begin_object();
    json.key("conn");
    json.value(conn.conn_id);
    json.key("frames_decoded");
    json.value(static_cast<std::uint64_t>(conn.frames_decoded));
    json.key("frames_sent");
    json.value(static_cast<std::uint64_t>(conn.frames_sent));
    json.key("opened");
    json.value(conn.opened);
    json.key("closed");
    json.value(conn.closed);
    json.key("requests");
    json.begin_array();
    for (const std::uint64_t id : conn.request_ids) json.value(id);
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return std::move(json).str();
}

}  // namespace repro::serve::observe
