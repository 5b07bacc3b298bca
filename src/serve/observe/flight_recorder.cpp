#include "serve/observe/flight_recorder.hpp"

#include "common/json.hpp"
#include "common/telemetry/metrics.hpp"

namespace repro::serve::observe {
namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

const char* to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kSubmitted: return "submitted";
    case EventKind::kRejected: return "rejected";
    case EventKind::kCacheHit: return "cache_hit";
    case EventKind::kAdmitted: return "admitted";
    case EventKind::kDeadlineSwept: return "deadline_swept";
    case EventKind::kCoalesced: return "coalesced";
    case EventKind::kModelStart: return "model_start";
    case EventKind::kModelEnd: return "model_end";
    case EventKind::kCompleted: return "completed";
    case EventKind::kCancelled: return "cancelled";
    case EventKind::kFrameDecoded: return "frame_decoded";
    case EventKind::kFrameSent: return "frame_sent";
    case EventKind::kConnOpened: return "conn_opened";
    case EventKind::kConnClosed: return "conn_closed";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity) {
  if (capacity == 0) return;
  capacity_ = round_up_pow2(capacity);
  mask_ = capacity_ - 1;
  slots_ = std::make_unique<Slot[]>(capacity_);
}

bool FlightRecorder::armed() const noexcept {
  if (capacity_ == 0) return false;
  return telemetry::enabled() || forced_.load(std::memory_order_relaxed);
}

void FlightRecorder::record(const FlightEvent& event) noexcept {
  // Disabled path: the telemetry switch is one relaxed atomic load (the
  // force flag is only consulted when the switch is off).
  if (!armed()) return;
  force_record(event);
}

void FlightRecorder::force_record(const FlightEvent& event) noexcept {
  if (capacity_ == 0) return;
  // One atomic reservation; the seqlock stores publish the slot so a
  // concurrent dump() skips (never tears) a slot caught mid-write.
  const std::uint64_t n = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[n & mask_];
  slot.seq.store(0, std::memory_order_release);  // mark in-progress
  slot.event = event;
  slot.seq.store(n + 1, std::memory_order_release);  // publish
}

std::uint64_t FlightRecorder::overwritten() const noexcept {
  const std::uint64_t total = recorded();
  return total > capacity_ ? total - capacity_ : 0;
}

std::vector<FlightEvent> FlightRecorder::dump() const {
  std::vector<FlightEvent> out;
  if (capacity_ == 0) return out;
  const std::uint64_t end = next_.load(std::memory_order_acquire);
  const std::uint64_t begin = end > capacity_ ? end - capacity_ : 0;
  out.reserve(static_cast<std::size_t>(end - begin));
  for (std::uint64_t n = begin; n < end; ++n) {
    const Slot& slot = slots_[n & mask_];
    if (slot.seq.load(std::memory_order_acquire) != n + 1) continue;
    FlightEvent event = slot.event;
    // Re-check after the copy: a producer may have lapped us mid-read.
    if (slot.seq.load(std::memory_order_acquire) != n + 1) continue;
    out.push_back(event);
  }
  return out;
}

std::string FlightRecorder::dump_json() const {
  JsonWriter json;
  json.begin_object();
  json.key("capacity");
  json.value(static_cast<std::uint64_t>(capacity_));
  json.key("recorded");
  json.value(recorded());
  json.key("overwritten");
  json.value(overwritten());
  json.key("events");
  json.begin_array();
  for (const FlightEvent& event : dump()) {
    json.begin_object();
    json.key("t");
    json.value(event.time);
    json.key("kind");
    json.value(to_string(event.kind));
    json.key("request");
    json.value(event.request_id);
    // Connection-scoped kinds reuse the batch_id field for the
    // connection id; the dump names the key accordingly so inspect (and
    // humans) never mistake one for the other.
    json.key(is_conn_scoped(event.kind) ? "conn" : "batch");
    json.value(event.batch_id);
    json.key("lane");
    json.value(static_cast<std::uint64_t>(event.lane));
    json.key("flows");
    json.value(static_cast<std::uint64_t>(event.flows));
    if (event.kind == EventKind::kRejected ||
        event.kind == EventKind::kCancelled) {
      json.key("reason");
      json.value(to_string(static_cast<RejectReason>(event.detail)));
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return std::move(json).str();
}

}  // namespace repro::serve::observe
