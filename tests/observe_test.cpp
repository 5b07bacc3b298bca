// Unit tests for src/serve/observe: flight recorder ring semantics and
// its zero-cost disabled path, SLO error-budget windows, and timeline
// reconstruction.
//
// This suite lives in its own test executable: it overrides the global
// operator new to count heap allocations, which must not leak into any
// other suite's accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/telemetry/metrics.hpp"
#include "serve/observe/flight_recorder.hpp"
#include "serve/observe/inspect.hpp"
#include "serve/observe/slo.hpp"

// The replaced global allocator below intentionally pairs ::operator new
// with std::free; GCC cannot see that the new side is malloc-backed.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// Counting global allocator: proves the recorder's hot paths are
// allocation-free. (gtest itself allocates constantly; tests diff the
// counter around the critical region only.)
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace repro;
using namespace repro::serve;
using namespace repro::serve::observe;

FlightEvent make_event(EventKind kind, std::uint64_t request,
                       std::uint64_t batch = 0, double t = 0.0,
                       std::uint8_t lane = 1, std::uint32_t flows = 2,
                       std::uint16_t detail = 0) {
  FlightEvent e;
  e.time = t;
  e.request_id = request;
  e.batch_id = batch;
  e.flows = flows;
  e.kind = kind;
  e.lane = lane;
  e.detail = detail;
  return e;
}

/// Restores the global telemetry switch on scope exit.
struct TelemetryGuard {
  bool saved;
  TelemetryGuard() : saved(telemetry::enabled()) {}
  ~TelemetryGuard() { telemetry::set_enabled(saved); }
};

// --- FlightRecorder -------------------------------------------------------

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder rec(5);
  EXPECT_EQ(rec.capacity(), 8u);
  FlightRecorder zero(0);
  EXPECT_EQ(zero.capacity(), 0u);
}

TEST(FlightRecorder, DisabledPathRecordsNothingAndNeverAllocates) {
  TelemetryGuard guard;
  telemetry::set_enabled(false);
  FlightRecorder rec(64);
  const FlightEvent e = make_event(EventKind::kSubmitted, 1);
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) rec.record(e);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_FALSE(rec.armed());
}

TEST(FlightRecorder, ArmedRecordingIsAllocationFree) {
  TelemetryGuard guard;
  telemetry::set_enabled(false);
  FlightRecorder rec(64);
  rec.set_forced(true);
  EXPECT_TRUE(rec.armed());
  const FlightEvent e = make_event(EventKind::kSubmitted, 1);
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) rec.record(e);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
  EXPECT_EQ(rec.recorded(), 10000u);
}

TEST(FlightRecorder, ZeroCapacityDisablesEvenWhenForced) {
  FlightRecorder rec(0);
  rec.set_forced(true);
  EXPECT_FALSE(rec.armed());
  rec.force_record(make_event(EventKind::kSubmitted, 1));
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.dump().empty());
}

TEST(FlightRecorder, RingKeepsMostRecentEventsInOrder) {
  FlightRecorder rec(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    rec.force_record(
        make_event(EventKind::kSubmitted, i, 0, static_cast<double>(i)));
  }
  EXPECT_EQ(rec.recorded(), 20u);
  EXPECT_EQ(rec.overwritten(), 12u);
  const std::vector<FlightEvent> events = rec.dump();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].request_id, 12 + i);  // oldest-to-newest window
  }
}

TEST(FlightRecorder, DumpJsonRoundTripsThroughParser) {
  FlightRecorder rec(16);
  rec.force_record(make_event(EventKind::kSubmitted, 7, 0, 1.5, 2, 3));
  rec.force_record(make_event(
      EventKind::kRejected, 8, 0, 1.6, 0, 1,
      static_cast<std::uint16_t>(RejectReason::kQueueFull)));
  const auto dump = parse_flight_dump(rec.dump_json());
  ASSERT_TRUE(dump.has_value());
  EXPECT_EQ(dump->capacity, 16u);
  EXPECT_EQ(dump->recorded, 2u);
  EXPECT_EQ(dump->overwritten, 0u);
  ASSERT_EQ(dump->events.size(), 2u);
  EXPECT_EQ(dump->events[0].request_id, 7u);
  EXPECT_EQ(dump->events[0].kind, EventKind::kSubmitted);
  EXPECT_EQ(dump->events[0].lane, 2);
  EXPECT_EQ(dump->events[0].flows, 3u);
  EXPECT_DOUBLE_EQ(dump->events[0].time, 1.5);
  EXPECT_EQ(dump->events[1].kind, EventKind::kRejected);
  EXPECT_EQ(static_cast<RejectReason>(dump->events[1].detail),
            RejectReason::kQueueFull);
}

// --- SloTracker -----------------------------------------------------------

SloPolicy test_policy() {
  SloPolicy policy;
  policy.latency_objective = {0.1, 0.5, 2.0};
  policy.window = 60.0;
  policy.buckets = 12;
  policy.error_budget = 0.1;
  return policy;
}

TEST(SloTracker, HealthyLaneKeepsFullBudget) {
  SloTracker slo(test_policy());
  for (int i = 0; i < 10; ++i) slo.on_completed(0, 0.05, 1.0);
  const LaneBudget budget = slo.lane_budget(0, 1.0);
  EXPECT_EQ(budget.total, 10u);
  EXPECT_EQ(budget.violations, 0u);
  EXPECT_DOUBLE_EQ(budget.budget_remaining, 1.0);
  EXPECT_STREQ(budget.status, "ok");
  EXPECT_STREQ(slo.overall_status(1.0), "ok");
}

TEST(SloTracker, ViolationsBurnBudgetThroughAtRiskToBreached) {
  SloTracker slo(test_policy());
  for (int i = 0; i < 10; ++i) slo.on_completed(0, 0.05, 1.0);
  slo.on_completed(0, 0.2, 1.0);  // over the 0.1 s lane-0 objective
  LaneBudget budget = slo.lane_budget(0, 1.0);
  EXPECT_EQ(budget.violations, 1u);
  EXPECT_STREQ(budget.status, "at_risk");
  EXPECT_STREQ(slo.overall_status(1.0), "at_risk");

  slo.on_completed(0, 0.3, 1.0);
  budget = slo.lane_budget(0, 1.0);
  EXPECT_EQ(budget.violations, 2u);
  EXPECT_LE(budget.budget_remaining, 0.0);
  EXPECT_STREQ(budget.status, "breached");
  EXPECT_STREQ(slo.overall_status(1.0), "breached");
  // Other lanes are unaffected.
  EXPECT_STREQ(slo.lane_budget(1, 1.0).status, "ok");
}

TEST(SloTracker, CancellationIsAlwaysAViolation) {
  SloTracker slo(test_policy());
  slo.on_cancelled(1, 1.0);
  const LaneBudget budget = slo.lane_budget(1, 1.0);
  EXPECT_EQ(budget.total, 1u);
  EXPECT_EQ(budget.violations, 1u);
  EXPECT_STREQ(budget.status, "breached");
}

TEST(SloTracker, WindowExpiryForgivesOldViolations) {
  SloTracker slo(test_policy());
  for (int i = 0; i < 5; ++i) slo.on_completed(0, 0.9, 10.0);  // violations
  EXPECT_STREQ(slo.lane_budget(0, 10.0).status, "breached");
  // One full window later the old buckets have rotated out.
  const LaneBudget later = slo.lane_budget(0, 10.0 + 61.0);
  EXPECT_EQ(later.total, 0u);
  EXPECT_DOUBLE_EQ(later.budget_remaining, 1.0);
  EXPECT_STREQ(later.status, "ok");
}

// --- Reconstruction -------------------------------------------------------

TEST(Reconstruct, BuildsTimelinesAndBatchComposition) {
  std::vector<FlightEvent> events;
  events.push_back(make_event(EventKind::kSubmitted, 1, 0, 1.0));
  events.push_back(make_event(EventKind::kAdmitted, 1, 0, 1.0));
  events.push_back(make_event(EventKind::kSubmitted, 2, 0, 1.1));
  events.push_back(make_event(EventKind::kAdmitted, 2, 0, 1.1));
  events.push_back(make_event(EventKind::kCoalesced, 1, 5, 1.2));
  events.push_back(make_event(EventKind::kCoalesced, 2, 5, 1.2));
  events.push_back(make_event(EventKind::kModelStart, 0, 5, 1.2, 0, 4));
  events.push_back(make_event(EventKind::kModelEnd, 0, 5, 1.4, 0, 4));
  events.push_back(make_event(EventKind::kCompleted, 1, 5, 1.4));
  // Request 2 never completes; request 3 is rejected outright.
  events.push_back(make_event(
      EventKind::kSubmitted, 3, 0, 1.5));
  events.push_back(make_event(
      EventKind::kRejected, 3, 0, 1.5, 1, 2,
      static_cast<std::uint16_t>(RejectReason::kQueueFull)));

  const InspectReport report = reconstruct(events);
  ASSERT_EQ(report.requests.size(), 3u);
  EXPECT_EQ(report.complete, 2u);

  const RequestTimeline& r1 = report.requests[0];
  EXPECT_EQ(r1.request_id, 1u);
  EXPECT_TRUE(r1.complete);
  EXPECT_EQ(r1.batch_id, 5u);
  EXPECT_EQ(r1.terminal, EventKind::kCompleted);
  EXPECT_DOUBLE_EQ(r1.start, 1.0);
  EXPECT_DOUBLE_EQ(r1.end, 1.4);

  EXPECT_FALSE(report.requests[1].complete);
  EXPECT_TRUE(report.requests[2].complete);
  EXPECT_EQ(report.requests[2].terminal, EventKind::kRejected);

  ASSERT_EQ(report.batches.size(), 1u);
  const BatchComposition& batch = report.batches[0];
  EXPECT_EQ(batch.batch_id, 5u);
  EXPECT_EQ(batch.flows, 4u);
  ASSERT_EQ(batch.request_ids.size(), 2u);
  EXPECT_EQ(batch.request_ids[0], 1u);
  EXPECT_EQ(batch.request_ids[1], 2u);
  EXPECT_DOUBLE_EQ(batch.model_start, 1.2);
  EXPECT_DOUBLE_EQ(batch.model_end, 1.4);
}

TEST(Reconstruct, ReportJsonIsParsable) {
  std::vector<FlightEvent> events;
  events.push_back(make_event(EventKind::kSubmitted, 1, 0, 1.0));
  events.push_back(make_event(EventKind::kCacheHit, 1, 0, 1.0));
  const InspectReport report = reconstruct(events);
  const auto doc = parse_json(report_json(report));
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_DOUBLE_EQ(doc->find("requests")->num_or(-1), 1.0);
  EXPECT_DOUBLE_EQ(doc->find("complete")->num_or(-1), 1.0);
  const std::string text = report_text(report);
  EXPECT_NE(text.find("cache_hit"), std::string::npos);
}

}  // namespace
