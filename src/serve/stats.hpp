// Service metrics: queue depth, batch-size histogram, admission rejects,
// deadline cancellations, cache hits, and end-to-end latency
// percentiles — aggregate and broken out per priority lane
// (serve.lane{0,1,2}.*), with rejects counted per typed reason
// (serve.rejects.*).
//
// Unlike the REPRO_TELEMETRY-gated convenience recorders, ServiceStats
// holds direct references into the telemetry Registry (cached once at
// construction; registry metric objects live for the process), so the
// serving counters the acceptance tests assert on are recorded
// unconditionally — a production service's observability is not an
// opt-in debug feature. Export still goes through the ordinary registry
// snapshot (metrics_json / BenchReport), and health_json() reads the
// per-lane instruments for its p50/p95/p99 block.
#pragma once

#include <array>

#include "common/telemetry/metrics.hpp"
#include "serve/request.hpp"

namespace repro::serve {

/// Per-priority-lane instruments (serve.lane{N}.*).
struct LaneStats {
  telemetry::Counter& admitted;     ///< serve.lane{N}.admitted
  telemetry::Counter& completed;    ///< serve.lane{N}.completed
  telemetry::Counter& cancelled;    ///< serve.lane{N}.cancelled
  telemetry::Gauge& queue_depth;    ///< serve.lane{N}.queue_depth
  telemetry::Histogram& queue_wait; ///< serve.lane{N}.queue_wait_seconds
  telemetry::Histogram& latency;    ///< serve.lane{N}.latency_seconds
};

struct ServiceStats {
  ServiceStats();

  telemetry::Counter& submitted;          ///< serve.requests.submitted
  telemetry::Counter& accepted;           ///< serve.requests.accepted
  telemetry::Counter& rejected_full;      ///< serve.requests.rejected_queue_full
  telemetry::Counter& rejected_invalid;   ///< serve.requests.rejected_invalid
  telemetry::Counter& cancelled_deadline; ///< serve.requests.cancelled_deadline
  telemetry::Counter& completed;          ///< serve.requests.completed
  telemetry::Counter& flows_served;       ///< serve.flows.served
  telemetry::Counter& cache_hits;         ///< serve.cache.hits
  telemetry::Counter& cache_misses;       ///< serve.cache.misses
  telemetry::Counter& batches;            ///< serve.batch.dispatched
  telemetry::Gauge& queue_depth;          ///< serve.queue.depth
  telemetry::Histogram& batch_size;       ///< serve.batch.size (flows/call)
  telemetry::Histogram& queue_wait;       ///< serve.latency.queue_wait_seconds
  telemetry::Histogram& latency;          ///< serve.latency.total_seconds

  std::array<LaneStats, kPriorityLanes> lane;

  /// serve.rejects.{queue_full,deadline_expired,unknown_model,
  /// unknown_class,bad_request,shutting_down} — one counter per typed
  /// reason, so overload rejects are distinguishable from bad input in
  /// the exported snapshot (the aggregate rejected_* counters remain).
  telemetry::Counter& reject_reason(RejectReason reason);

  LaneStats& lane_of(Priority priority) {
    return lane[static_cast<std::size_t>(priority)];
  }

 private:
  std::array<telemetry::Counter*, 6> rejects_;
};

}  // namespace repro::serve
