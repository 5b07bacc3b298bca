// ShardedService: N worker lanes behind one admission surface.
//
// Each shard is a full TraceService — its own bounded RequestQueue,
// BatchScheduler, ResultCache, SLO tracker, flight recorder, and
// BackgroundWorker — all fronting the SAME ModelRegistry. Requests are
// routed by a consistent-hash ring over (model, class):
//
//   shard = ring.shard_of(fnv1a64(model + ':' + class_id))
//
// Routing by (model, class) has two consequences the serving contract
// depends on. First, a BatchKey is (model, class, sampler, steps), so
// every request that COULD coalesce into one model call lands on the
// same shard — sharding never splits a batchable population. Second,
// the per-shard ResultCache stays exclusive: a (model, class) pair is
// cached on exactly one shard, so N lanes give N x the aggregate cache
// capacity with zero duplication and no cross-shard invalidation.
//
// Determinism: per-flow RNG streams are forked from (request.seed,
// flow_index) inside the shard's batched model call, so served bytes
// are independent of which shard ran the batch, how requests were
// grouped, and the lane count — a response is bit-identical to the
// direct library call at REPRO_SERVE_LANES=1, 2, or 8, in-process or
// over the socket (locked in by tests/serve_shard_test.cpp).
//
// Observability: all shards share one trace-id and one batch-id
// allocator (injected through ServiceConfig::id_source /
// batch_id_source), so ids stay unique across the fleet and
// flight_dump_json() can merge the frontend recorder (connection/frame
// events from the socket server) with every shard's ring into one
// time-ordered dump that repro_trace_inspect reconstructs end to end.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serve/service.hpp"

namespace repro::serve {

/// FNV-1a over "model:class" — the routing hash. Exposed so tests (and
/// DESIGN.md's shard-hash definition) can pin it down.
std::uint64_t shard_key_hash(const std::string& model,
                             int class_id) noexcept;

/// Consistent-hash ring: `vnodes` points per shard on a u64 circle;
/// a key routes to the first point clockwise from its hash. Adding or
/// removing one shard moves only ~1/shards of the key space, keeping
/// per-shard result caches warm across lane-count changes.
class ShardRing {
 public:
  ShardRing(std::size_t shards, std::size_t vnodes);

  std::size_t shard_of(const std::string& model, int class_id) const;
  std::size_t shards() const noexcept { return shards_; }

 private:
  std::size_t shards_;
  /// (point hash, shard) sorted by hash.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> points_;
};

struct ShardedConfig {
  /// Worker lanes (= shards). Tools/benches default this from
  /// REPRO_SERVE_LANES (see common/env.hpp kEnvServeLanes).
  std::size_t lanes = 1;
  /// Ring points per shard; more points = smoother key spread.
  std::size_t vnodes = 16;
  /// Template for every shard (queue capacity, batch policy, and cache
  /// capacity are PER SHARD). id_source/batch_id_source are replaced
  /// with shared allocators.
  ServiceConfig service;
};

class ShardedService {
 public:
  ShardedService(ModelRegistry& registry, ShardedConfig config);

  ShardedService(const ShardedService&) = delete;
  ShardedService& operator=(const ShardedService&) = delete;

  /// Routes by (model, class) and submits to the owning shard.
  SubmitResult submit(const GenerateRequest& request);

  /// submit() with a pre-minted trace id (socket front-end).
  SubmitResult submit_traced(const GenerateRequest& request,
                             std::uint64_t trace_id);

  /// Mints a trace id from the fleet-shared allocator.
  std::uint64_t mint_trace_id() noexcept {
    return id_source_->fetch_add(1, std::memory_order_relaxed);
  }

  std::size_t shard_of(const std::string& model, int class_id) const {
    return ring_.shard_of(model, class_id);
  }
  std::size_t lanes() const noexcept { return shards_.size(); }
  TraceService& shard(std::size_t i) { return *shards_[i]; }

  /// Cooperative drive: one pump per shard (each reads its own fresh
  /// per-sweep `now`). Returns total requests completed.
  std::size_t pump();

  /// Drains every shard's queue; returns total requests completed.
  std::size_t drain();

  /// Starts/stops one BackgroundWorker per shard.
  void start();
  void stop();

  /// Refuse all future submissions with kShuttingDown (every shard).
  void close() noexcept;

  std::size_t pending() const;

  /// Current service-clock time (the socket front-end stamps its
  /// conn/frame events from the same clock the shards use, so merged
  /// timelines are ordered on one axis).
  double now() const { return clock_(); }

  /// Frontend recorder for connection/frame events (the socket server
  /// records into this one; shard recorders hold the service events).
  observe::FlightRecorder& frontend_recorder() noexcept {
    return frontend_;
  }

  /// Frontend + all shard events merged, stably sorted by timestamp.
  std::vector<observe::FlightEvent> merged_events() const;

  /// Merged dump in the FlightRecorder::dump_json format (capacity /
  /// recorded / overwritten are summed across recorders).
  std::string flight_dump_json() const;

  /// Transport health fragment supplier (a JSON object string); the
  /// socket server installs one so health_json() can report open
  /// connections and frame counters.
  void set_transport_health(std::function<std::string()> fn) {
    transport_health_ = std::move(fn);
  }

  /// Installs `fn` as every shard's completion notifier (see
  /// TraceService::set_completion_notifier); the socket server installs
  /// one that wakes its poll loop.
  void set_completion_notifier(const std::function<void()>& fn);

  /// Fleet health: worst-lane status, aggregate request counters, a
  /// per-shard section (queue depth, per-instance counters, SLO
  /// status), and — when a socket server is attached — a connections
  /// section from the transport.
  std::string health_json() const;

  const ShardedConfig& config() const noexcept { return config_; }

 private:
  ShardedConfig config_;
  ShardRing ring_;
  std::shared_ptr<std::atomic<std::uint64_t>> id_source_;
  std::shared_ptr<std::atomic<std::uint64_t>> batch_id_source_;
  std::vector<std::unique_ptr<TraceService>> shards_;
  observe::FlightRecorder frontend_;
  ClockFn clock_;
  double start_time_;
  std::function<std::string()> transport_health_;
};

}  // namespace repro::serve
