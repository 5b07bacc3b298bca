// TraceService: the in-process trace-generation service.
//
//   submit() [any thread] -> admission control -> ResultCache probe
//     -> RequestQueue (priority lanes, bounded)
//   pump()   [ONE consumer] -> BatchScheduler::form -> cancel expired
//     -> ModelRegistry snapshot -> generate_with_flow_seeds (ONE batched
//        model call) -> split per request -> fulfill futures + cache
//
// Threading model: submit() is safe from any number of threads and
// never blocks on model work (full queue => typed reject). pump() must
// be driven by exactly one consumer — either cooperatively (tests,
// closed-loop benches) or by the built-in BackgroundWorker
// (start()/stop(), used by the daemon). All model math inside pump()
// still runs under the deterministic parallel lane model.
//
// Observability: every request is traced end to end. submit() mints a
// trace id (the request id) and each stage transition appends a typed
// FlightEvent — admitted / rejected / cache-hit / deadline-swept /
// coalesced-into-batch / completed — to the service's flight recorder
// (lock-free ring, one relaxed atomic load when REPRO_TELEMETRY is
// off). The SLO tracker burns per-lane error budget on objective
// misses, and health_json() exports lane percentiles, budget status,
// and recorder accounting as one machine-readable snapshot. Tracing is
// scheduling-metadata only: it never touches RNG streams or model
// state, so served bits are identical with tracing on or off (locked
// in by tests/serve_test.cpp).
//
// Determinism: per-flow noise streams are forked from (request.seed,
// flow_index) exactly as TraceDiffusion::generate_seeded does, so a
// served response is bit-identical to the direct library call, no
// matter how requests were batched, at any REPRO_THREADS setting.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "serve/batcher.hpp"
#include "serve/cache.hpp"
#include "serve/clock.hpp"
#include "serve/observe/flight_recorder.hpp"
#include "serve/observe/slo.hpp"
#include "serve/queue.hpp"
#include "serve/registry.hpp"
#include "serve/stats.hpp"
#include "serve/worker.hpp"

namespace repro::serve {

struct ServiceConfig {
  std::size_t queue_capacity = 64;
  BatchPolicy batch;
  std::size_t cache_capacity = 256;  ///< 0 disables the result cache
  double worker_idle_wait = 0.005;   ///< seconds; background mode only
  /// Flight-recorder ring size (events); 0 disables recording entirely.
  std::size_t flightrec_capacity = 4096;
  /// Arms the recorder even when REPRO_TELEMETRY is off (tools/tests
  /// that need a dump without enabling span collection process-wide).
  bool flightrec_force = false;
  /// Per-lane latency objectives and error-budget window.
  observe::SloPolicy slo;
  /// Service-wide generation options (guidance, constraints, ...).
  /// sampler/ddim_steps/count/seed come from each request.
  diffusion::GenerateOptions base_options;
  ClockFn clock;  ///< defaults to steady_clock_fn() when empty
  /// Shared trace-id / batch-id allocators. A ShardedService injects
  /// one pair across all its shards so ids stay unique in a merged
  /// flight dump; when null the service allocates from private
  /// counters (the single-service behavior is unchanged).
  std::shared_ptr<std::atomic<std::uint64_t>> id_source;
  std::shared_ptr<std::atomic<std::uint64_t>> batch_id_source;
};

struct SubmitResult {
  bool accepted = false;
  /// Valid when !accepted: why admission refused the request.
  RejectReason reject = RejectReason::kBadRequest;
  std::uint64_t request_id = 0;
  /// Valid when accepted; already ready on a cache hit.
  std::shared_future<Response> response;
};

class TraceService {
 public:
  TraceService(ModelRegistry& registry, ServiceConfig config);
  ~TraceService();

  TraceService(const TraceService&) = delete;
  TraceService& operator=(const TraceService&) = delete;

  /// Non-blocking request admission (see SubmitResult).
  SubmitResult submit(const GenerateRequest& request);

  /// submit() with a pre-minted trace id (the socket front-end mints at
  /// frame decode, before admission); trace_id == 0 mints one here.
  SubmitResult submit_traced(const GenerateRequest& request,
                             std::uint64_t trace_id);

  /// Cooperative drive: cancels expired requests and dispatches at most
  /// one batch. Returns the number of requests completed (served +
  /// cancelled); 0 when idle or when the batch policy prefers to wait.
  /// Reads the clock exactly once; the whole iteration — dispatch
  /// decision, deadline sweep, batch formation — sees that one `now`.
  std::size_t pump();

  /// pump() against an injected timestamp (tests; fake clocks).
  std::size_t pump_at(double now);

  /// Mints a trace id without submitting (socket front-end: the id is
  /// minted when the request frame is decoded, so protocol-level
  /// rejects have timelines too).
  std::uint64_t mint_trace_id() noexcept {
    return next_id().fetch_add(1, std::memory_order_relaxed);
  }

  /// pump() until the queue is empty (ignores the max-wait policy).
  std::size_t drain();

  /// Starts/stops the background pump thread (idempotent). If pump()
  /// throws on the worker (a serving-path bug, not a model error —
  /// those are delivered through the response future), the worker logs
  /// the flight-recorder dump for post-mortem debugging and the
  /// service closes (new submissions get kShuttingDown).
  void start();
  void stop();

  /// Refuse all future submissions with kShuttingDown.
  void close() noexcept { closed_.store(true, std::memory_order_relaxed); }

  /// Installs the function pump()/drain() call, on the pumping thread,
  /// after they fulfil at least one response promise: a consumer that
  /// waits on many futures (the socket front-end's poll loop) sleeps
  /// until one may be ready instead of polling them. {} uninstalls;
  /// once this returns, the previous notifier is never called again.
  void set_completion_notifier(std::function<void()> fn);

  std::size_t pending() const { return queue_.size(); }

  /// Backpressure probe for open-loop prefetchers (replay/emit): how
  /// many submissions the bounded queue would currently admit before
  /// rejecting with kQueueFull. This is a racy *hint* — concurrent
  /// producers can consume the headroom between probe and submit — so
  /// the typed reject from submit() remains the hard signal; the probe
  /// just lets steady-state prefetch avoid burning rejects.
  std::size_t queue_headroom() const {
    const std::size_t depth = queue_.size();
    const std::size_t cap = config_.queue_capacity;
    return depth >= cap ? 0 : cap - depth;
  }
  ServiceStats& stats() noexcept { return stats_; }
  const ServiceConfig& config() const noexcept { return config_; }
  ModelRegistry& registry() noexcept { return registry_; }

  /// Per-instance admission/completion tallies. ServiceStats counters
  /// are process-wide registry objects shared by every service in the
  /// process; a ShardedService needs per-shard numbers for its health
  /// report, so each instance also keeps its own.
  struct InstanceCounters {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t rejected = 0;
    std::uint64_t cache_hits = 0;
  };
  InstanceCounters counters() const noexcept {
    InstanceCounters out;
    out.submitted = own_submitted_.load(std::memory_order_relaxed);
    out.completed = own_completed_.load(std::memory_order_relaxed);
    out.cancelled = own_cancelled_.load(std::memory_order_relaxed);
    out.rejected = own_rejected_.load(std::memory_order_relaxed);
    out.cache_hits = own_cache_hits_.load(std::memory_order_relaxed);
    return out;
  }

  /// Recent per-request events (see serve/observe/flight_recorder.hpp).
  observe::FlightRecorder& flight_recorder() noexcept { return flightrec_; }
  const observe::FlightRecorder& flight_recorder() const noexcept {
    return flightrec_;
  }
  const observe::SloTracker& slo() const noexcept { return slo_; }

  /// Machine-readable health snapshot: overall SLO status, per-lane
  /// p50/p95/p99 + error-budget windows, queue/cache/batch counters,
  /// and flight-recorder accounting. Safe to call from any thread.
  std::string health_json() const;

 private:
  std::size_t execute(FormedBatch&& formed, double now);
  void notify_completion();
  void cancel(Pending&& p, RejectReason reason, double now);
  void update_queue_gauges();
  void note_event(observe::EventKind kind, std::uint64_t request_id,
                  std::uint64_t batch_id, std::uint32_t flows,
                  std::uint8_t lane, std::uint16_t detail, double time);
  std::atomic<std::uint64_t>& next_id() noexcept {
    return config_.id_source ? *config_.id_source : next_id_;
  }
  std::atomic<std::uint64_t>& next_batch_id() noexcept {
    return config_.batch_id_source ? *config_.batch_id_source
                                   : next_batch_id_;
  }

  ModelRegistry& registry_;
  ServiceConfig config_;
  ClockFn clock_;
  RequestQueue queue_;
  BatchScheduler scheduler_;
  ResultCache cache_;
  ServiceStats stats_;
  observe::FlightRecorder flightrec_;
  observe::SloTracker slo_;
  double start_time_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> next_batch_id_{1};
  std::atomic<std::uint64_t> own_submitted_{0};
  std::atomic<std::uint64_t> own_completed_{0};
  std::atomic<std::uint64_t> own_cancelled_{0};
  std::atomic<std::uint64_t> own_rejected_{0};
  std::atomic<std::uint64_t> own_cache_hits_{0};
  std::atomic<bool> closed_{false};
  std::mutex notifier_mutex_;
  std::function<void()> notifier_;  // guarded by notifier_mutex_
  std::unique_ptr<BackgroundWorker> worker_;
};

}  // namespace repro::serve
