// TraceService: the in-process trace-generation service.
//
//   submit() [any thread] -> admission control -> ResultCache probe
//     -> RequestQueue (priority lanes, bounded)
//   pump()   [K executors] -> BatchScheduler::form -> cancel expired
//     -> ModelRegistry snapshot -> generate_with_flow_seeds (ONE batched
//        model call) -> split per request -> fulfill futures + cache
//
// Threading model: one queue, one batcher, one cache and one flight
// recorder, drained by K executors. submit() is safe from any number of
// threads and never blocks on model work (full queue => typed reject).
// pump() is safe from any number of threads at once: the queue, cache,
// SLO tracker and completion notifier are locked, the recorder is
// multi-producer and the stats are atomics, so two pumps racing for one
// queue head at worst form an empty batch. It is driven either
// cooperatively (tests, closed-loop benches) or by the built-in
// BackgroundWorker's ServiceConfig::workers threads (start()/stop(),
// used by the daemon). The executors share the registry's read-only
// model through its const sampling path; all model math inside pump()
// still runs under the deterministic parallel lane model.
//
// Observability: every request is traced end to end. submit() mints a
// trace id (the request id) and each stage transition appends a typed
// FlightEvent — admitted / rejected / cache-hit / deadline-swept /
// coalesced-into-batch / completed — to the service's flight recorder
// (lock-free ring, one relaxed atomic load when REPRO_TELEMETRY is
// off). The socket front-end records its connection and frame events
// into the same ring, so one dump holds the wire-to-model timeline. The
// SLO tracker burns per-lane error budget on objective misses, and
// health_json() exports lane percentiles, budget status, recorder
// accounting and the transport's connection counters as one
// machine-readable snapshot. Tracing is scheduling-metadata only: it
// never touches RNG streams or model state, so served bits are
// identical with tracing on or off (locked in by tests/serve_test.cpp).
//
// Determinism: per-flow noise streams are forked from (request.seed,
// flow_index) exactly as TraceDiffusion::generate_seeded does, so a
// served response is bit-identical to the direct library call, no
// matter how requests were batched or which executor ran the batch, at
// any REPRO_THREADS setting and any worker count (locked in by
// tests/serve_shard_test.cpp at 1, 2 and 8 workers).
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
  /// Queued requests, across every priority lane and executor.
  std::size_t queue_capacity = 64;
  BatchPolicy batch;
  std::size_t cache_capacity = 256;  ///< 0 disables the result cache
  /// Executor threads start() runs, all pumping the one queue. Tools
  /// and benches default this from REPRO_SERVE_LANES (see
  /// common/env.hpp kEnvServeLanes).
  std::size_t workers = 1;
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
  /// Safe to call from several threads at once.
  std::size_t pump();

  /// pump() against an injected timestamp (tests; fake clocks).
  std::size_t pump_at(double now);

  /// Mints a trace id without submitting (socket front-end: the id is
  /// minted when the request frame is decoded, so protocol-level
  /// rejects have timelines too).
  std::uint64_t mint_trace_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Current service-clock time (the socket front-end stamps its
  /// conn/frame events from it, so one dump is ordered on one axis).
  double now() const { return clock_(); }

  /// pump() until the queue is empty (ignores the max-wait policy).
  std::size_t drain();

  /// Starts/stops the ServiceConfig::workers background pump threads
  /// (idempotent). If pump() throws on a worker (a serving-path bug,
  /// not a model error — those are delivered through the response
  /// future), the worker logs the flight-recorder dump for post-mortem
  /// debugging and the service closes (new submissions get
  /// kShuttingDown).
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

  /// Recent per-request events (see serve/observe/flight_recorder.hpp).
  observe::FlightRecorder& flight_recorder() noexcept { return flightrec_; }
  const observe::FlightRecorder& flight_recorder() const noexcept {
    return flightrec_;
  }
  const observe::SloTracker& slo() const noexcept { return slo_; }

  /// Transport health fragment supplier (a JSON object string); the
  /// socket server installs one so health_json() can report open
  /// connections and frame counters. {} uninstalls.
  void set_transport_health(std::function<std::string()> fn);

  /// Machine-readable health snapshot: overall SLO status, worker
  /// count, per-lane p50/p95/p99 + error-budget windows,
  /// queue/cache/batch counters, flight-recorder accounting, and — when
  /// a socket server is attached — its "connections" section. Safe to
  /// call from any thread.
  std::string health_json() const;

 private:
  std::size_t execute(FormedBatch&& formed, double now);
  void notify_completion();
  void cancel(Pending&& p, RejectReason reason, double now);
  void update_queue_gauges();
  void note_event(observe::EventKind kind, std::uint64_t request_id,
                  std::uint64_t batch_id, std::uint32_t flows,
                  std::uint8_t lane, std::uint16_t detail, double time);

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
  std::atomic<bool> closed_{false};
  mutable std::mutex hooks_mutex_;
  std::function<void()> notifier_;  // guarded by hooks_mutex_
  std::function<std::string()> transport_health_;  // guarded by hooks_mutex_
  std::unique_ptr<BackgroundWorker> worker_;
};

}  // namespace repro::serve
