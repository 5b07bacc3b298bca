#include "serve/service.hpp"

#include <exception>
#include <utility>

#include "common/contracts.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/telemetry/trace.hpp"

namespace repro::serve {
namespace {

std::uint8_t lane_index(Priority priority) noexcept {
  return static_cast<std::uint8_t>(priority);
}

}  // namespace

TraceService::TraceService(ModelRegistry& registry, ServiceConfig config)
    : registry_(registry),
      config_(std::move(config)),
      clock_(config_.clock ? config_.clock : steady_clock_fn()),
      queue_(config_.queue_capacity),
      scheduler_(config_.batch),
      cache_(config_.cache_capacity),
      flightrec_(config_.flightrec_capacity),
      slo_(config_.slo),
      start_time_(clock_()) {
  flightrec_.set_forced(config_.flightrec_force);
}

TraceService::~TraceService() { stop(); }

void TraceService::note_event(observe::EventKind kind,
                              std::uint64_t request_id, std::uint64_t batch_id,
                              std::uint32_t flows, std::uint8_t lane,
                              std::uint16_t detail, double time) {
  // One relaxed-load bail-out: with REPRO_TELEMETRY off (and no force
  // flag) tracing costs nothing beyond this check on the serving path.
  if (!flightrec_.armed()) return;
  observe::FlightEvent event;
  event.time = time;
  event.request_id = request_id;
  event.batch_id = batch_id;
  event.flows = flows;
  event.kind = kind;
  event.lane = lane;
  event.detail = detail;
  flightrec_.force_record(event);
}

SubmitResult TraceService::submit(const GenerateRequest& request) {
  return submit_traced(request, 0);
}

SubmitResult TraceService::submit_traced(const GenerateRequest& request,
                                         std::uint64_t trace_id) {
  REPRO_SPAN("serve.submit");
  SubmitResult result;
  stats_.submitted.add();
  own_submitted_.fetch_add(1, std::memory_order_relaxed);
  // The trace id is minted at admission — before any validation — so
  // even rejected requests have a timeline in the flight recorder. The
  // socket front-end mints earlier (at frame decode) and passes it in.
  result.request_id = trace_id != 0 ? trace_id : mint_trace_id();
  const double now = clock_();
  const std::uint8_t lane = lane_index(request.priority);
  const auto flows = static_cast<std::uint32_t>(request.count);
  note_event(observe::EventKind::kSubmitted, result.request_id, 0, flows,
             lane, 0, now);

  const auto reject = [&](RejectReason reason) {
    result.reject = reason;
    own_rejected_.fetch_add(1, std::memory_order_relaxed);
    if (reason == RejectReason::kQueueFull) {
      stats_.rejected_full.add();
    } else {
      stats_.rejected_invalid.add();
    }
    stats_.reject_reason(reason).add();
    note_event(observe::EventKind::kRejected, result.request_id, 0, flows,
               lane, static_cast<std::uint16_t>(reason), now);
  };

  if (closed_.load(std::memory_order_relaxed)) {
    reject(RejectReason::kShuttingDown);
    return result;
  }
  if (request.count == 0) {
    reject(RejectReason::kBadRequest);
    return result;
  }
  const auto snap = registry_.snapshot(request.model);
  if (!snap) {
    reject(RejectReason::kUnknownModel);
    return result;
  }
  if (request.class_id < 0 ||
      static_cast<std::size_t>(request.class_id) >= snap->num_classes) {
    reject(RejectReason::kUnknownClass);
    return result;
  }
  if (request.sampler == diffusion::SamplerKind::kDistilled &&
      !snap->supports_distilled(request.ddim_steps)) {
    // Fail fast at admission: the pipeline would throw mid-batch (and
    // take its coalesced batch-mates down with it) for a step count no
    // distilled stage was fitted for.
    reject(RejectReason::kBadRequest);
    return result;
  }

  // Cache probe: a hit responds immediately without touching the queue.
  if (auto hit = cache_.get(cache_key_of(request, snap->version))) {
    stats_.cache_hits.add();
    stats_.completed.add();
    own_cache_hits_.fetch_add(1, std::memory_order_relaxed);
    own_completed_.fetch_add(1, std::memory_order_relaxed);
    stats_.flows_served.add(hit->size());
    note_event(observe::EventKind::kCacheHit, result.request_id, 0, flows,
               lane, 0, now);
    Response response;
    response.request_id = result.request_id;
    response.flows = std::move(*hit);
    response.model_version = snap->version;
    response.cache_hit = true;
    std::promise<Response> promise;
    result.response = promise.get_future().share();
    promise.set_value(std::move(response));
    result.accepted = true;
    return result;
  }
  stats_.cache_misses.add();

  Pending pending;
  pending.request = request;
  pending.id = result.request_id;
  pending.enqueue_time = now;
  result.response = pending.promise.get_future().share();
  if (auto refused = queue_.try_push(std::move(pending))) {
    reject(*refused);
    return result;
  }
  stats_.accepted.add();
  stats_.lane_of(request.priority).admitted.add();
  note_event(observe::EventKind::kAdmitted, result.request_id, 0, flows,
             lane, 0, now);
  update_queue_gauges();
  if (worker_) worker_->notify();
  result.accepted = true;
  return result;
}

void TraceService::cancel(Pending&& p, RejectReason reason, double now) {
  stats_.cancelled_deadline.add();
  own_cancelled_.fetch_add(1, std::memory_order_relaxed);
  stats_.lane_of(p.request.priority).cancelled.add();
  const std::uint8_t lane = lane_index(p.request.priority);
  const auto flows = static_cast<std::uint32_t>(p.request.count);
  slo_.on_cancelled(lane, now);
  if (reason == RejectReason::kDeadlineExpired) {
    note_event(observe::EventKind::kDeadlineSwept, p.id, 0, flows, lane, 0,
               now);
  }
  note_event(observe::EventKind::kCancelled, p.id, 0, flows, lane,
             static_cast<std::uint16_t>(reason), now);
  Response response;
  response.status = ResponseStatus::kCancelled;
  response.cancel_reason = reason;
  response.request_id = p.id;
  response.queue_wait = now - p.enqueue_time;
  response.total_latency = response.queue_wait;
  p.promise.set_value(std::move(response));
}

void TraceService::set_completion_notifier(std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(notifier_mutex_);
  notifier_ = std::move(fn);
}

void TraceService::notify_completion() {
  // Called under the lock: once set_completion_notifier({}) returns, no
  // call is in flight, so its owner may release what the call touches
  // (the socket server closes its eventfd).
  std::lock_guard<std::mutex> lock(notifier_mutex_);
  if (notifier_) notifier_();
}

std::size_t TraceService::pump() { return pump_at(clock_()); }

std::size_t TraceService::pump_at(double now) {
  // `now` is sampled once per iteration and injected everywhere a
  // deadline is compared — a sweep that re-read the clock per request
  // would cancel later requests against a fresher timestamp whenever
  // the lane stalls mid-sweep (regression-locked in serve_test.cpp).
  if (!scheduler_.should_dispatch(queue_, now)) {
    // Even while batching waits, expired requests must not linger.
    std::size_t cancelled = 0;
    for (Pending& p : queue_.sweep_expired(now, config_.queue_capacity)) {
      cancel(std::move(p), RejectReason::kDeadlineExpired, now);
      ++cancelled;
    }
    update_queue_gauges();
    if (cancelled > 0) notify_completion();
    return cancelled;
  }
  FormedBatch formed = scheduler_.form(queue_, now);
  const std::size_t done = execute(std::move(formed), now);
  update_queue_gauges();
  if (done > 0) notify_completion();
  return done;
}

std::size_t TraceService::drain() {
  std::size_t total = 0;
  while (!queue_.empty()) {
    const double now = clock_();
    total += execute(scheduler_.form(queue_, now), now);
  }
  update_queue_gauges();
  if (total > 0) notify_completion();
  return total;
}

std::size_t TraceService::execute(FormedBatch&& formed, double now) {
  std::size_t done = 0;
  for (Pending& p : formed.expired) {
    cancel(std::move(p), RejectReason::kDeadlineExpired, now);
    ++done;
  }
  if (formed.batch.empty()) return done;

  const std::uint64_t batch_id =
      next_batch_id().fetch_add(1, std::memory_order_relaxed);
  telemetry::SpanTimer span("serve.batch.execute");
  span.arg("batch_id", batch_id)
      .arg("requests", static_cast<std::uint64_t>(formed.batch.size()))
      .arg("flows", static_cast<std::uint64_t>(formed.flows));

  const auto snap = registry_.snapshot(formed.key.model);
  if (!snap) {
    // Model was removed after admission: typed cancellation, not a drop.
    for (Pending& p : formed.batch) {
      cancel(std::move(p), RejectReason::kUnknownModel, now);
      ++done;
    }
    return done;
  }
  span.arg("model_version", snap->version);
  for (const Pending& p : formed.batch) {
    note_event(observe::EventKind::kCoalesced, p.id, batch_id,
               static_cast<std::uint32_t>(p.request.count),
               lane_index(p.request.priority), 0, now);
  }

  // ONE batched model call over the concatenated per-flow seed streams.
  // Flow j of request r uses fork_flow_seed(r.seed, j), so the result
  // is bit-identical to serving each request alone.
  std::vector<std::uint64_t> flow_seeds;
  flow_seeds.reserve(formed.flows);
  for (const Pending& p : formed.batch) {
    for (std::size_t i = 0; i < p.request.count; ++i) {
      flow_seeds.push_back(diffusion::fork_flow_seed(p.request.seed, i));
    }
  }
  diffusion::GenerateOptions opts = config_.base_options;
  opts.sampler = formed.key.sampler;
  opts.ddim_steps = formed.key.steps;
  opts.count = formed.flows;

  stats_.batches.add();
  stats_.batch_size.observe(static_cast<double>(formed.flows));
  note_event(observe::EventKind::kModelStart, 0, batch_id,
             static_cast<std::uint32_t>(formed.flows), 0, 0, now);

  // Through a const reference: sampling reads the shared model only, so
  // lanes running the same snapshot concurrently share nothing mutable.
  const diffusion::TraceDiffusion& model = *snap->pipeline;
  std::vector<net::Flow> flows;
  try {
    flows = model.generate_with_flow_seeds(formed.key.class_id, opts,
                                           flow_seeds);
  } catch (...) {
    // Model failure: flows=0 marks the aborted call; the member
    // timelines stay open, which is exactly what a post-mortem dump
    // should show.
    note_event(observe::EventKind::kModelEnd, 0, batch_id, 0, 0, 0, now);
    const std::exception_ptr error = std::current_exception();
    for (Pending& p : formed.batch) {
      p.promise.set_exception(error);
      ++done;
    }
    return done;
  }
  REPRO_ENSURE(flows.size() == formed.flows,
               "serve: batched generation returned wrong flow count");

  const double finish = clock_();
  note_event(observe::EventKind::kModelEnd, 0, batch_id,
             static_cast<std::uint32_t>(formed.flows), 0, 0, finish);
  std::size_t offset = 0;
  for (Pending& p : formed.batch) {
    Response response;
    response.request_id = p.id;
    response.model_version = snap->version;
    response.flows.assign(
        std::make_move_iterator(flows.begin() + static_cast<long>(offset)),
        std::make_move_iterator(flows.begin() +
                                static_cast<long>(offset + p.request.count)));
    offset += p.request.count;
    response.queue_wait = now - p.enqueue_time;
    response.total_latency = finish - p.enqueue_time;
    response.batch_flows = formed.flows;
    response.batch_id = batch_id;
    stats_.queue_wait.observe(response.queue_wait);
    stats_.latency.observe(response.total_latency);
    stats_.completed.add();
    own_completed_.fetch_add(1, std::memory_order_relaxed);
    stats_.flows_served.add(p.request.count);
    LaneStats& lane = stats_.lane_of(p.request.priority);
    lane.queue_wait.observe(response.queue_wait);
    lane.latency.observe(response.total_latency);
    lane.completed.add();
    slo_.on_completed(lane_index(p.request.priority), response.total_latency,
                      finish);
    note_event(observe::EventKind::kCompleted, p.id, batch_id,
               static_cast<std::uint32_t>(p.request.count),
               lane_index(p.request.priority), 0, finish);
    cache_.put(cache_key_of(p.request, snap->version), response.flows);
    p.promise.set_value(std::move(response));
    ++done;
  }
  return done;
}

void TraceService::update_queue_gauges() {
  const auto sizes = queue_.lane_sizes();
  std::size_t total = 0;
  for (std::size_t i = 0; i < kPriorityLanes; ++i) {
    stats_.lane[i].queue_depth.set(static_cast<double>(sizes[i]));
    total += sizes[i];
  }
  stats_.queue_depth.set(static_cast<double>(total));
}

std::string TraceService::health_json() const {
  const double now = clock_();
  JsonWriter json;
  json.begin_object();
  json.key("status");
  json.value(slo_.overall_status(now));
  json.key("uptime_seconds");
  json.value(now - start_time_);

  json.key("requests");
  json.begin_object();
  json.key("submitted");
  json.value(stats_.submitted.value());
  json.key("accepted");
  json.value(stats_.accepted.value());
  json.key("completed");
  json.value(stats_.completed.value());
  json.key("rejected_queue_full");
  json.value(stats_.rejected_full.value());
  json.key("rejected_invalid");
  json.value(stats_.rejected_invalid.value());
  json.key("cancelled");
  json.value(stats_.cancelled_deadline.value());
  json.key("cache_hits");
  json.value(stats_.cache_hits.value());
  json.key("batches");
  json.value(stats_.batches.value());
  json.end_object();

  json.key("queue");
  json.begin_object();
  json.key("depth");
  json.value(static_cast<std::uint64_t>(queue_.size()));
  json.key("capacity");
  json.value(static_cast<std::uint64_t>(config_.queue_capacity));
  json.end_object();

  json.key("lanes");
  json.begin_array();
  const auto lane_sizes = queue_.lane_sizes();
  for (std::size_t i = 0; i < kPriorityLanes; ++i) {
    const LaneStats& lane = stats_.lane[i];
    const auto latency = lane.latency.snapshot();
    const observe::LaneBudget budget = slo_.lane_budget(i, now);
    json.begin_object();
    json.key("lane");
    json.value(static_cast<std::uint64_t>(i));
    json.key("objective_seconds");
    json.value(slo_.policy().latency_objective[i]);
    json.key("queue_depth");
    json.value(static_cast<std::uint64_t>(lane_sizes[i]));
    json.key("admitted");
    json.value(lane.admitted.value());
    json.key("completed");
    json.value(lane.completed.value());
    json.key("cancelled");
    json.value(lane.cancelled.value());
    json.key("latency_p50");
    json.value(latency.quantile(0.5));
    json.key("latency_p95");
    json.value(latency.quantile(0.95));
    json.key("latency_p99");
    json.value(latency.quantile(0.99));
    json.key("window_total");
    json.value(budget.total);
    json.key("window_violations");
    json.value(budget.violations);
    json.key("budget_remaining");
    json.value(budget.budget_remaining);
    json.key("budget_status");
    json.value(budget.status);
    json.end_object();
  }
  json.end_array();

  json.key("flight_recorder");
  json.begin_object();
  json.key("capacity");
  json.value(static_cast<std::uint64_t>(flightrec_.capacity()));
  json.key("recorded");
  json.value(flightrec_.recorded());
  json.key("overwritten");
  json.value(flightrec_.overwritten());
  json.key("armed");
  json.value(flightrec_.armed());
  json.end_object();

  json.end_object();
  return std::move(json).str();
}

void TraceService::start() {
  if (worker_) return;
  worker_ = std::make_unique<BackgroundWorker>(
      [this]() -> std::size_t {
        try {
          return pump();
        } catch (const std::exception& error) {
          // Serving-path bug (model errors are delivered through the
          // response future, not thrown out of pump): preserve the
          // evidence, then refuse new work instead of crashing the host.
          REPRO_LOG_ERROR() << "serve: worker panic: " << error.what();
          REPRO_LOG_ERROR() << "serve: flight recorder dump: "
                            << flightrec_.dump_json();
          close();
          return 0;
        }
      },
      config_.worker_idle_wait);
}

void TraceService::stop() {
  if (!worker_) return;
  worker_->stop();
  worker_.reset();
}

}  // namespace repro::serve
