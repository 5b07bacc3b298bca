// Serving-layer load bench (src/serve): measures how much throughput
// the micro-batching scheduler recovers over one-at-a-time serving, and
// demonstrates bounded-queue backpressure under an open-loop burst.
//
// Stages:
//   train              fit the bench-scale pipeline once (not measured)
//   baseline_single    closed loop through the service, max_batch=1 —
//                      every request is its own model call
//   closed_loop_batched same request stream, max_batch=REPRO_SERVE_BATCH
//                      — same-key requests coalesce into one batched
//                      generate_with_flow_seeds call
//   closed_loop_traced same as batched but with telemetry spans on and
//                      the flight recorder armed — measures tracing
//                      overhead and proves 100% timeline coverage
//   open_loop_overload burst submissions into a tiny queue: typed
//                      queue-full rejects, no blocking, accepted work
//                      still completes
//   open_loop_socket   the same open-loop burst through the TCP
//                      front-end (src/serve/net) at 1, 2, and 8 client
//                      connections over REPRO_SERVE_LANES sharded
//                      worker lanes — client-side p50/p95/p99, flows/s,
//                      and the wire-visible reject rate per conn count
//
// Results: flows_per_s_single, flows_per_s_served, speedup (the
// acceptance headline), open-loop accept/reject counts, and latency
// percentiles; the metrics block carries the serve.* counters plus the
// queue-depth gauge and batch-size histogram from ServiceStats.
//
// Interpreting speedup: micro-batching wins twice — (a) per-call
// amortization (one weight-panel pack + dispatch per GEMM instead of
// one per request; measures ~1.5x regardless of core count) and (b)
// lane scaling (a [cout, batch*length] GEMM panel is wide enough for
// REPRO_THREADS lanes to split productively, while a single request's
// panel is not). The >=4x acceptance target at REPRO_THREADS=4 needs
// (a)*(b), i.e. at least 4 physical cores; on a single-core host the
// lanes timeshare one CPU and only (a) is visible. The "threads" field
// in BENCH_serve_load.json records the lane count of the run.
//
// Knobs: REPRO_SERVE_REQUESTS (48) single-flow requests per measured
// stage, REPRO_SERVE_BATCH (16) max flows per model call,
// REPRO_DDIM_STEPS / REPRO_PACKETS as everywhere else.
#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "serve/net/client.hpp"
#include "serve/net/server.hpp"
#include "serve/observe/inspect.hpp"
#include "serve/service.hpp"
#include "serve/shard.hpp"

using namespace repro;

namespace {

std::shared_ptr<diffusion::TraceDiffusion> train_pipeline() {
  bench::Scale scale;
  scale.packets = env_size("REPRO_PACKETS", 16);
  diffusion::PipelineConfig cfg = bench::pipeline_config(scale);
  // Throughput depends on architecture, not fit quality: train briefly.
  cfg.ae_epochs = 4;
  cfg.diffusion_epochs = 2;
  cfg.control_epochs = 1;
  cfg.seed = 11;
  auto pipeline = std::make_shared<diffusion::TraceDiffusion>(
      cfg, std::vector<std::string>{"netflix", "teams"});
  Rng rng(1);
  flowgen::Dataset ds;
  for (int i = 0; i < 6; ++i) {
    net::Flow a =
        flowgen::generate_flow(flowgen::App::kNetflix, scale.packets, rng);
    a.label = 0;
    ds.flows.push_back(std::move(a));
    net::Flow b =
        flowgen::generate_flow(flowgen::App::kTeams, scale.packets, rng);
    b.label = 1;
    ds.flows.push_back(std::move(b));
  }
  pipeline->fit(ds);
  return pipeline;
}

struct LoadResult {
  double flows_per_s = 0.0;
  std::size_t flows = 0;
  std::size_t timelines = 0;           ///< traced runs: requests in dump
  std::size_t timelines_complete = 0;  ///< traced runs: full timelines
};

/// Closed-loop driver: submits `requests` single-flow requests in waves
/// of `max_batch` and drains the service after each wave, so the
/// batcher always has a full window of coalescable material. All model
/// work happens on this thread inside drain() — the measured rate is
/// pure serving throughput, no consumer/producer scheduling noise.
LoadResult run_closed_loop(serve::ModelRegistry& registry,
                           std::size_t requests, std::size_t max_batch,
                           std::size_t steps, std::uint64_t seed_base,
                           bool traced = false) {
  serve::ServiceConfig cfg;
  cfg.queue_capacity = requests + 1;  // admission is not under test here
  cfg.batch.max_batch_flows = max_batch;
  cfg.cache_capacity = 0;  // unique seeds: a cache would only add probes
  cfg.flightrec_force = traced;
  serve::TraceService service(registry, cfg);

  std::vector<std::shared_future<serve::Response>> responses;
  responses.reserve(requests);
  std::size_t submitted = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (submitted < requests) {
    const std::size_t wave =
        std::min(max_batch, requests - submitted);
    for (std::size_t w = 0; w < wave; ++w, ++submitted) {
      serve::GenerateRequest req;
      req.class_id = static_cast<int>(submitted % 2);
      req.seed = seed_base + submitted;
      req.count = 1;
      req.ddim_steps = steps;
      const auto result = service.submit(req);
      if (result.accepted) responses.push_back(result.response);
    }
    service.drain();
  }
  LoadResult out;
  for (auto& response : responses) {
    const serve::Response r = response.get();
    if (r.status == serve::ResponseStatus::kOk) out.flows += r.flows.size();
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (secs > 0.0) out.flows_per_s = static_cast<double>(out.flows) / secs;
  if (traced) {
    // Reconstruction runs after the clock stops — dump/parse cost is
    // not part of the measured serving rate.
    const auto dump = serve::observe::parse_flight_dump(
        service.flight_recorder().dump_json());
    if (dump.has_value()) {
      const serve::observe::InspectReport report =
          serve::observe::reconstruct(dump->events);
      out.timelines = report.requests.size();
      out.timelines_complete = report.complete;
    }
  }
  return out;
}

struct OverloadResult {
  std::size_t accepted = 0;
  std::size_t rejected_full = 0;
  std::size_t completed = 0;
};

/// Open-loop burst: fire `burst` submissions at a `capacity`-slot queue
/// without consuming. Admission must answer every request immediately —
/// typed queue-full rejects past capacity, no blocking — and everything
/// accepted must still complete once the service drains.
OverloadResult run_open_loop_overload(serve::ModelRegistry& registry,
                                      std::size_t burst,
                                      std::size_t capacity,
                                      std::size_t steps) {
  serve::ServiceConfig cfg;
  cfg.queue_capacity = capacity;
  cfg.batch.max_batch_flows = capacity;
  cfg.cache_capacity = 0;
  serve::TraceService service(registry, cfg);

  OverloadResult out;
  std::vector<std::shared_future<serve::Response>> responses;
  for (std::size_t i = 0; i < burst; ++i) {
    serve::GenerateRequest req;
    req.class_id = static_cast<int>(i % 2);
    req.seed = 0xb00f + i;
    req.count = 1;
    req.ddim_steps = steps;
    const auto result = service.submit(req);
    if (result.accepted) {
      ++out.accepted;
      responses.push_back(result.response);
    } else if (result.reject == serve::RejectReason::kQueueFull) {
      ++out.rejected_full;
    }
  }
  service.drain();
  for (auto& response : responses) {
    if (response.get().status == serve::ResponseStatus::kOk) ++out.completed;
  }
  return out;
}

struct Percentiles {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Linear-interpolated quantiles over client-side latencies, in ms.
Percentiles percentiles_ms(std::vector<double>& seconds) {
  Percentiles out;
  if (seconds.empty()) return out;
  std::sort(seconds.begin(), seconds.end());
  const auto at = [&seconds](double q) {
    const double pos = q * static_cast<double>(seconds.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, seconds.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return (seconds[lo] * (1.0 - frac) + seconds[hi] * frac) * 1e3;
  };
  out.p50 = at(0.5);
  out.p95 = at(0.95);
  out.p99 = at(0.99);
  return out;
}

struct SocketResult {
  std::size_t ok = 0;
  std::size_t rejected = 0;  ///< error frames (queue_full) + cancels
  std::size_t flows = 0;
  double flows_per_s = 0.0;
  Percentiles latency;
};

/// Open-loop burst through the socket front-end: `conns` pipelined
/// client connections fire `requests` frames without waiting, then the
/// replies are collected round-robin. Latency is the CLIENT's view —
/// burst start to reply arrival, wire decode included — which is what
/// a user of `repro_served --listen` actually experiences.
SocketResult run_open_loop_socket(serve::ModelRegistry& registry,
                                  std::size_t conns, std::size_t requests,
                                  std::size_t max_batch, std::size_t steps,
                                  std::size_t lanes,
                                  std::uint64_t seed_base) {
  serve::ShardedConfig cfg;
  cfg.lanes = lanes;
  // Sized so a full burst into one shard can overflow: the wire-level
  // queue_full reject path is part of what this stage measures.
  cfg.service.queue_capacity = requests / 2 + 1;
  cfg.service.batch.max_batch_flows = max_batch;
  cfg.service.cache_capacity = 0;
  serve::ShardedService sharded(registry, cfg);
  serve::wire::SocketServer server(sharded, serve::wire::ServerConfig{});
  sharded.start();
  server.start();

  SocketResult out;
  {
    std::vector<std::unique_ptr<serve::wire::BlockingClient>> clients;
    std::vector<std::size_t> outstanding(conns, 0);
    clients.reserve(conns);
    for (std::size_t c = 0; c < conns; ++c) {
      clients.push_back(
          std::make_unique<serve::wire::BlockingClient>(server.port()));
    }
    const auto t0 = std::chrono::steady_clock::now();
    const auto since_start = [&t0] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
          .count();
    };
    for (std::size_t i = 0; i < requests; ++i) {
      serve::GenerateRequest req;
      req.class_id = static_cast<int>(i % 2);
      req.seed = seed_base + i;
      req.count = 1;
      req.ddim_steps = steps;
      clients[i % conns]->send(req);
      ++outstanding[i % conns];
    }

    std::vector<double> arrivals;
    arrivals.reserve(requests);
    std::size_t remaining = requests;
    double last = 0.0;
    while (remaining > 0 && since_start() < 120.0) {
      for (std::size_t c = 0; c < conns; ++c) {
        if (outstanding[c] == 0) continue;
        if (clients[c]->eof()) {  // server gone: stop waiting on it
          remaining -= outstanding[c];
          outstanding[c] = 0;
          continue;
        }
        const auto reply = clients[c]->read_reply(0.005);
        if (!reply) continue;
        --outstanding[c];
        --remaining;
        const double t = since_start();
        if (reply->ok() && reply->response->status == "ok") {
          ++out.ok;
          out.flows += reply->response->flows.size();
          arrivals.push_back(t);
          last = t;
        } else {
          ++out.rejected;
        }
      }
    }
    if (last > 0.0) {
      out.flows_per_s = static_cast<double>(out.flows) / last;
    }
    out.latency = percentiles_ms(arrivals);
  }
  server.stop();
  sharded.stop();
  return out;
}

}  // namespace

int main() {
  bench::BenchReport report(
      "serve_load",
      "serving-layer throughput: micro-batching vs single-request");
  bench::Scale scale;
  const std::size_t requests = env_size("REPRO_SERVE_REQUESTS", 48);
  const std::size_t max_batch = env_size("REPRO_SERVE_BATCH", 16);
  const std::size_t steps = scale.ddim_steps;

  report.stage("train");
  serve::ModelRegistry registry;
  registry.install("default", train_pipeline(), "bench-v1");

  report.stage("baseline_single");
  const LoadResult single =
      run_closed_loop(registry, requests, /*max_batch=*/1, steps, 10'000);
  std::printf("single-request: %zu flows, %.2f flows/s\n", single.flows,
              single.flows_per_s);

  report.stage("closed_loop_batched");
  const LoadResult served =
      run_closed_loop(registry, requests, max_batch, steps, 20'000);
  std::printf("batched (max_batch=%zu): %zu flows, %.2f flows/s\n",
              max_batch, served.flows, served.flows_per_s);

  report.stage("closed_loop_traced");
  const bool telemetry_was_on = telemetry::enabled();
  telemetry::set_enabled(true);
  const LoadResult traced = run_closed_loop(registry, requests, max_batch,
                                            steps, 30'000, /*traced=*/true);
  telemetry::set_enabled(telemetry_was_on);
  const double trace_overhead_pct =
      served.flows_per_s > 0.0
          ? (served.flows_per_s - traced.flows_per_s) / served.flows_per_s *
                100.0
          : 0.0;
  std::printf("traced (spans + flight recorder): %zu flows, %.2f flows/s "
              "(%.1f%% overhead), %zu/%zu timelines complete\n",
              traced.flows, traced.flows_per_s, trace_overhead_pct,
              traced.timelines_complete, traced.timelines);

  report.stage("open_loop_overload");
  const OverloadResult overload = run_open_loop_overload(
      registry, /*burst=*/4 * max_batch, /*capacity=*/max_batch / 2 + 1,
      steps);
  std::printf("open-loop burst: %zu accepted, %zu queue-full rejects, "
              "%zu completed\n",
              overload.accepted, overload.rejected_full, overload.completed);

  report.stage("open_loop_socket");
  const std::size_t lanes = env_size(kEnvServeLanes, 2);
  bool socket_ok = true;
  for (const std::size_t conns :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const SocketResult sock =
        run_open_loop_socket(registry, conns, requests, max_batch, steps,
                             lanes, 40'000 + conns * 1'000);
    const double reject_rate =
        requests > 0
            ? static_cast<double>(sock.rejected) /
                  static_cast<double>(requests)
            : 0.0;
    std::printf("socket open-loop (%zu conns, %zu lanes): %zu ok, %zu "
                "rejected, %.2f flows/s, p50=%.1fms p95=%.1fms "
                "p99=%.1fms\n",
                conns, lanes, sock.ok, sock.rejected, sock.flows_per_s,
                sock.latency.p50, sock.latency.p95, sock.latency.p99);
    char prefix[32];
    std::snprintf(prefix, sizeof prefix, "socket_c%zu_", conns);
    report.note(std::string(prefix) + "flows_per_s", sock.flows_per_s);
    report.note(std::string(prefix) + "reject_rate", reject_rate);
    report.note(std::string(prefix) + "p50_ms", sock.latency.p50);
    report.note(std::string(prefix) + "p95_ms", sock.latency.p95);
    report.note(std::string(prefix) + "p99_ms", sock.latency.p99);
    // Conservation over the wire: every frame answered, typed ok or
    // typed reject — nothing dropped, nothing hung.
    if (sock.ok == 0 || sock.ok + sock.rejected != requests) {
      socket_ok = false;
    }
  }
  report.note("socket_lanes", static_cast<double>(lanes));

  const double speedup = single.flows_per_s > 0.0
                             ? served.flows_per_s / single.flows_per_s
                             : 0.0;
  std::printf("micro-batching speedup: %.2fx\n", speedup);

  // Latency percentiles from the service histograms (all three services
  // share the process-wide ServiceStats instruments).
  auto& registry_t = telemetry::Registry::instance();
  const auto latency =
      registry_t.histogram("serve.latency.total_seconds",
                           telemetry::Histogram::duration_bounds())
          .snapshot();
  report.note("requests", static_cast<double>(requests));
  report.note("batch_flows", static_cast<double>(max_batch));
  report.note("flows_per_s_single", single.flows_per_s);
  report.note("flows_per_s_served", served.flows_per_s);
  report.note("flows_per_s_traced", traced.flows_per_s);
  report.note("trace_overhead_pct", trace_overhead_pct);
  report.note("trace_timelines", static_cast<double>(traced.timelines));
  report.note("trace_timelines_complete",
              static_cast<double>(traced.timelines_complete));
  report.note("speedup", speedup);
  report.note("overload_accepted", static_cast<double>(overload.accepted));
  report.note("overload_rejected_queue_full",
              static_cast<double>(overload.rejected_full));
  report.note("overload_completed", static_cast<double>(overload.completed));
  report.note("latency_p50_ms", latency.quantile(0.5) * 1e3);
  report.note("latency_p95_ms", latency.quantile(0.95) * 1e3);
  report.note("latency_p99_ms", latency.quantile(0.99) * 1e3);

  const bool overload_ok =
      overload.rejected_full > 0 && overload.completed == overload.accepted;
  const bool coverage_ok = traced.timelines == requests &&
                           traced.timelines_complete == requests;
  if (single.flows == 0 || served.flows == 0 || !overload_ok) {
    std::fprintf(stderr, "serve_load: FAILED (served nothing or dropped "
                         "accepted work)\n");
    return 1;
  }
  if (!coverage_ok) {
    std::fprintf(stderr,
                 "serve_load: FAILED (flight recorder covered %zu/%zu "
                 "timelines, %zu complete)\n",
                 traced.timelines, requests, traced.timelines_complete);
    return 1;
  }
  if (!socket_ok) {
    std::fprintf(stderr, "serve_load: FAILED (socket stage dropped or "
                         "hung wire requests)\n");
    return 1;
  }
  return 0;
}
