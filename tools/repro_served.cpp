// repro_served — daemon for the trace-generation service: loads (or
// trains) a model into the ModelRegistry, drains one request queue with
// N executor threads, and fronts it with the socket server
// (length-prefixed frame protocol, see src/serve/net/protocol.hpp).
//
// Usage:
//   repro_served [--checkpoint PREFIX --classes a,b[,c...] [--lora PATH]]
//                [--lanes N] [--batch N] [--queue N]
//                [--dump-flightrec [PATH]]
//
// Binds 127.0.0.1 on REPRO_SERVE_PORT (else an ephemeral port) and
// prints "serve: listening on 127.0.0.1:PORT" once it accepts. Without
// --checkpoint it serves a toy model trained at startup (classes 0 and
// 1). Every line read on stdin prints the health snapshot as JSON (SLO
// status, worker count, request counters, per-lane latencies,
// connection section); EOF on stdin stops the daemon, which then prints
// the serving counters and writes SERVED_report.json (respecting
// REPRO_BENCH_DIR). Drive it with tools/repro_client.
//
// Options: --lanes N executor threads over the one queue (default
//          REPRO_SERVE_LANES, else 1), --batch N max flows per model
//          call (8), --queue N queue capacity for the whole service
//          (64), --lora PATH adapter overlay on the checkpoint,
//          --dump-flightrec [PATH] on exit, write the flight recorder
//          dump (connection, frame and service events in one ring;
//          default FLIGHTREC_dump.json, respecting REPRO_BENCH_DIR) for
//          tools/repro_trace_inspect.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/telemetry/export.hpp"
#include "common/telemetry/metrics.hpp"
#include "serve/net/server.hpp"
#include "serve/service.hpp"
#include "support/toy_model.hpp"

using namespace repro;

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(csv.substr(start));
      break;
    }
    out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

void print_stats(serve::TraceService& service) {
  const auto& stats = service.stats();  // registry-backed globals
  const auto latency = stats.latency.snapshot();
  const auto batch = stats.batch_size.snapshot();
  std::printf("serve: completed=%llu cache_hits=%llu rejected_full=%llu "
              "cancelled_deadline=%llu batches=%llu\n",
              static_cast<unsigned long long>(stats.completed.value()),
              static_cast<unsigned long long>(stats.cache_hits.value()),
              static_cast<unsigned long long>(stats.rejected_full.value()),
              static_cast<unsigned long long>(
                  stats.cancelled_deadline.value()),
              static_cast<unsigned long long>(stats.batches.value()));
  std::printf("serve: batch_size mean=%.2f max=%.0f | latency p50=%.1fms "
              "p95=%.1fms p99=%.1fms\n",
              batch.mean(), batch.max, latency.quantile(0.5) * 1e3,
              latency.quantile(0.95) * 1e3, latency.quantile(0.99) * 1e3);
}

int run(int argc, char** argv) {
  bool dump_flightrec = false;
  std::string checkpoint, lora_path, classes_csv;
  std::string flightrec_path;
  std::size_t lanes = env_size(kEnvServeLanes, 1);
  const std::size_t port = env_size(kEnvServePort, 0);
  std::size_t max_batch = 8, queue = 64;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? std::string(argv[++i]) : std::string();
    };
    if (arg == "--dump-flightrec") {
      dump_flightrec = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') flightrec_path = next();
    }
    else if (arg == "--checkpoint") checkpoint = next();
    else if (arg == "--lora") lora_path = next();
    else if (arg == "--classes") classes_csv = next();
    else if (arg == "--lanes") lanes = parse_size(next()).value_or(lanes);
    else if (arg == "--batch") max_batch = parse_size(next()).value_or(max_batch);
    else if (arg == "--queue") queue = parse_size(next()).value_or(queue);
    else {
      std::fprintf(stderr, "repro_served: unknown argument '%s'\n",
                   arg.c_str());
      return 2;
    }
  }
  if (port > 65535) {
    std::fprintf(stderr, "repro_served: bad %s %zu\n", kEnvServePort, port);
    return 2;
  }

  serve::ModelRegistry registry;
  if (!checkpoint.empty()) {
    const auto class_names = split_csv(classes_csv);
    if (class_names.empty() || class_names.front().empty()) {
      std::fprintf(stderr,
                   "repro_served: --checkpoint requires --classes a,b,...\n");
      return 2;
    }
    registry.load_checkpoint("default", toy::config(), class_names,
                             checkpoint, "ckpt-v1", lora_path);
    std::printf("serve: loaded checkpoint '%s' (%zu classes)\n",
                checkpoint.c_str(), class_names.size());
  } else {
    registry.install("default", toy::train(), "toy-v1");
    std::printf("serve: trained toy model (2 classes)\n");
  }

  serve::ServiceConfig service_cfg;
  service_cfg.workers = lanes == 0 ? 1 : lanes;
  service_cfg.queue_capacity = queue;
  service_cfg.batch.max_batch_flows = max_batch;
  service_cfg.batch.max_wait = 0.001;
  service_cfg.worker_idle_wait = 0.002;
  // The health snapshot and --dump-flightrec read the recorder, so it
  // is armed regardless of REPRO_TELEMETRY.
  service_cfg.flightrec_force = true;
  serve::TraceService service(registry, service_cfg);

  {
    serve::wire::ServerConfig server_cfg;
    server_cfg.port = static_cast<std::uint16_t>(port);
    serve::wire::SocketServer server(service, server_cfg);
    service.start();
    server.start();
    std::printf("serve: listening on 127.0.0.1:%u (%zu workers)\n",
                server.port(), service.config().workers);
    std::printf("serve: close stdin (Ctrl-D) to stop\n");
    std::fflush(stdout);
    char line[256];
    while (std::fgets(line, sizeof line, stdin) != nullptr) {
      std::printf("%s\n", service.health_json().c_str());
      std::fflush(stdout);
    }
    // The server's destructor closes every connection its loop has not
    // reaped yet, so each one's conn_closed is in the dump below.
  }
  service.stop();
  print_stats(service);

  if (dump_flightrec) {
    const std::string dump_path =
        flightrec_path.empty() ? telemetry::report_path("FLIGHTREC_dump.json")
                               : flightrec_path;
    if (!telemetry::write_text_file(dump_path,
                                    service.flight_recorder().dump_json())) {
      std::fprintf(stderr, "repro_served: cannot write %s\n",
                   dump_path.c_str());
      return 1;
    }
    std::printf("serve: flight recorder dump written to %s\n",
                dump_path.c_str());
  }
  const std::string report =
      telemetry::metrics_json(telemetry::Registry::instance().snapshot());
  const std::string path = telemetry::report_path("SERVED_report.json");
  if (!telemetry::write_text_file(path, report)) {
    std::fprintf(stderr, "repro_served: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("serve: report written to %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
