// repro_served — CLI daemon for the trace-generation service: loads (or
// trains) a model into the ModelRegistry, fans requests across N
// sharded worker lanes, and — in listen mode — fronts them with the
// socket server (length-prefixed JSON protocol, see
// src/serve/net/protocol.hpp).
//
// Modes:
//   repro_served --selftest
//       Trains a toy model, serves a burst of requests through the full
//       queue -> batcher -> cache path (in-process), and verifies the
//       served bits against direct library calls. Non-zero exit on any
//       mismatch — registered in ctest as the serving smoke test
//       (label: serve).
//   repro_served --socket-selftest
//       Same toy model, but served over a real TCP connection: starts
//       the socket front-end on an ephemeral port, drives it with
//       BlockingClient (synchronous calls, a pipelined burst, and a
//       malformed frame that must answer a typed error without killing
//       the connection), verifies decoded wire bytes against the
//       library, and requires the MERGED flight dump (frontend conn
//       events + every shard) to cover every request end to end.
//   repro_served --listen [PORT]
//       Daemon mode: binds 127.0.0.1:PORT (default REPRO_SERVE_PORT,
//       else an ephemeral port, printed on stdout) and serves until
//       stdin reaches EOF. Drive it with tools/repro_client.
//   repro_served --checkpoint PREFIX --classes a,b[,c...] [options]
//       Serves `--requests N` seeded requests against a saved
//       TraceDiffusion checkpoint and writes SERVED_report.json
//       (respecting REPRO_BENCH_DIR).
//
// Observability options (any mode):
//   --health                 print the fleet health snapshot (worst-lane
//                            SLO status, per-shard counters, connection
//                            section in listen/socket modes) as JSON
//   --dump-flightrec [PATH]  write the MERGED flight-recorder dump
//                            (default FLIGHTREC_dump.json, respecting
//                            REPRO_BENCH_DIR); arms recorders even with
//                            REPRO_TELEMETRY off
//
// Options: --lanes N worker lanes (default REPRO_SERVE_LANES, else 1),
//          --requests N (default 32), --count N flows/request (2),
//          --steps N DDIM steps (8), --batch N max flows/model call (8),
//          --queue N capacity per lane (64), --lora PATH adapter overlay.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/telemetry/export.hpp"
#include "common/telemetry/metrics.hpp"
#include "flowgen/dataset.hpp"
#include "flowgen/generator.hpp"
#include "serve/net/client.hpp"
#include "serve/net/server.hpp"
#include "serve/observe/inspect.hpp"
#include "serve/shard.hpp"

using namespace repro;

namespace {

diffusion::PipelineConfig toy_config() {
  diffusion::PipelineConfig cfg;
  cfg.packets = 8;
  cfg.autoencoder.hidden_dim = 48;
  cfg.autoencoder.latent_dim = 8;
  cfg.unet.base_channels = 8;
  cfg.unet.temb_dim = 16;
  cfg.unet.groups = 4;
  cfg.timesteps = 20;
  cfg.ae_epochs = 10;
  cfg.diffusion_epochs = 2;
  cfg.control_epochs = 1;
  cfg.seed = 5;
  return cfg;
}

std::shared_ptr<diffusion::TraceDiffusion> train_toy_model() {
  Rng rng(77);
  flowgen::Dataset ds;
  for (std::size_t i = 0; i < 5; ++i) {
    net::Flow a = flowgen::generate_flow(flowgen::App::kNetflix, 8, rng);
    a.label = 0;
    ds.flows.push_back(std::move(a));
    net::Flow b = flowgen::generate_flow(flowgen::App::kTeams, 8, rng);
    b.label = 1;
    ds.flows.push_back(std::move(b));
  }
  auto pipeline = std::make_shared<diffusion::TraceDiffusion>(
      toy_config(), std::vector<std::string>{"netflix", "teams"});
  pipeline->fit(ds);
  return pipeline;
}

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

void print_stats(serve::ShardedService& sharded) {
  const auto& stats = sharded.shard(0).stats();  // registry-backed globals
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

/// Reconstructs the merged dump and requires a complete timeline for
/// every request; returns the report or nullopt after printing why.
std::optional<serve::observe::InspectReport> require_coverage(
    serve::ShardedService& sharded, std::size_t submitted,
    const char* mode) {
  const auto dump =
      serve::observe::parse_flight_dump(sharded.flight_dump_json());
  if (!dump) {
    std::fprintf(stderr,
                 "repro_served: %s FAILED — flight dump unparsable\n", mode);
    return std::nullopt;
  }
  auto inspect = serve::observe::reconstruct(dump->events);
  if (inspect.requests.size() != submitted ||
      inspect.complete != submitted) {
    std::fprintf(stderr,
                 "repro_served: %s FAILED — flight recorder covers %zu/%zu "
                 "requests (%zu complete)\n",
                 mode, inspect.requests.size(), submitted, inspect.complete);
    return std::nullopt;
  }
  return inspect;
}

/// The socket conformance selftest (see the header comment).
int socket_selftest(serve::ShardedService& sharded,
                    diffusion::TraceDiffusion& pipeline,
                    const diffusion::GenerateOptions& base_options,
                    std::size_t requests, std::size_t count,
                    std::size_t steps) {
  // Library reference bytes are computed UP FRONT: the pipeline object
  // supports one generator at a time, so it must not run concurrently
  // with the shard workers.
  std::vector<std::uint64_t> expected_of(requests);
  for (std::size_t k = 0; k < requests; ++k) {
    diffusion::GenerateOptions opts = base_options;
    opts.count = count;
    opts.ddim_steps = steps;
    expected_of[k] = serve::wire::hash_flows(
        pipeline.generate_seeded(static_cast<int>(k % 2), opts, 1000 + k));
  }

  serve::wire::ServerConfig server_cfg;
  server_cfg.port = 0;  // ephemeral: parallel ctest runs never collide
  serve::wire::SocketServer server(sharded, server_cfg);
  server.start();
  sharded.start();
  std::printf("serve: socket selftest on 127.0.0.1:%u (%zu lanes)\n",
              server.port(), sharded.lanes());

  auto make_request = [&](std::size_t k) {
    serve::GenerateRequest req;
    req.class_id = static_cast<int>(k % 2);
    req.seed = 1000 + k;
    req.count = count;
    req.ddim_steps = steps;
    return req;
  };

  std::size_t submitted = 0, mismatches = 0, served = 0;
  const std::size_t sync_requests = requests / 2;

  {
    // Phase 1: synchronous calls — request/response correlation is
    // trivial, so each reply is checked against ITS library bytes.
    serve::wire::BlockingClient client(server.port());
    for (std::size_t k = 0; k < sync_requests; ++k) {
      const auto reply = client.call(make_request(k));
      ++submitted;
      if (!reply || !reply->ok()) {
        std::fprintf(stderr,
                     "repro_served: SOCKET SELFTEST FAILED — request %zu "
                     "got no ok reply\n", k);
        return 1;
      }
      ++served;
      if (serve::wire::hash_wire_flows(reply->response->flows) !=
          expected_of[k]) {
        ++mismatches;
      }
    }

    // A malformed payload (bad JSON) must answer a typed bad_request
    // error frame and leave the connection usable.
    std::vector<std::uint8_t> bad;
    serve::wire::append_frame(bad, serve::wire::FrameType::kRequest,
                              "{\"model\": nope}");
    client.send_raw(bad.data(), bad.size());
    // Payload errors mint a trace id at decode, so the rejected probe
    // leaves its own (complete) timeline in the flight recorder.
    ++submitted;
    const auto error_reply = client.read_reply(30.0);
    if (!error_reply || error_reply->ok() ||
        error_reply->error->error != "bad_request") {
      std::fprintf(stderr,
                   "repro_served: SOCKET SELFTEST FAILED — malformed "
                   "payload did not answer a typed bad_request frame\n");
      return 1;
    }
    const auto after = client.call(make_request(0));
    ++submitted;
    if (!after || !after->ok()) {
      std::fprintf(stderr,
                   "repro_served: SOCKET SELFTEST FAILED — connection "
                   "unusable after a payload error\n");
      return 1;
    }
    ++served;
    if (serve::wire::hash_wire_flows(after->response->flows) !=
        expected_of[0]) {
      ++mismatches;
    }
  }

  {
    // Phase 2: a pipelined burst. With sharded lanes replies may come
    // back out of order, so verification is by multiset: every reply's
    // content hash must consume one expected (class, seed) hash.
    serve::wire::BlockingClient client(server.port());
    std::multimap<std::uint64_t, std::size_t> expected;
    for (std::size_t k = sync_requests; k < requests; ++k) {
      client.send(make_request(k));
      ++submitted;
      expected.emplace(expected_of[k], k);
    }
    for (std::size_t k = sync_requests; k < requests; ++k) {
      const auto reply = client.read_reply(60.0);
      if (!reply || !reply->ok()) {
        std::fprintf(stderr,
                     "repro_served: SOCKET SELFTEST FAILED — pipelined "
                     "reply %zu missing\n", k - sync_requests);
        return 1;
      }
      ++served;
      const auto it = expected.find(
          serve::wire::hash_wire_flows(reply->response->flows));
      if (it == expected.end()) {
        ++mismatches;
      } else {
        expected.erase(it);
      }
    }
    if (!expected.empty()) mismatches += expected.size();
  }

  // Clients are closed; wait for the server loop to reap both
  // connections so the dump has their conn_closed events.
  for (int spin = 0; spin < 500 && server.open_connections() > 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::printf("serve: health %s\n", sharded.health_json().c_str());
  server.stop();
  sharded.stop();

  if (mismatches > 0) {
    std::fprintf(stderr,
                 "repro_served: SOCKET SELFTEST FAILED — %zu replies "
                 "diverged from the library\n", mismatches);
    return 1;
  }

  const auto inspect = require_coverage(sharded, submitted,
                                        "SOCKET SELFTEST");
  if (!inspect) return 1;
  if (inspect->connections.size() != 2) {
    std::fprintf(stderr,
                 "repro_served: SOCKET SELFTEST FAILED — expected 2 "
                 "connection summaries, got %zu\n",
                 inspect->connections.size());
    return 1;
  }
  for (const auto& conn : inspect->connections) {
    if (!conn.opened || !conn.closed ||
        conn.frames_decoded != conn.frames_sent) {
      std::fprintf(stderr,
                   "repro_served: SOCKET SELFTEST FAILED — conn %llu "
                   "unbalanced (%llu in / %llu out, opened=%d closed=%d)\n",
                   static_cast<unsigned long long>(conn.conn_id),
                   static_cast<unsigned long long>(conn.frames_decoded),
                   static_cast<unsigned long long>(conn.frames_sent),
                   conn.opened ? 1 : 0, conn.closed ? 1 : 0);
      return 1;
    }
  }
  std::printf("serve: socket selftest OK — %zu replies over the wire, all "
              "bit-identical to the library, %zu/%zu timelines complete\n",
              served, inspect->complete, submitted);
  return 0;
}

int run(int argc, char** argv) {
  bool selftest = false, sock_selftest = false, listen_mode = false;
  bool health = false, dump_flightrec = false;
  std::string checkpoint, lora_path, classes_csv;
  std::string flightrec_path;
  std::size_t lanes = env_size(kEnvServeLanes, 1);
  std::size_t port = env_size(kEnvServePort, 0);
  std::size_t requests = 32, count = 2, steps = 8, max_batch = 8, queue = 64;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? std::string(argv[++i]) : std::string();
    };
    if (arg == "--selftest") selftest = true;
    else if (arg == "--socket-selftest") sock_selftest = true;
    else if (arg == "--listen") {
      listen_mode = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        port = parse_size(next()).value_or(port);
      }
    }
    else if (arg == "--health") health = true;
    else if (arg == "--dump-flightrec") {
      dump_flightrec = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') flightrec_path = next();
    }
    else if (arg == "--checkpoint") checkpoint = next();
    else if (arg == "--lora") lora_path = next();
    else if (arg == "--classes") classes_csv = next();
    else if (arg == "--lanes") lanes = parse_size(next()).value_or(lanes);
    else if (arg == "--requests") requests = parse_size(next()).value_or(requests);
    else if (arg == "--count") count = parse_size(next()).value_or(count);
    else if (arg == "--steps") steps = parse_size(next()).value_or(steps);
    else if (arg == "--batch") max_batch = parse_size(next()).value_or(max_batch);
    else if (arg == "--queue") queue = parse_size(next()).value_or(queue);
    else {
      std::fprintf(stderr, "repro_served: unknown argument '%s'\n",
                   arg.c_str());
      return 2;
    }
  }

  serve::ModelRegistry registry;
  std::shared_ptr<diffusion::TraceDiffusion> pipeline;
  std::size_t num_classes = 2;
  if (!checkpoint.empty()) {
    const auto class_names = split_csv(classes_csv);
    if (class_names.empty() || class_names.front().empty()) {
      std::fprintf(stderr,
                   "repro_served: --checkpoint requires --classes a,b,...\n");
      return 2;
    }
    registry.load_checkpoint("default", toy_config(), class_names,
                             checkpoint, "ckpt-v1", lora_path);
    num_classes = class_names.size();
    std::printf("serve: loaded checkpoint '%s' (%zu classes)\n",
                checkpoint.c_str(), num_classes);
  } else {
    pipeline = train_toy_model();
    registry.install("default", pipeline, "toy-v1");
    std::printf("serve: trained toy model (2 classes)\n");
  }

  serve::ShardedConfig shard_cfg;
  shard_cfg.lanes = lanes == 0 ? 1 : lanes;
  shard_cfg.service.queue_capacity = queue;
  shard_cfg.service.batch.max_batch_flows = max_batch;
  shard_cfg.service.batch.max_wait = 0.001;
  shard_cfg.service.worker_idle_wait = 0.002;
  shard_cfg.service.base_options.ddim_steps = steps;
  // The selftests assert full timeline coverage; --dump-flightrec must
  // produce a dump regardless of REPRO_TELEMETRY. All arm the recorders.
  shard_cfg.service.flightrec_force =
      selftest || sock_selftest || listen_mode || dump_flightrec || health;
  serve::ShardedService sharded(registry, shard_cfg);

  auto write_reports = [&]() -> int {
    if (dump_flightrec) {
      const std::string dump_path =
          flightrec_path.empty()
              ? telemetry::report_path("FLIGHTREC_dump.json")
              : flightrec_path;
      if (!telemetry::write_text_file(dump_path,
                                      sharded.flight_dump_json())) {
        std::fprintf(stderr, "repro_served: cannot write %s\n",
                     dump_path.c_str());
        return 1;
      }
      std::printf("serve: flight recorder dump written to %s\n",
                  dump_path.c_str());
    }
    const std::string report = telemetry::metrics_json(
        telemetry::Registry::instance().snapshot());
    const std::string path = telemetry::report_path("SERVED_report.json");
    if (!telemetry::write_text_file(path, report)) {
      std::fprintf(stderr, "repro_served: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("serve: report written to %s\n", path.c_str());
    return 0;
  };

  if (sock_selftest) {
    if (!pipeline) {
      std::fprintf(stderr,
                   "repro_served: --socket-selftest needs the toy model "
                   "(omit --checkpoint)\n");
      return 2;
    }
    const int rc = socket_selftest(sharded, *pipeline,
                                   shard_cfg.service.base_options, requests,
                                   count, steps);
    print_stats(sharded);
    const int report_rc = write_reports();
    return rc != 0 ? rc : report_rc;
  }

  if (listen_mode) {
    serve::wire::ServerConfig server_cfg;
    server_cfg.port = static_cast<std::uint16_t>(port);
    serve::wire::SocketServer server(sharded, server_cfg);
    server.start();
    sharded.start();
    std::printf("serve: listening on 127.0.0.1:%u (%zu lanes)\n",
                server.port(), sharded.lanes());
    std::printf("serve: close stdin (Ctrl-D) to stop\n");
    std::fflush(stdout);
    char line[256];
    while (std::fgets(line, sizeof line, stdin) != nullptr) {
      // Any input line prints a fresh health snapshot — handy when the
      // daemon runs under a terminal.
      std::printf("%s\n", sharded.health_json().c_str());
      std::fflush(stdout);
    }
    if (health) std::printf("%s\n", sharded.health_json().c_str());
    server.stop();
    sharded.stop();
    print_stats(sharded);
    return write_reports();
  }

  sharded.start();

  // Closed-loop window driver: keep a few requests in flight so the
  // batcher has material, without overrunning the bounded queues.
  struct InFlight {
    std::shared_future<serve::Response> response;
    int class_id;
    std::uint64_t seed;
  };
  std::vector<InFlight> in_flight;
  struct Served {
    serve::Response response;
    int class_id;
    std::uint64_t seed;
  };
  std::vector<Served> served;
  std::size_t submitted = 0, served_flows = 0, mismatches = 0;
  while (submitted < requests || !in_flight.empty()) {
    while (submitted < requests && in_flight.size() < max_batch) {
      serve::GenerateRequest req;
      req.class_id = static_cast<int>(submitted % num_classes);
      req.seed = 1000 + submitted;
      req.count = count;
      req.ddim_steps = steps;
      const auto result = sharded.submit(req);
      ++submitted;
      if (result.accepted) {
        in_flight.push_back({result.response, req.class_id, req.seed});
      }
    }
    if (in_flight.empty()) continue;
    const InFlight front = in_flight.front();
    in_flight.erase(in_flight.begin());
    const serve::Response response = front.response.get();
    if (response.status != serve::ResponseStatus::kOk) continue;
    served_flows += response.flows.size();
    if (selftest && pipeline) {
      served.push_back({response, front.class_id, front.seed});
    }
  }
  sharded.stop();

  // Selftest verification runs only after the workers stopped: the
  // pipeline object supports one generator at a time, and the served
  // bits must match the library regardless of when they are replayed.
  for (const Served& s : served) {
    diffusion::GenerateOptions lib_opts = shard_cfg.service.base_options;
    lib_opts.count = count;
    const auto direct =
        pipeline->generate_seeded(s.class_id, lib_opts, s.seed);
    if (serve::wire::hash_flows(direct) !=
        serve::wire::hash_flows(s.response.flows)) {
      ++mismatches;
    }
  }

  std::printf("serve: %zu requests submitted, %zu flows served\n",
              submitted, served_flows);
  print_stats(sharded);

  if (health) {
    std::printf("%s\n", sharded.health_json().c_str());
  }
  const int report_rc = write_reports();
  if (report_rc != 0) return report_rc;

  if (selftest) {
    // Flight-recorder coverage gate: the merged dump must reconstruct,
    // through the same JSON round-trip repro_trace_inspect uses, a
    // complete admission-to-terminal timeline for every request.
    const auto inspect = require_coverage(sharded, submitted, "SELFTEST");
    if (!inspect) return 1;
    std::printf("serve: flight recorder covered %zu/%zu request timelines\n",
                inspect->complete, submitted);
    std::printf("serve: health %s\n", sharded.health_json().c_str());
    if (mismatches > 0) {
      std::fprintf(stderr,
                   "repro_served: SELFTEST FAILED — %zu served responses "
                   "diverged from the library\n",
                   mismatches);
      return 1;
    }
    if (served_flows == 0) {
      std::fprintf(stderr, "repro_served: SELFTEST FAILED — nothing served\n");
      return 1;
    }
    std::printf("serve: selftest OK — every served response bit-identical "
                "to the library\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
