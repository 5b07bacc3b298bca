// Executor-count determinism conformance: the same request set must
// produce bit-identical per-request bytes with 1, 2, and 8 started
// workers pumping the one queue, with shuffled arrival orders,
// in-process AND over the socket, for both the DDIM and DDPM sampler
// paths — always equal to the direct library call. Plus the invariants
// K executors over one queue depend on: one hot key spreads over more
// than one executor, cache hits identical to cold misses, registry
// hot-swap during in-flight batches, one reply per frame under an
// open-loop socket burst into a small queue, and one flight dump that
// covers every wire request.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/telemetry/metrics.hpp"
#include "serve/net/client.hpp"
#include "serve/net/server.hpp"
#include "serve/observe/inspect.hpp"
#include "support/toy_model.hpp"

namespace repro::serve {
namespace {

/// Arrival order for a given worker count: a fixed permutation that
/// differs per worker count (stride 5 is coprime with the set size), so
/// each configuration sees the requests in a different shuffle.
std::vector<std::size_t> arrival_order(std::size_t n, std::size_t salt) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = (i * 5 + salt) % n;
  return order;
}

class ShardTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pipeline_ = toy::train();
  }
  static void TearDownTestSuite() { pipeline_.reset(); }

  void SetUp() override { registry_.install("default", pipeline_, "v1"); }

  /// The conformance request set: both classes, both samplers, mixed
  /// flow counts, distinct seeds.
  static std::vector<GenerateRequest> request_set() {
    std::vector<GenerateRequest> out;
    for (std::uint64_t k = 0; k < 8; ++k) {
      GenerateRequest r;
      r.class_id = static_cast<int>(k % 2);
      r.count = 1 + k % 2;
      r.seed = 4000 + k;
      r.sampler = k < 4 ? diffusion::SamplerKind::kDdim
                        : diffusion::SamplerKind::kDdpm;
      r.ddim_steps = 4;
      out.push_back(r);
    }
    return out;
  }

  /// Library-side reference hash per request. Computed BEFORE any
  /// executor runs — the references are the ground truth every
  /// transport and worker count must reproduce.
  static std::vector<std::uint64_t> library_hashes(
      const std::vector<GenerateRequest>& requests) {
    std::vector<std::uint64_t> out;
    out.reserve(requests.size());
    for (const GenerateRequest& r : requests) {
      diffusion::GenerateOptions opts;
      opts.count = r.count;
      opts.ddim_steps = r.ddim_steps;
      opts.sampler = r.sampler;
      out.push_back(
          wire::hash_flows(pipeline_->generate_seeded(r.class_id, opts, r.seed)));
    }
    return out;
  }

  static ServiceConfig service_config(std::size_t workers) {
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.batch.max_wait = 0.0;
    cfg.cache_capacity = 0;  // cold path unless a test opts in
    return cfg;
  }

  static std::shared_ptr<diffusion::TraceDiffusion> pipeline_;
  ModelRegistry registry_;
};

std::shared_ptr<diffusion::TraceDiffusion> ShardTest::pipeline_;

TEST_F(ShardTest, InProcessLanesProduceBitIdenticalResponses) {
  const auto requests = request_set();
  const auto reference = library_hashes(requests);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    TraceService service(registry_, service_config(workers));
    const auto order = arrival_order(requests.size(), workers);
    std::vector<SubmitResult> results(requests.size());
    for (const std::size_t k : order) {
      results[k] = service.submit(requests[k]);
      ASSERT_TRUE(results[k].accepted) << "workers=" << workers << " k=" << k;
    }
    // The executors race for the queued batches; the futures are the
    // only synchronization the test needs.
    service.start();
    for (std::size_t k = 0; k < requests.size(); ++k) {
      const Response resp = results[k].response.get();
      ASSERT_EQ(resp.status, ResponseStatus::kOk);
      EXPECT_FALSE(resp.cache_hit);
      EXPECT_EQ(wire::hash_flows(resp.flows), reference[k])
          << "request " << k << " diverged from the library at " << workers
          << " workers";
    }
    service.stop();
  }
}

TEST_F(ShardTest, OneHotKeyRunsOnMoreThanOneExecutor) {
  // Sixteen one-flow requests of ONE (model, class, sampler, steps) key,
  // queued before two executors start, one flow per model call: both
  // executors take batches of the hot key, so at least two
  // model_start..model_end intervals in the flight dump overlap in time.
  constexpr std::size_t kRequests = 16;
  ServiceConfig cfg = service_config(2);
  cfg.batch.max_batch_flows = 1;
  cfg.queue_capacity = kRequests;
  cfg.flightrec_force = true;
  std::vector<GenerateRequest> requests(kRequests);
  for (std::size_t k = 0; k < kRequests; ++k) {
    requests[k].seed = 7000 + k;
    requests[k].ddim_steps = 20;
  }
  const auto reference = library_hashes(requests);
  TraceService service(registry_, cfg);
  std::vector<SubmitResult> results(kRequests);
  for (std::size_t k = 0; k < kRequests; ++k) {
    results[k] = service.submit(requests[k]);
    ASSERT_TRUE(results[k].accepted) << "k=" << k;
  }
  service.start();
  for (std::size_t k = 0; k < kRequests; ++k) {
    const Response resp = results[k].response.get();
    ASSERT_EQ(resp.status, ResponseStatus::kOk);
    EXPECT_EQ(resp.batch_flows, 1u);
    EXPECT_EQ(wire::hash_flows(resp.flows), reference[k]) << "request " << k;
  }
  service.stop();

  std::map<std::uint64_t, std::pair<double, double>> calls;
  for (const observe::FlightEvent& event :
       service.flight_recorder().dump()) {
    if (event.kind == observe::EventKind::kModelStart) {
      calls[event.batch_id].first = event.time;
    } else if (event.kind == observe::EventKind::kModelEnd) {
      calls[event.batch_id].second = event.time;
    }
  }
  ASSERT_EQ(calls.size(), kRequests);
  std::vector<std::pair<double, double>> intervals;
  for (const auto& entry : calls) intervals.push_back(entry.second);
  std::sort(intervals.begin(), intervals.end());
  std::size_t overlaps = 0;
  double latest_end = intervals.front().second;
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    if (intervals[i].first < latest_end) ++overlaps;
    latest_end = std::max(latest_end, intervals[i].second);
  }
  EXPECT_GE(overlaps, 1u) << "the hot key ran on one executor at a time";
}

TEST_F(ShardTest, OverSocketLanesProduceBitIdenticalBytes) {
  const auto requests = request_set();
  const auto reference = library_hashes(requests);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    TraceService service(registry_, service_config(workers));
    wire::SocketServer server(service, wire::ServerConfig{});
    service.start();
    server.start();

    // Pipelined shuffled burst on one connection. Trace ids are minted
    // at frame decode (fresh service: ids 1..n in send order), so reply
    // request_id j+1 <=> order[j] even when concurrent executors
    // reorder the replies.
    const auto order = arrival_order(requests.size(), workers);
    wire::BlockingClient client(server.port());
    for (const std::size_t k : order) {
      client.send(requests[k]);
    }
    std::vector<bool> seen(requests.size(), false);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto reply = client.read_reply(120.0);
      ASSERT_TRUE(reply.has_value()) << "workers=" << workers;
      ASSERT_TRUE(reply->ok())
          << "workers=" << workers << ": " << reply->error->error;
      const wire::WireResponse& resp = *reply->response;
      ASSERT_EQ(resp.status, "ok");
      ASSERT_GE(resp.request_id, 1u);
      ASSERT_LE(resp.request_id, requests.size());
      const std::size_t k = order[resp.request_id - 1];
      EXPECT_FALSE(seen[k]) << "duplicate reply for request " << k;
      seen[k] = true;
      EXPECT_EQ(wire::hash_wire_flows(resp.flows), reference[k])
          << "request " << k << " diverged over the socket at " << workers
          << " workers";
    }
    server.stop();
    service.stop();
  }
}

TEST_F(ShardTest, OpenLoopSocketBurstAnswersEveryFrameOnce) {
  // Open-loop overload over the wire: every connection pipelines its
  // share of the burst before reading anything, into a queue small
  // enough that the burst can overflow it, drained by 1 or 4 executors.
  // Every frame must get exactly one reply on its own connection, typed
  // ok or queue_full: nothing dropped, nothing duplicated, nothing hung.
  constexpr std::size_t kRequests = 12;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t conns : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
      ServiceConfig cfg = service_config(workers);
      cfg.queue_capacity = kRequests / 2 + 1;
      cfg.batch.max_batch_flows = 4;
      TraceService service(registry_, cfg);
      wire::SocketServer server(service, wire::ServerConfig{});
      service.start();
      server.start();

      std::vector<std::unique_ptr<wire::BlockingClient>> clients;
      for (std::size_t c = 0; c < conns; ++c) {
        clients.push_back(
            std::make_unique<wire::BlockingClient>(server.port()));
      }
      std::vector<std::size_t> sent(conns, 0);
      for (std::size_t i = 0; i < kRequests; ++i) {
        GenerateRequest r;
        r.class_id = static_cast<int>(i % 2);
        r.seed = 9000 + workers * 1000 + conns * 100 + i;
        r.ddim_steps = 4;
        clients[i % conns]->send(r);
        ++sent[i % conns];
      }

      // A fresh service mints trace ids 1..n at frame decode, and both
      // reply kinds carry theirs: the ids seen must be exactly 1..n.
      std::vector<bool> answered(kRequests + 1, false);
      std::size_t ok = 0;
      for (std::size_t c = 0; c < conns; ++c) {
        for (std::size_t k = 0; k < sent[c]; ++k) {
          const auto reply = clients[c]->read_reply(60.0);
          ASSERT_TRUE(reply.has_value())
              << "workers=" << workers << " conns=" << conns
              << ": frame left unanswered";
          std::uint64_t id = 0;
          if (reply->ok()) {
            EXPECT_EQ(reply->response->status, "ok");
            ++ok;
            id = reply->response->request_id;
          } else {
            EXPECT_EQ(reply->error->error, "queue_full");
            id = reply->error->request_id;
          }
          ASSERT_GE(id, 1u);
          ASSERT_LE(id, kRequests);
          EXPECT_FALSE(answered[id]) << "duplicate reply for id " << id;
          answered[id] = true;
        }
      }
      EXPECT_GE(ok, 1u) << "workers=" << workers << " conns=" << conns;
      server.stop();
      service.stop();
    }
  }
}

TEST_F(ShardTest, MergedSocketDumpCoversEveryWireRequest) {
  // The one flight dump (connection, frame and service events in one
  // ring) of a 2-worker service over TCP. Connection 1 makes synchronous
  // calls, sends a malformed payload the protocol layer answers with a typed
  // bad_request, and is then served again; connection 2 pipelines a
  // burst. Every wire request, the rejected one included, must have a
  // complete timeline, and both connections must be closed and
  // frame-balanced (observe::incomplete_reason, the rule
  // repro_trace_inspect --expect-complete applies).
  const auto requests = request_set();
  const auto reference = library_hashes(requests);
  ServiceConfig cfg = service_config(2);
  cfg.flightrec_force = true;
  TraceService service(registry_, cfg);
  wire::SocketServer server(service, wire::ServerConfig{});
  service.start();
  server.start();
  telemetry::Counter& bytes_out =
      telemetry::Registry::instance().counter("serve.net.bytes_out");
  const std::uint64_t bytes_out_before = bytes_out.value();

  const std::size_t sync_requests = requests.size() / 2;
  std::size_t sent = 0;
  {
    wire::BlockingClient client(server.port());
    for (std::size_t k = 0; k < sync_requests; ++k) {
      const auto reply = client.call(requests[k]);
      ++sent;
      ASSERT_TRUE(reply.has_value() && reply->ok()) << "request " << k;
      EXPECT_EQ(wire::hash_wire_flows(reply->response->flows), reference[k]);
    }
    std::vector<std::uint8_t> bad;
    wire::append_frame(bad, wire::FrameType::kRequest, "{\"model\": nope}");
    client.send_raw(bad.data(), bad.size());
    ++sent;
    const auto rejected = client.read_reply(30.0);
    ASSERT_TRUE(rejected.has_value());
    ASSERT_FALSE(rejected->ok());
    EXPECT_EQ(rejected->error->error, "bad_request");
    const auto after = client.call(requests[0]);
    ++sent;
    ASSERT_TRUE(after.has_value() && after->ok());
    EXPECT_EQ(wire::hash_wire_flows(after->response->flows), reference[0]);
  }
  {
    wire::BlockingClient client(server.port());
    for (std::size_t k = sync_requests; k < requests.size(); ++k) {
      client.send(requests[k]);
      ++sent;
    }
    for (std::size_t k = sync_requests; k < requests.size(); ++k) {
      const auto reply = client.read_reply(60.0);
      ASSERT_TRUE(reply.has_value() && reply->ok()) << "pipelined " << k;
    }
  }
  // Both clients are closed; let the loop reap them so the dump has
  // their conn_closed events.
  for (int spin = 0; spin < 500 && server.open_connections() > 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  server.stop();
  service.stop();
  EXPECT_GT(bytes_out.value(), bytes_out_before);

  const auto dump =
      observe::parse_flight_dump(service.flight_recorder().dump_json());
  ASSERT_TRUE(dump.has_value());
  EXPECT_EQ(dump->overwritten, 0u);
  const observe::InspectReport report = observe::reconstruct(dump->events);
  const auto why = observe::incomplete_reason(report);
  EXPECT_FALSE(why.has_value()) << why.value_or("");
  EXPECT_EQ(report.requests.size(), sent);
  EXPECT_EQ(report.connections.size(), 2u);
  // The rejected request never reached the queue: it is the one wire
  // timeline without a batch.
  std::size_t unbatched = 0;
  for (const observe::RequestTimeline& timeline : report.requests) {
    EXPECT_NE(timeline.conn_id, 0u) << "request " << timeline.request_id;
    if (timeline.batch_id == 0) ++unbatched;
  }
  EXPECT_EQ(unbatched, 1u);
}

TEST_F(ShardTest, CacheHitServesBytesIdenticalToColdMiss) {
  const auto requests = request_set();
  ServiceConfig cfg = service_config(2);
  cfg.cache_capacity = 64;
  TraceService service(registry_, cfg);

  std::vector<std::uint64_t> cold(requests.size());
  {
    std::vector<SubmitResult> results(requests.size());
    for (std::size_t k = 0; k < requests.size(); ++k) {
      results[k] = service.submit(requests[k]);
      ASSERT_TRUE(results[k].accepted);
    }
    service.drain();
    for (std::size_t k = 0; k < requests.size(); ++k) {
      const Response resp = results[k].response.get();
      ASSERT_EQ(resp.status, ResponseStatus::kOk);
      EXPECT_FALSE(resp.cache_hit);
      cold[k] = wire::hash_flows(resp.flows);
    }
  }
  // Resubmitting the identical set hits the cache — ready without a
  // pump, bytes identical to the cold run.
  for (std::size_t k = 0; k < requests.size(); ++k) {
    auto r = service.submit(requests[k]);
    ASSERT_TRUE(r.accepted);
    const Response resp = r.response.get();
    ASSERT_EQ(resp.status, ResponseStatus::kOk);
    EXPECT_TRUE(resp.cache_hit) << "request " << k;
    EXPECT_EQ(wire::hash_flows(resp.flows), cold[k]) << "request " << k;
  }
  EXPECT_EQ(service.pending(), 0u);
}

TEST_F(ShardTest, HotSwapDuringInFlightShardedBatchesCompletesCleanly) {
  const auto requests = request_set();
  const auto reference = library_hashes(requests);

  TraceService service(registry_, service_config(2));
  const auto old_snap = registry_.snapshot("default");
  ASSERT_NE(old_snap, nullptr);
  service.start();

  std::vector<SubmitResult> results(requests.size());
  for (std::size_t k = 0; k < requests.size(); ++k) {
    results[k] = service.submit(requests[k]);
    ASSERT_TRUE(results[k].accepted);
  }
  // Swap while the executors are mid-burst: a batch that already
  // captured the v1 snapshot completes on it; batches formed after the
  // swap serve v2. Either way every byte is the library's.
  registry_.install("default", pipeline_, "v2");

  for (std::size_t k = 0; k < requests.size(); ++k) {
    const Response resp = results[k].response.get();
    ASSERT_EQ(resp.status, ResponseStatus::kOk);
    EXPECT_TRUE(resp.model_version == "v1" || resp.model_version == "v2")
        << resp.model_version;
    EXPECT_EQ(wire::hash_flows(resp.flows), reference[k])
        << "request " << k << " diverged across the hot-swap";
  }
  service.stop();
  // The snapshot in-flight batches held is still alive and untouched.
  EXPECT_EQ(old_snap->version, "v1");
}

}  // namespace
}  // namespace repro::serve
