// Serving-layer tests: admission control, deadlines, priority lanes,
// micro-batching, the result cache, registry hot-swap, and the
// served-response determinism contract (service output bit-identical to
// the direct library call, at 1 and 4 parallel lanes).
//
// All scheduling here is driven cooperatively (TraceService::pump) on a
// fake clock, so deadline and max-wait behavior is tested without any
// real sleeping.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/fnv.hpp"
#include "common/json.hpp"
#include "common/parallel/thread_pool.hpp"
#include "common/telemetry/metrics.hpp"
#include "common/telemetry/trace.hpp"
#include "flowgen/generator.hpp"
#include "nn/arena.hpp"
#include "serve/observe/inspect.hpp"

namespace repro::serve {
namespace {

diffusion::PipelineConfig tiny_config() {
  diffusion::PipelineConfig cfg;
  cfg.packets = 8;
  cfg.autoencoder.hidden_dim = 48;
  cfg.autoencoder.latent_dim = 8;
  cfg.unet.base_channels = 8;
  cfg.unet.temb_dim = 16;
  cfg.unet.groups = 4;
  cfg.timesteps = 20;
  cfg.ae_epochs = 15;
  cfg.diffusion_epochs = 3;
  cfg.diffusion_batch = 4;
  cfg.control_epochs = 2;
  cfg.seed = 5;
  return cfg;
}

flowgen::Dataset tiny_dataset(std::size_t per_class) {
  Rng rng(77);
  flowgen::Dataset ds;
  for (std::size_t i = 0; i < per_class; ++i) {
    net::Flow a = flowgen::generate_flow(flowgen::App::kNetflix, 8, rng);
    a.label = 0;
    ds.flows.push_back(std::move(a));
    net::Flow b = flowgen::generate_flow(flowgen::App::kTeams, 8, rng);
    b.label = 1;
    ds.flows.push_back(std::move(b));
  }
  return ds;
}

std::uint64_t hash_flows(const std::vector<net::Flow>& flows) {
  std::uint64_t h = kFnvOffset;
  auto mix = [&h](const void* data, std::size_t size) {
    h = fnv1a(data, size, h);
  };
  for (const auto& flow : flows) {
    mix(&flow.label, sizeof(flow.label));
    for (const auto& pkt : flow.packets) {
      mix(&pkt.timestamp, sizeof(pkt.timestamp));
      const auto wire = pkt.serialize();
      mix(wire.data(), wire.size());
    }
  }
  return h;
}

/// Calls of span `name` anywhere in the merged profile tree.
std::uint64_t span_calls(const telemetry::SpanReport& node,
                         const std::string& name) {
  std::uint64_t calls = node.name == name ? node.calls : 0;
  for (const auto& child : node.children) calls += span_calls(child, name);
  return calls;
}

/// The telemetry names e2ebench's layer ledger reads
/// (e2ebench/src/ledger.cpp) must all be recorded by a traced served
/// request: a renamed span or metric silently turns its ledger row into
/// 0. `before` is the registry snapshot taken before the traced work,
/// and the profile was reset then; `pooled` says the work ran on a
/// multi-lane pool (only then does parallel.tasks count).
void expect_ledger_names_recorded(const telemetry::MetricsSnapshot& before,
                                  bool pooled) {
  const telemetry::SpanReport profile = telemetry::profile_snapshot();
  for (const char* name :
       {"serve.submit", "serve.cache.get", "diffusion.sample.ddim_step",
        "diffusion.generate.decode", "nn.linear.forward",
        "nn.conv1d.forward", "nn.attention.forward", "nprint.decode_flow"}) {
    EXPECT_GT(span_calls(profile, name), 0u) << "span " << name;
  }
  const telemetry::MetricsSnapshot after =
      telemetry::Registry::instance().snapshot();
  std::vector<const char*> counters = {"diffusion.sample.eps_evals",
                                       "nn.arena.alloc"};
  if (pooled) counters.push_back("parallel.tasks");
  for (const char* name : counters) {
    const auto was = before.counters.find(name);
    const auto now = after.counters.find(name);
    ASSERT_NE(now, after.counters.end()) << "counter " << name;
    EXPECT_GT(now->second,
              was == before.counters.end() ? 0u : was->second)
        << "counter " << name;
  }
  for (const char* name : {"serve.batch.size", "serve.latency.total_seconds",
                           "serve.latency.queue_wait_seconds"}) {
    const auto was = before.histograms.find(name);
    const auto now = after.histograms.find(name);
    ASSERT_NE(now, after.histograms.end()) << "histogram " << name;
    EXPECT_GT(now->second.count,
              was == before.histograms.end() ? 0u : was->second.count)
        << "histogram " << name;
  }
}

/// Shared fitted pipeline: training is the expensive part, so it runs
/// once for the whole suite; every test builds its own service/registry
/// around the shared model.
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pipeline_ = std::make_shared<diffusion::TraceDiffusion>(
        tiny_config(), std::vector<std::string>{"netflix", "teams"});
    pipeline_->fit(tiny_dataset(6));
    // Fit few-step stages (4- and 2-step students here) so the suite can
    // exercise the kDistilled serving path and its admission check.
    diffusion::DistillConfig dcfg;
    dcfg.teacher_steps = 8;
    dcfg.rounds = 2;
    dcfg.calibration_count = 2;
    pipeline_->distill(dcfg);
  }
  static void TearDownTestSuite() { pipeline_.reset(); }

  void SetUp() override {
    registry_.install("default", pipeline_, "v1");
    now_ = std::make_shared<double>(0.0);
  }

  ServiceConfig fast_config() {
    ServiceConfig cfg;
    cfg.batch.max_wait = 0.0;  // dispatch on first pump
    cfg.base_options.ddim_steps = 4;
    cfg.clock = [now = now_] { return *now; };
    return cfg;
  }

  static GenerateRequest request(int class_id, std::uint64_t seed,
                                 std::size_t count = 1) {
    GenerateRequest r;
    r.class_id = class_id;
    r.seed = seed;
    r.count = count;
    r.ddim_steps = 4;
    return r;
  }

  static std::shared_ptr<diffusion::TraceDiffusion> pipeline_;
  ModelRegistry registry_;
  std::shared_ptr<double> now_;
};

std::shared_ptr<diffusion::TraceDiffusion> ServeTest::pipeline_;

TEST_F(ServeTest, ServedResponseMatchesLibraryBitExact) {
  // The acceptance contract: queue -> batcher -> cache-miss path yields
  // bits identical to TraceDiffusion::generate_seeded, at 1 and 4
  // parallel lanes, and regardless of what else shared the batch.
  diffusion::GenerateOptions lib_opts;
  lib_opts.count = 2;
  lib_opts.ddim_steps = 4;

  const std::size_t original_lanes = parallel::thread_count();
  std::uint64_t reference = 0;
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
    parallel::set_thread_count(lanes);
    const std::uint64_t lib_hash =
        hash_flows(pipeline_->generate_seeded(0, lib_opts, 42));

    ServiceConfig cfg = fast_config();
    cfg.cache_capacity = 0;  // force the full generation path
    TraceService service(registry_, cfg);
    auto target = service.submit(request(0, 42, 2));
    // Batch-mates with different seeds and a different class must not
    // perturb the target request's bits.
    auto mate = service.submit(request(0, 7, 1));
    auto other = service.submit(request(1, 9, 1));
    ASSERT_TRUE(target.accepted && mate.accepted && other.accepted);
    service.drain();

    const Response response = target.response.get();
    ASSERT_EQ(response.status, ResponseStatus::kOk);
    EXPECT_FALSE(response.cache_hit);
    EXPECT_EQ(response.model_version, "v1");
    EXPECT_GE(response.batch_flows, 3u);  // target coalesced with mate
    EXPECT_EQ(hash_flows(response.flows), lib_hash)
        << "served flows diverged from library at " << lanes << " lanes";
    if (lanes == 1) {
      reference = lib_hash;
    } else {
      EXPECT_EQ(lib_hash, reference) << "lane count changed the bits";
    }
  }
  parallel::set_thread_count(original_lanes);
}

TEST_F(ServeTest, RepeatedRequestIsCacheHitWithIdenticalPayload) {
  TraceService service(registry_, fast_config());
  auto first = service.submit(request(0, 123, 2));
  ASSERT_TRUE(first.accepted);
  service.drain();
  const Response miss = first.response.get();
  ASSERT_EQ(miss.status, ResponseStatus::kOk);
  EXPECT_FALSE(miss.cache_hit);

  const std::uint64_t hits_before = service.stats().cache_hits.value();
  auto second = service.submit(request(0, 123, 2));
  ASSERT_TRUE(second.accepted);
  // A hit is ready immediately — no pump needed.
  const Response hit = second.response.get();
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hash_flows(hit.flows), hash_flows(miss.flows));
  EXPECT_EQ(service.stats().cache_hits.value(), hits_before + 1);
  EXPECT_EQ(service.pending(), 0u);

  // Different seed (or count) is a distinct key — not a hit.
  auto third = service.submit(request(0, 124, 2));
  ASSERT_TRUE(third.accepted);
  EXPECT_EQ(service.stats().cache_hits.value(), hits_before + 1);
  service.drain();
  EXPECT_FALSE(third.response.get().cache_hit);
}

TEST_F(ServeTest, CacheKeyNamesTheModel) {
  // Two registry entries may share a version string. A request to "b"
  // that matches an earlier request to "a" in everything but the model
  // must run b's pipeline, not be answered from a's cached flows.
  diffusion::PipelineConfig other_cfg = tiny_config();
  other_cfg.seed = 6;
  const auto other = std::make_shared<diffusion::TraceDiffusion>(
      other_cfg, std::vector<std::string>{"netflix", "teams"});
  other->fit(tiny_dataset(4));
  registry_.install("a", pipeline_, "v1");
  registry_.install("b", other, "v1");
  diffusion::GenerateOptions lib_opts;
  lib_opts.ddim_steps = 4;
  const std::uint64_t a_hash =
      hash_flows(pipeline_->generate_seeded(0, lib_opts, 321));
  const std::uint64_t b_hash =
      hash_flows(other->generate_seeded(0, lib_opts, 321));
  ASSERT_NE(a_hash, b_hash);

  TraceService service(registry_, fast_config());
  GenerateRequest to_a = request(0, 321);
  to_a.model = "a";
  GenerateRequest to_b = to_a;
  to_b.model = "b";
  auto first = service.submit(to_a);
  ASSERT_TRUE(first.accepted);
  service.drain();
  EXPECT_EQ(hash_flows(first.response.get().flows), a_hash);

  auto second = service.submit(to_b);
  ASSERT_TRUE(second.accepted);
  service.drain();
  const Response resp = second.response.get();
  EXPECT_FALSE(resp.cache_hit);
  EXPECT_EQ(hash_flows(resp.flows), b_hash);
}

TEST_F(ServeTest, FullQueueRejectsTypedWithoutDroppingAcceptedWork) {
  ServiceConfig cfg = fast_config();
  cfg.queue_capacity = 3;
  cfg.cache_capacity = 0;
  TraceService service(registry_, cfg);

  std::vector<SubmitResult> accepted;
  for (std::uint64_t s = 0; s < 3; ++s) {
    auto r = service.submit(request(0, 1000 + s));
    ASSERT_TRUE(r.accepted);
    accepted.push_back(std::move(r));
  }
  const std::uint64_t rejects_before =
      service.stats().rejected_full.value();
  auto overflow = service.submit(request(0, 2000));
  EXPECT_FALSE(overflow.accepted);
  EXPECT_EQ(overflow.reject, RejectReason::kQueueFull);
  EXPECT_STREQ(to_string(overflow.reject), "queue_full");
  EXPECT_EQ(service.stats().rejected_full.value(), rejects_before + 1);

  // Every accepted request completes; nothing was dropped.
  service.drain();
  for (auto& r : accepted) {
    EXPECT_EQ(r.response.get().status, ResponseStatus::kOk);
  }
  EXPECT_EQ(service.pending(), 0u);

  // Capacity freed: admission works again.
  EXPECT_TRUE(service.submit(request(0, 3000)).accepted);
}

TEST_F(ServeTest, QueueHeadroomTracksDepthAndRecoversAfterDrain) {
  // The headroom probe lets cooperative producers (the replay
  // prefetcher) stop submitting before burning a typed reject; it must
  // mirror queue depth exactly in single-threaded use.
  ServiceConfig cfg = fast_config();
  cfg.queue_capacity = 3;
  cfg.cache_capacity = 0;
  TraceService service(registry_, cfg);
  EXPECT_EQ(service.queue_headroom(), 3u);

  std::vector<SubmitResult> accepted;
  for (std::uint64_t s = 0; s < 3; ++s) {
    EXPECT_EQ(service.queue_headroom(), 3u - s);
    auto r = service.submit(request(0, 4000 + s));
    ASSERT_TRUE(r.accepted);
    accepted.push_back(std::move(r));
  }
  // Zero headroom is exactly the point where submit would reject.
  EXPECT_EQ(service.queue_headroom(), 0u);
  auto overflow = service.submit(request(0, 4100));
  EXPECT_FALSE(overflow.accepted);
  EXPECT_EQ(overflow.reject, RejectReason::kQueueFull);

  service.drain();
  EXPECT_EQ(service.queue_headroom(), 3u);
  for (auto& r : accepted) {
    EXPECT_EQ(r.response.get().status, ResponseStatus::kOk);
  }
}

TEST_F(ServeTest, ExpiredDeadlineCancelsBeforeModelWork) {
  ServiceConfig cfg = fast_config();
  cfg.cache_capacity = 0;
  TraceService service(registry_, cfg);

  GenerateRequest doomed = request(0, 55);
  doomed.deadline = 1.0;
  auto d = service.submit(doomed);
  auto alive = service.submit(request(0, 56));
  ASSERT_TRUE(d.accepted && alive.accepted);

  const std::uint64_t batches_before = service.stats().batches.value();
  const std::uint64_t cancelled_before =
      service.stats().cancelled_deadline.value();
  *now_ = 2.0;  // deadline passes while queued
  service.drain();

  const Response cancelled = d.response.get();
  EXPECT_EQ(cancelled.status, ResponseStatus::kCancelled);
  EXPECT_EQ(cancelled.cancel_reason, RejectReason::kDeadlineExpired);
  EXPECT_TRUE(cancelled.flows.empty());
  EXPECT_EQ(service.stats().cancelled_deadline.value(),
            cancelled_before + 1);
  // The surviving request got its own batch; the cancelled one consumed
  // no model work (exactly one dispatch happened).
  EXPECT_EQ(alive.response.get().status, ResponseStatus::kOk);
  EXPECT_EQ(service.stats().batches.value(), batches_before + 1);
}

TEST_F(ServeTest, MaxWaitDefersThenDispatches) {
  ServiceConfig cfg = fast_config();
  cfg.batch.max_wait = 0.5;
  cfg.batch.max_batch_flows = 8;
  cfg.cache_capacity = 0;
  TraceService service(registry_, cfg);

  auto r = service.submit(request(0, 1));
  ASSERT_TRUE(r.accepted);
  EXPECT_EQ(service.pump(), 0u);  // young head, shallow queue: wait
  EXPECT_EQ(service.pending(), 1u);
  *now_ = 0.6;  // head has now waited past max_wait
  EXPECT_EQ(service.pump(), 1u);
  EXPECT_EQ(r.response.get().status, ResponseStatus::kOk);

  // A backlog at/above the flow budget dispatches without waiting.
  std::vector<SubmitResult> burst;
  for (std::uint64_t s = 0; s < 8; ++s) {
    burst.push_back(service.submit(request(0, 100 + s)));
  }
  EXPECT_GT(service.pump(), 0u);
}

TEST_F(ServeTest, CompatibleRequestsCoalesceIntoOneBatch) {
  ServiceConfig cfg = fast_config();
  cfg.batch.max_batch_flows = 16;
  cfg.cache_capacity = 0;
  TraceService service(registry_, cfg);

  std::vector<SubmitResult> results;
  for (std::uint64_t s = 0; s < 4; ++s) {
    results.push_back(service.submit(request(1, 500 + s, 2)));
  }
  const std::uint64_t batches_before = service.stats().batches.value();
  EXPECT_EQ(service.pump(), 4u);  // one pump serves all four
  EXPECT_EQ(service.stats().batches.value(), batches_before + 1);
  for (auto& r : results) {
    const Response resp = r.response.get();
    EXPECT_EQ(resp.status, ResponseStatus::kOk);
    EXPECT_EQ(resp.batch_flows, 8u);  // 4 requests x 2 flows
    EXPECT_EQ(resp.flows.size(), 2u);
  }
}

TEST_F(ServeTest, IncompatibleRequestsAreNotCoalesced) {
  ServiceConfig cfg = fast_config();
  cfg.cache_capacity = 0;
  TraceService service(registry_, cfg);
  auto a = service.submit(request(0, 1));
  GenerateRequest b_req = request(0, 2);
  b_req.ddim_steps = 6;  // different steps => different batch key
  auto b = service.submit(b_req);
  ASSERT_TRUE(a.accepted && b.accepted);
  EXPECT_EQ(service.pump(), 1u);  // only the head's key dispatches
  EXPECT_EQ(service.pending(), 1u);
  EXPECT_EQ(service.pump(), 1u);
  EXPECT_EQ(a.response.get().batch_flows, 1u);
  EXPECT_EQ(b.response.get().batch_flows, 1u);
}

TEST_F(ServeTest, SamplerIsACoalescingBarrier) {
  // Requests on different samplers produce different bits by design, so
  // coalescing them into one model call would let batch-mates change a
  // request's payload. Each must get its own batch.
  ServiceConfig cfg = fast_config();
  cfg.cache_capacity = 0;
  TraceService service(registry_, cfg);
  auto ddim = service.submit(request(0, 1));
  GenerateRequest distilled_req = request(0, 3);
  distilled_req.sampler = diffusion::SamplerKind::kDistilled;
  auto distilled = service.submit(distilled_req);
  ASSERT_TRUE(ddim.accepted && distilled.accepted);
  // Two distinct batch keys: each pump dispatches exactly one batch.
  EXPECT_EQ(service.pump(), 1u);
  EXPECT_EQ(service.pending(), 1u);
  EXPECT_EQ(service.pump(), 1u);
  EXPECT_EQ(ddim.response.get().batch_flows, 1u);
  EXPECT_EQ(distilled.response.get().batch_flows, 1u);
}

TEST_F(ServeTest, ServedDistilledMatchesLibraryBitExact) {
  diffusion::GenerateOptions lib_opts;
  lib_opts.count = 2;
  lib_opts.ddim_steps = 4;
  lib_opts.sampler = diffusion::SamplerKind::kDistilled;
  const std::uint64_t lib_hash =
      hash_flows(pipeline_->generate_seeded(0, lib_opts, 777));

  ServiceConfig cfg = fast_config();
  cfg.cache_capacity = 0;
  TraceService service(registry_, cfg);
  GenerateRequest req = request(0, 777, 2);
  req.sampler = diffusion::SamplerKind::kDistilled;
  auto target = service.submit(req);
  GenerateRequest mate_req = request(0, 778, 1);
  mate_req.sampler = diffusion::SamplerKind::kDistilled;
  auto mate = service.submit(mate_req);
  ASSERT_TRUE(target.accepted && mate.accepted);
  service.drain();
  const Response resp = target.response.get();
  ASSERT_EQ(resp.status, ResponseStatus::kOk);
  EXPECT_GE(resp.batch_flows, 3u);  // coalesced with the mate
  EXPECT_EQ(hash_flows(resp.flows), lib_hash);
}

TEST_F(ServeTest, DistilledAdmissionRejectsUnfittedStepCount) {
  // Admission validates the step count against the snapshot's fitted
  // stages: failing fast beats throwing mid-batch, where the error would
  // take every coalesced batch-mate down too.
  TraceService service(registry_, fast_config());
  GenerateRequest bad = request(0, 5);
  bad.sampler = diffusion::SamplerKind::kDistilled;
  bad.ddim_steps = 3;  // fitted stages are 4 and 2
  EXPECT_EQ(service.submit(bad).reject, RejectReason::kBadRequest);

  GenerateRequest good = request(0, 5);
  good.sampler = diffusion::SamplerKind::kDistilled;
  good.ddim_steps = 4;
  auto r = service.submit(good);
  ASSERT_TRUE(r.accepted);
  service.drain();
  EXPECT_EQ(r.response.get().status, ResponseStatus::kOk);
}

TEST_F(ServeTest, PriorityLanesDrainHighFirst) {
  ServiceConfig cfg = fast_config();
  cfg.cache_capacity = 0;
  TraceService service(registry_, cfg);

  GenerateRequest low = request(0, 1);
  low.priority = Priority::kLow;
  low.ddim_steps = 3;  // distinct keys keep the batches separate
  GenerateRequest high = request(0, 2);
  high.priority = Priority::kHigh;
  high.ddim_steps = 5;
  auto l = service.submit(low);
  auto h = service.submit(high);
  ASSERT_TRUE(l.accepted && h.accepted);

  EXPECT_EQ(service.pump(), 1u);
  // The high lane dispatched first even though low was submitted first.
  EXPECT_EQ(h.response.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_NE(l.response.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  service.drain();
  EXPECT_EQ(l.response.get().status, ResponseStatus::kOk);
}

TEST_F(ServeTest, AdmissionValidatesModelClassAndCount) {
  TraceService service(registry_, fast_config());
  GenerateRequest bad_model = request(0, 1);
  bad_model.model = "nope";
  EXPECT_EQ(service.submit(bad_model).reject, RejectReason::kUnknownModel);
  GenerateRequest bad_class = request(7, 1);
  EXPECT_EQ(service.submit(bad_class).reject, RejectReason::kUnknownClass);
  GenerateRequest empty = request(0, 1);
  empty.count = 0;
  EXPECT_EQ(service.submit(empty).reject, RejectReason::kBadRequest);
  service.close();
  EXPECT_EQ(service.submit(request(0, 1)).reject,
            RejectReason::kShuttingDown);
}

TEST_F(ServeTest, HotSwapUsesNewVersionAndKeepsOldSnapshotAlive) {
  ServiceConfig cfg = fast_config();
  TraceService service(registry_, cfg);
  auto v1 = service.submit(request(0, 77));
  ASSERT_TRUE(v1.accepted);
  service.drain();
  EXPECT_EQ(v1.response.get().model_version, "v1");

  // An in-flight holder of the old snapshot survives the swap.
  const auto old_snap = registry_.snapshot("default");
  registry_.install("default", pipeline_, "v2");
  ASSERT_NE(old_snap, nullptr);
  EXPECT_EQ(old_snap->version, "v1");
  EXPECT_NE(registry_.snapshot("default"), old_snap);

  // The v1 cache entry must not satisfy a v2 request (version is part
  // of the key), but the flows themselves are identical here because
  // both versions share the same weights.
  auto v2 = service.submit(request(0, 77));
  ASSERT_TRUE(v2.accepted);
  const Response hit_check = [&] {
    if (v2.response.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      return v2.response.get();  // would be a (wrong) cache hit
    }
    service.drain();
    return v2.response.get();
  }();
  EXPECT_FALSE(hit_check.cache_hit);
  EXPECT_EQ(hit_check.model_version, "v2");
}

TEST_F(ServeTest, RemovedModelCancelsQueuedWorkTyped) {
  ServiceConfig cfg = fast_config();
  cfg.cache_capacity = 0;
  TraceService service(registry_, cfg);
  auto r = service.submit(request(0, 5));
  ASSERT_TRUE(r.accepted);
  registry_.remove("default");
  service.drain();
  const Response resp = r.response.get();
  EXPECT_EQ(resp.status, ResponseStatus::kCancelled);
  EXPECT_EQ(resp.cancel_reason, RejectReason::kUnknownModel);
}

TEST_F(ServeTest, BackgroundWorkerServesSubmissions) {
  ServiceConfig cfg = fast_config();
  cfg.clock = ClockFn{};  // real clock in background mode
  cfg.worker_idle_wait = 0.001;
  TraceService service(registry_, cfg);
  service.start();
  auto r = service.submit(request(0, 31337));
  ASSERT_TRUE(r.accepted);
  const Response resp = r.response.get();  // blocks on the worker
  EXPECT_EQ(resp.status, ResponseStatus::kOk);
  EXPECT_EQ(resp.flows.size(), 1u);
  service.stop();
  // Bit-identical to the library even through the background thread.
  diffusion::GenerateOptions lib_opts;
  lib_opts.count = 1;
  lib_opts.ddim_steps = 4;
  EXPECT_EQ(hash_flows(resp.flows),
            hash_flows(pipeline_->generate_seeded(0, lib_opts, 31337)));
}

TEST_F(ServeTest, TracingOnOrOffNeverChangesServedBits) {
  // The observability contract: arming the flight recorder and span
  // tracing must be bit-transparent — the generated flows are identical
  // whether telemetry is on or off, at 1 and 4 parallel lanes. The traced
  // leg also records every name the e2ebench ledger reads.
  const bool telemetry_was_on = telemetry::enabled();
  const std::size_t original_lanes = parallel::thread_count();
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
    parallel::set_thread_count(lanes);
    std::uint64_t hashes[2] = {0, 0};
    for (const bool traced : {false, true}) {
      telemetry::set_enabled(traced);
      telemetry::MetricsSnapshot before;
      if (traced) {
        telemetry::reset_profile();
        // An empty free list makes the traced requests lease fresh
        // scratch buffers, so nn.arena.alloc counts.
        nn::TensorArena::scratch().trim();
        before = telemetry::Registry::instance().snapshot();
      }
      // The cache stays on (a fresh service's cache misses, so the bits
      // still come from the model) because its lookup is a ledger span.
      ServiceConfig cfg = fast_config();
      cfg.flightrec_force = traced;
      TraceService service(registry_, cfg);
      auto a = service.submit(request(0, 42, 2));
      auto b = service.submit(request(1, 9, 1));
      ASSERT_TRUE(a.accepted && b.accepted);
      service.drain();
      const Response ra = a.response.get();
      const Response rb = b.response.get();
      ASSERT_EQ(ra.status, ResponseStatus::kOk);
      ASSERT_EQ(rb.status, ResponseStatus::kOk);
      std::uint64_t h = hash_flows(ra.flows);
      h ^= hash_flows(rb.flows) * kFnvPrime;
      hashes[traced ? 1 : 0] = h;
      // Traced run actually recorded a timeline; untraced recorded none.
      EXPECT_EQ(service.flight_recorder().recorded() > 0, traced);
      EXPECT_FALSE(ra.cache_hit || rb.cache_hit);
      if (traced) expect_ledger_names_recorded(before, lanes > 1);
    }
    EXPECT_EQ(hashes[0], hashes[1])
        << "tracing changed the served bits at " << lanes << " lanes";
  }
  parallel::set_thread_count(original_lanes);
  telemetry::set_enabled(telemetry_was_on);
}

TEST_F(ServeTest, PerLaneStatsAndTypedRejectCountersTrack) {
  ServiceConfig cfg = fast_config();
  cfg.cache_capacity = 0;
  cfg.queue_capacity = 2;
  TraceService service(registry_, cfg);

  // Registry counters are process-global; assert on deltas.
  ServiceStats& stats = service.stats();
  LaneStats& high = stats.lane_of(Priority::kHigh);
  LaneStats& low = stats.lane_of(Priority::kLow);
  const std::uint64_t high_admitted = high.admitted.value();
  const std::uint64_t high_completed = high.completed.value();
  const std::uint64_t low_admitted = low.admitted.value();
  const std::uint64_t full_rejects =
      stats.reject_reason(RejectReason::kQueueFull).value();
  const std::uint64_t class_rejects =
      stats.reject_reason(RejectReason::kUnknownClass).value();

  GenerateRequest urgent = request(0, 1);
  urgent.priority = Priority::kHigh;
  GenerateRequest lazy = request(0, 2);
  lazy.priority = Priority::kLow;
  lazy.ddim_steps = 3;  // separate batch key from the high request
  ASSERT_TRUE(service.submit(urgent).accepted);
  ASSERT_TRUE(service.submit(lazy).accepted);
  EXPECT_EQ(high.admitted.value(), high_admitted + 1);
  EXPECT_EQ(low.admitted.value(), low_admitted + 1);
  EXPECT_EQ(high.queue_depth.value(), 1.0);
  EXPECT_EQ(low.queue_depth.value(), 1.0);

  // Queue is full now: the typed overload counter ticks...
  EXPECT_FALSE(service.submit(request(0, 3)).accepted);
  EXPECT_EQ(stats.reject_reason(RejectReason::kQueueFull).value(),
            full_rejects + 1);
  // ...and invalid input ticks its own reason, not the overload one.
  EXPECT_EQ(service.submit(request(9, 4)).reject,
            RejectReason::kUnknownClass);
  EXPECT_EQ(stats.reject_reason(RejectReason::kUnknownClass).value(),
            class_rejects + 1);
  EXPECT_EQ(stats.reject_reason(RejectReason::kQueueFull).value(),
            full_rejects + 1);

  service.drain();
  EXPECT_EQ(high.completed.value(), high_completed + 1);
  EXPECT_EQ(high.queue_depth.value(), 0.0);
  EXPECT_EQ(low.queue_depth.value(), 0.0);
}

TEST_F(ServeTest, FlightRecorderCoversDrainedWorkload) {
  ServiceConfig cfg = fast_config();
  cfg.cache_capacity = 0;
  cfg.flightrec_force = true;  // record even with REPRO_TELEMETRY off
  TraceService service(registry_, cfg);
  *now_ = 1.0;  // nonzero timestamps distinguish "recorded" from default

  constexpr std::uint64_t kRequests = 6;
  std::vector<SubmitResult> results;
  for (std::uint64_t s = 0; s < kRequests; ++s) {
    results.push_back(service.submit(request(s % 2 ? 1 : 0, 700 + s)));
    ASSERT_TRUE(results.back().accepted);
  }
  service.drain();

  const auto dump =
      observe::parse_flight_dump(service.flight_recorder().dump_json());
  ASSERT_TRUE(dump.has_value());
  EXPECT_EQ(dump->overwritten, 0u);
  const observe::InspectReport report = observe::reconstruct(dump->events);
  ASSERT_EQ(report.requests.size(), kRequests);
  EXPECT_EQ(report.complete, kRequests);
  for (const observe::RequestTimeline& timeline : report.requests) {
    EXPECT_TRUE(timeline.complete);
    EXPECT_EQ(timeline.terminal, observe::EventKind::kCompleted);
    EXPECT_NE(timeline.batch_id, 0u);
  }
  // Every response joins its flight-recorder batch via Response.batch_id.
  for (auto& r : results) {
    const Response resp = r.response.get();
    ASSERT_EQ(resp.status, ResponseStatus::kOk);
    bool found = false;
    for (const observe::BatchComposition& batch : report.batches) {
      if (batch.batch_id != resp.batch_id) continue;
      found = true;
      EXPECT_GT(batch.model_end, 0.0);
    }
    EXPECT_TRUE(found) << "response batch " << resp.batch_id
                       << " missing from the flight dump";
  }
}

TEST_F(ServeTest, HealthJsonReportsLanesBudgetsAndRecorderState) {
  ServiceConfig cfg = fast_config();
  cfg.cache_capacity = 0;
  cfg.flightrec_force = true;
  TraceService service(registry_, cfg);
  auto r = service.submit(request(0, 4242));
  ASSERT_TRUE(r.accepted);
  service.drain();
  ASSERT_EQ(r.response.get().status, ResponseStatus::kOk);

  const auto doc = parse_json(service.health_json());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  // Instant completions on the fake clock cannot violate any objective.
  EXPECT_EQ(doc->find("status")->str_or(""), "ok");
  const JsonValue* requests = doc->find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_GE(requests->find("completed")->num_or(0), 1.0);
  const JsonValue* lanes = doc->find("lanes");
  ASSERT_NE(lanes, nullptr);
  ASSERT_EQ(lanes->array.size(), static_cast<std::size_t>(kPriorityLanes));
  const JsonValue& normal = lanes->array[1];  // Priority::kNormal
  EXPECT_GE(normal.find("admitted")->num_or(0), 1.0);
  EXPECT_DOUBLE_EQ(normal.find("budget_remaining")->num_or(-1), 1.0);
  EXPECT_EQ(normal.find("budget_status")->str_or(""), "ok");
  ASSERT_NE(normal.find("latency_p95"), nullptr);
  const JsonValue* recorder = doc->find("flight_recorder");
  ASSERT_NE(recorder, nullptr);
  EXPECT_TRUE(recorder->find("armed")->boolean);
  EXPECT_GE(recorder->find("recorded")->num_or(0), 1.0);
}

TEST_F(ServeTest, DeadlineSweepSeesOneClockReadPerPump) {
  // Regression: pump() samples the clock exactly ONCE per iteration and
  // injects that `now` into the deadline sweep. Under a clock that
  // advances on every read (each tick = 1s here), a sweep that re-read
  // time per queued request would compare later queue positions against
  // fresher timestamps and cancel work that was inside its deadline
  // when the iteration began.
  ServiceConfig cfg = fast_config();
  cfg.cache_capacity = 0;
  cfg.batch.max_wait = 10.0;  // hold dispatch: pump takes the sweep path
  cfg.clock = [t = now_] { *t += 1.0; return *t; };
  TraceService service(registry_, cfg);  // ctor read: t = 1

  // Each submit reads the clock once (enqueue times 2, 3, 4). The next
  // read — the one pump() performs — sees t = 5; a deadline of 5.5
  // outlives that single read but not a second (6) or third (7).
  std::vector<SubmitResult> results;
  for (std::uint64_t s = 0; s < 3; ++s) {
    GenerateRequest r = request(0, 9100 + s);
    r.deadline = 5.5;
    results.push_back(service.submit(r));
    ASSERT_TRUE(results.back().accepted);
  }
  ASSERT_DOUBLE_EQ(*now_, 4.0);
  EXPECT_EQ(service.pump(), 0u);  // t = 5: nothing expired, none swept
  EXPECT_DOUBLE_EQ(*now_, 5.0);
  EXPECT_EQ(service.pending(), 3u);

  // Once the single per-pump read does pass the deadline, one iteration
  // sweeps all three against that same timestamp.
  EXPECT_EQ(service.pump(), 3u);  // t = 6 > 5.5
  for (auto& r : results) {
    const Response resp = r.response.get();
    EXPECT_EQ(resp.status, ResponseStatus::kCancelled);
    EXPECT_EQ(resp.cancel_reason, RejectReason::kDeadlineExpired);
  }
}

TEST(RequestQueueTest, SweepExpiredUsesOneInjectedTimestamp) {
  RequestQueue queue(8);
  for (std::uint64_t id = 1; id <= 4; ++id) {
    Pending p;
    p.id = id;
    p.request.deadline = static_cast<double>(id);  // deadlines 1..4
    ASSERT_FALSE(queue.try_push(std::move(p)).has_value());
  }
  // One injected `now` governs the whole sweep: deadlines 1 and 2
  // precede 2.5, deadlines 3 and 4 do not.
  auto expired = queue.sweep_expired(2.5, 16);
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(expired[0].id, 1u);
  EXPECT_EQ(expired[1].id, 2u);
  EXPECT_EQ(queue.size(), 2u);
  // `max` caps the sweep; survivors stay queued in FIFO order.
  expired = queue.sweep_expired(10.0, 1);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, 3u);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(ResultCacheTest, LruEvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  net::Flow f;
  f.label = 7;
  CacheKey a{"default", "v1", 0, 1, diffusion::SamplerKind::kDdim, 4, 1};
  CacheKey b = a;
  b.seed = 2;
  CacheKey c = a;
  c.seed = 3;
  cache.put(a, {f});
  cache.put(b, {f});
  EXPECT_TRUE(cache.get(a).has_value());  // touch a => b is now LRU
  cache.put(c, {f});                      // evicts b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.get(a).has_value());
  EXPECT_FALSE(cache.get(b).has_value());
  EXPECT_TRUE(cache.get(c).has_value());
  // Capacity 0 disables caching entirely.
  ResultCache off(0);
  off.put(a, {f});
  EXPECT_FALSE(off.get(a).has_value());
  EXPECT_EQ(off.size(), 0u);
}

TEST(RequestQueueTest, BoundedAdmissionAndPriorityOrder) {
  RequestQueue queue(2);
  Pending a;
  a.request.priority = Priority::kLow;
  a.id = 1;
  Pending b;
  b.request.priority = Priority::kHigh;
  b.id = 2;
  EXPECT_FALSE(queue.try_push(std::move(a)).has_value());
  EXPECT_FALSE(queue.try_push(std::move(b)).has_value());
  Pending c;
  const auto reject = queue.try_push(std::move(c));
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(*reject, RejectReason::kQueueFull);

  auto head = queue.pop_head();
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->id, 2u);  // high priority first
  EXPECT_EQ(queue.pop_head()->id, 1u);
  EXPECT_FALSE(queue.pop_head().has_value());
}

}  // namespace
}  // namespace repro::serve
