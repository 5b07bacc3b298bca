// Open-loop emitter tests: event-queue tie-breaks, arrival-process
// determinism, virtual pacing and sustained rate, the real-clock pacer,
// source behavior (including the backpressure -> underrun conversion of
// the served source), sinks, and the served-vs-library bit-identity
// contract for paced emission.
#include "replay/emit/emitter.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "flowgen/generator.hpp"
#include "flowgen/tcp_session.hpp"
#include "net/pcap.hpp"
#include "replay/conntrack.hpp"
#include "replay/functions.hpp"
#include "serve/registry.hpp"
#include "serve/service.hpp"

namespace repro::replay::emit {
namespace {

Event make_event(double time, EventKind kind, std::uint64_t flow,
                 std::uint32_t packet) {
  Event e;
  e.time = time;
  e.kind = kind;
  e.flow_id = flow;
  e.packet_index = packet;
  return e;
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  queue.push(make_event(3.0, EventKind::kPacket, 0, 0));
  queue.push(make_event(1.0, EventKind::kPacket, 0, 1));
  queue.push(make_event(2.0, EventKind::kFlowArrival, 1, 0));
  EXPECT_EQ(queue.pop().time, 1.0);
  EXPECT_EQ(queue.pop().time, 2.0);
  EXPECT_EQ(queue.pop().time, 3.0);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, EqualTimestampsBreakByFlowThenPacketIndex) {
  // The satellite contract: simultaneous events have one canonical
  // order — (flow id, kind, packet index) — regardless of insertion
  // order.
  EventQueue queue;
  queue.push(make_event(1.0, EventKind::kPacket, 2, 0));
  queue.push(make_event(1.0, EventKind::kPacket, 1, 1));
  queue.push(make_event(1.0, EventKind::kPacket, 1, 0));
  queue.push(make_event(1.0, EventKind::kFlowArrival, 2, 0));
  queue.push(make_event(1.0, EventKind::kPacket, 0, 3));

  const Event a = queue.pop();
  EXPECT_EQ(a.flow_id, 0u);
  EXPECT_EQ(a.packet_index, 3u);
  const Event b = queue.pop();
  EXPECT_EQ(b.flow_id, 1u);
  EXPECT_EQ(b.packet_index, 0u);
  const Event c = queue.pop();
  EXPECT_EQ(c.flow_id, 1u);
  EXPECT_EQ(c.packet_index, 1u);
  // Same instant, same flow id: the arrival sorts before the packet.
  const Event d = queue.pop();
  EXPECT_EQ(d.flow_id, 2u);
  EXPECT_EQ(d.kind, EventKind::kFlowArrival);
  const Event e = queue.pop();
  EXPECT_EQ(e.flow_id, 2u);
  EXPECT_EQ(e.kind, EventKind::kPacket);
}

TEST(ArrivalModel, FixedRateIsConstant) {
  ArrivalModel model(Arrival::kFixedRate, 100.0, 1.5, 7);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(model.next_gap(), 0.01);
}

TEST(ArrivalModel, ExponentialIsSeedDeterministic) {
  ArrivalModel a(Arrival::kExponential, 50.0, 1.5, 7);
  ArrivalModel b(Arrival::kExponential, 50.0, 1.5, 7);
  ArrivalModel c(Arrival::kExponential, 50.0, 1.5, 8);
  bool any_differs = false;
  for (int i = 0; i < 32; ++i) {
    const double gap_a = a.next_gap();
    EXPECT_GT(gap_a, 0.0);
    EXPECT_DOUBLE_EQ(gap_a, b.next_gap());
    if (gap_a != c.next_gap()) any_differs = true;
  }
  EXPECT_TRUE(any_differs) << "different seeds produced the same stream";
}

TEST(ArrivalModel, ParetoBurstKeepsTheTargetMeanRate) {
  // xm is chosen so E[gap] = 1/rate; the empirical mean over many draws
  // must land near it (heavy tail => loose tolerance).
  ArrivalModel model(Arrival::kParetoBurst, 200.0, 2.5, 11);
  double total = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const double gap = model.next_gap();
    ASSERT_GT(gap, 0.0);
    total += gap;
  }
  const double mean = total / kDraws;
  EXPECT_NEAR(mean, 1.0 / 200.0, 0.2 / 200.0);
}

TEST(VirtualPacer, JumpsForwardNeverBack) {
  VirtualPacer pacer;
  EXPECT_DOUBLE_EQ(pacer.now(), 0.0);
  EXPECT_DOUBLE_EQ(pacer.wait_until(1.5), 1.5);
  // A deadline in the past does not rewind time: the caller observes
  // its lateness exactly as under a real clock.
  EXPECT_DOUBLE_EQ(pacer.wait_until(1.0), 1.5);
  EXPECT_DOUBLE_EQ(pacer.now(), 1.5);
}

std::vector<net::Flow> session_flows(std::size_t flows, std::size_t packets,
                                     std::uint64_t seed) {
  std::vector<net::Flow> out;
  out.reserve(flows);
  Rng rng(seed);
  const auto& profile = flowgen::app_profile(flowgen::App::kNetflix);
  for (std::size_t i = 0; i < flows; ++i) {
    flowgen::Endpoints ep;
    ep.client_addr = 0x0A000001u + static_cast<std::uint32_t>(i);
    ep.server_addr = 0x0D000001u;
    ep.client_port = static_cast<std::uint16_t>(40000 + i);
    ep.server_port = 443;
    out.push_back(flowgen::generate_tcp_flow(profile, ep, packets, rng));
  }
  return out;
}

EmitConfig fast_emit_config(std::uint64_t total_flows) {
  EmitConfig config;
  config.target_pps = 10000.0;
  config.total_flows = total_flows;
  config.arrival = Arrival::kExponential;
  config.seed = 21;
  return config;
}

/// Rate-test schedule: 20 kpps of exponential arrivals. Recorded
/// intra-flow gaps dominate a session's span (a 10-packet streaming flow
/// covers ~12 s), so sustained pps is edge-limited unless flow timelines
/// are compressed below the arrival spacing; time_scale 1e-4 puts a
/// flow's whole lifetime well under one inter-arrival gap.
EmitConfig rate_emit_config(std::uint64_t total_flows, double target_pps) {
  EmitConfig config;
  config.target_pps = target_pps;
  config.total_flows = total_flows;
  config.arrival = Arrival::kExponential;
  config.time_scale = 1e-4;
  config.seed = 17;
  return config;
}

TEST(VectorFlowSource, ExhaustsUnlessLooping) {
  std::vector<net::Flow> flows = session_flows(2, 6, 3);
  VectorFlowSource once(flows);
  EXPECT_TRUE(once.next_flow().has_value());
  EXPECT_TRUE(once.next_flow().has_value());
  EXPECT_FALSE(once.next_flow().has_value());
  EXPECT_TRUE(once.exhausted());

  VectorFlowSource looped(flows, /*loop=*/true);
  for (int i = 0; i < 7; ++i) EXPECT_TRUE(looped.next_flow().has_value());
  EXPECT_FALSE(looped.exhausted());
}

TEST(OpenLoopEmitter, ConservesEventsAndEmitsEveryPacket) {
  const std::vector<net::Flow> flows = session_flows(12, 8, 5);
  std::size_t expected_packets = 0;
  for (const auto& flow : flows) expected_packets += flow.packets.size();

  VectorFlowSource source(flows);
  VirtualPacer pacer;
  NullSink sink;
  OpenLoopEmitter emitter(fast_emit_config(12), source, pacer, sink);
  const EmitReport report = emitter.run();

  EXPECT_TRUE(report.conserved());
  EXPECT_EQ(report.flows_scheduled, 12u);
  EXPECT_EQ(report.flows_emitted, 12u);
  EXPECT_EQ(report.underruns, 0u);
  EXPECT_EQ(report.packets_emitted, expected_packets);
  EXPECT_EQ(sink.packets(), expected_packets);
}

TEST(OpenLoopEmitter, StarvedSourceBecomesUnderrunsNotStalls) {
  // Open-loop contract: 12 arrivals against an 8-flow source => 4
  // underruns, and the schedule still conserves every event.
  const std::vector<net::Flow> flows = session_flows(8, 6, 5);
  VectorFlowSource source(flows);
  VirtualPacer pacer;
  NullSink sink;
  OpenLoopEmitter emitter(fast_emit_config(12), source, pacer, sink);
  const EmitReport report = emitter.run();

  EXPECT_TRUE(report.conserved());
  EXPECT_EQ(report.flows_scheduled, 12u);
  EXPECT_EQ(report.flows_emitted, 8u);
  EXPECT_EQ(report.underruns, 4u);
}

TEST(OpenLoopEmitter, SustainsTargetRateOnTheVirtualClock) {
  const std::vector<net::Flow> flows = session_flows(256, 10, 17);
  VectorFlowSource source(flows);
  VirtualPacer pacer;
  NullSink sink;
  OpenLoopEmitter emitter(rate_emit_config(256, 20000.0), source, pacer,
                          sink);
  const EmitReport report = emitter.run();

  EXPECT_TRUE(report.conserved());
  EXPECT_EQ(report.flows_emitted, 256u);
  EXPECT_EQ(report.underruns, 0u);
  EXPECT_NEAR(report.achieved_pps, 20000.0, 0.3 * 20000.0);
}

TEST(OpenLoopEmitter, RealtimePacerConservesEvents) {
  // The real-clock pacer's sleep/spin path, kept small (about 200
  // packets at 2 kpps, ~100 ms of wall time). No timing assertion: a
  // loaded host may run late, but it may not lose an event.
  const std::vector<net::Flow> flows = session_flows(20, 10, 17);
  VectorFlowSource source(flows);
  const std::unique_ptr<Pacer> pacer = make_realtime_pacer();
  NullSink sink;
  OpenLoopEmitter emitter(rate_emit_config(20, 2000.0), source, *pacer,
                          sink);
  const EmitReport report = emitter.run();

  EXPECT_TRUE(report.conserved());
  EXPECT_EQ(report.flows_emitted, 20u);
  EXPECT_EQ(report.underruns, 0u);
  EXPECT_EQ(sink.packets(), report.packets_emitted);
}

TEST(OpenLoopEmitter, TimeScaleCompressesIntraFlowGaps) {
  const std::vector<net::Flow> flows = session_flows(4, 8, 9);
  EmitConfig slow = fast_emit_config(4);
  EmitConfig fast = fast_emit_config(4);
  fast.time_scale = 0.01;

  const auto span_of = [&flows](const EmitConfig& config) {
    VectorFlowSource source(flows);
    VirtualPacer pacer;
    NullSink sink;
    OpenLoopEmitter emitter(config, source, pacer, sink);
    const EmitReport report = emitter.run();
    EXPECT_TRUE(report.conserved());
    return report.last_emit - report.first_emit;
  };
  const double slow_span = span_of(slow);
  const double fast_span = span_of(fast);
  EXPECT_LT(fast_span, slow_span);
}

std::pair<std::string, EmitReport> pcap_emit(const std::vector<net::Flow>& f,
                                             const EmitConfig& config) {
  VectorFlowSource source(f);
  VirtualPacer pacer;
  std::ostringstream bytes;
  PcapSink sink(bytes);
  OpenLoopEmitter emitter(config, source, pacer, sink);
  EmitReport report = emitter.run();
  return {bytes.str(), report};
}

TEST(OpenLoopEmitter, SameSeedProducesByteIdenticalPcap) {
  const std::vector<net::Flow> flows = session_flows(10, 6, 13);
  const EmitConfig config = fast_emit_config(10);
  const auto [bytes_a, report_a] = pcap_emit(flows, config);
  const auto [bytes_b, report_b] = pcap_emit(flows, config);
  EXPECT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
  EXPECT_EQ(report_a.packets_emitted, report_b.packets_emitted);

  EmitConfig reseeded = config;
  reseeded.seed = 22;
  const auto [bytes_c, report_c] = pcap_emit(flows, reseeded);
  EXPECT_EQ(report_c.packets_emitted, report_a.packets_emitted);
  EXPECT_NE(bytes_c, bytes_a) << "seed does not reach the schedule";
}

TEST(PcapSink, EmittedPcapParsesBackInEmissionOrder) {
  const std::vector<net::Flow> flows = session_flows(6, 6, 17);
  const auto [bytes, report] = pcap_emit(flows, fast_emit_config(6));

  std::istringstream in(bytes);
  net::PcapReader reader(in);
  net::Packet packet;
  std::size_t count = 0;
  double last_time = -1.0;
  while (reader.next_packet(packet)) {
    EXPECT_GE(packet.timestamp, last_time) << "emission order violated";
    last_time = packet.timestamp;
    ++count;
  }
  EXPECT_EQ(count, report.packets_emitted);
}

TEST(ChainSink, StrictConntrackAcceptsEmittedSessionsAtRate) {
  const std::vector<net::Flow> flows = session_flows(256, 10, 19);
  VectorFlowSource source(flows);
  VirtualPacer pacer;
  ChainSink sink;
  // Firewall before NAT (LAN-side ordering): conntrack must see the
  // recorded consistent 5-tuples; the NAT masquerades on egress.
  auto conntrack = std::make_unique<ConntrackFunction>();
  const auto* tracker = conntrack.get();
  sink.engine().add_function(std::move(conntrack));
  sink.engine().add_function(std::make_unique<SourceNat>(0xC0A80001u));

  OpenLoopEmitter emitter(rate_emit_config(256, 20000.0), source, pacer,
                          sink);
  const EmitReport report = emitter.run();

  EXPECT_TRUE(report.conserved());
  const ReplayReport& chain = sink.report();
  EXPECT_EQ(chain.input_packets, report.packets_emitted);
  EXPECT_EQ(chain.delivered_packets, chain.input_packets);
  EXPECT_DOUBLE_EQ(tracker->stats().tcp_acceptance(), 1.0);
  EXPECT_EQ(tracker->stats().connections_tracked, 256u);
}

// ---------------------------------------------------------------------------
// Served source: one tiny trained pipeline shared across the fixture
// (training is the expensive part), cooperative pump on a fake clock.

diffusion::PipelineConfig tiny_config() {
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

class ServedEmitTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pipeline_ = std::make_shared<diffusion::TraceDiffusion>(
        tiny_config(), std::vector<std::string>{"netflix", "teams"});
    pipeline_->fit(tiny_dataset(5));
  }
  static void TearDownTestSuite() { pipeline_.reset(); }

  void SetUp() override {
    registry_.install("default", pipeline_, "v1");
    now_ = std::make_shared<double>(0.0);
  }

  serve::ServiceConfig fast_config() {
    serve::ServiceConfig cfg;
    cfg.batch.max_wait = 0.0;  // dispatch on first pump
    cfg.base_options.ddim_steps = 4;
    cfg.clock = [now = now_] { return *now; };
    return cfg;
  }

  static ServedSourceConfig served_config(std::uint64_t total_flows) {
    ServedSourceConfig src;
    src.class_id = 0;
    src.seed_base = 42;
    src.total_flows = total_flows;
    src.ring_capacity = 4;
    src.flows_per_request = 2;
    src.ddim_steps = 4;
    return src;
  }

  static std::shared_ptr<diffusion::TraceDiffusion> pipeline_;
  serve::ModelRegistry registry_;
  std::shared_ptr<double> now_;
};

std::shared_ptr<diffusion::TraceDiffusion> ServedEmitTest::pipeline_;

TEST_F(ServedEmitTest, ServedEmissionMatchesLibrarySourceBitExact) {
  // The loop-closing contract: pacing flows through the full service
  // (queue -> batcher -> model) emits the exact bytes of pacing flows
  // pulled straight from generate_seeded with the same seed ladder.
  EmitConfig config = fast_emit_config(6);

  serve::ServiceConfig cfg = fast_config();
  cfg.cache_capacity = 0;  // force the full generation path
  serve::TraceService service(registry_, cfg);
  ServedFlowSource served(service, served_config(6));
  VirtualPacer served_pacer;
  std::ostringstream served_bytes;
  PcapSink served_sink(served_bytes);
  OpenLoopEmitter served_emitter(config, served, served_pacer, served_sink);
  const EmitReport served_report = served_emitter.run();

  diffusion::GenerateOptions lib_opts;
  lib_opts.count = 2;  // == flows_per_request
  lib_opts.ddim_steps = 4;
  LibraryFlowSource library(*pipeline_, 0, lib_opts, 42, 6);
  VirtualPacer lib_pacer;
  std::ostringstream lib_bytes;
  PcapSink lib_sink(lib_bytes);
  OpenLoopEmitter lib_emitter(config, library, lib_pacer, lib_sink);
  const EmitReport lib_report = lib_emitter.run();

  EXPECT_TRUE(served_report.conserved());
  EXPECT_TRUE(lib_report.conserved());
  EXPECT_EQ(served_report.underruns, 0u);
  EXPECT_EQ(lib_report.underruns, 0u);
  EXPECT_FALSE(served_bytes.str().empty());
  EXPECT_EQ(served_bytes.str(), lib_bytes.str());

  // Steady state burns no typed rejects: the headroom probe gated
  // every submit.
  EXPECT_EQ(served.stats().queue_full_rejects, 0u);
  EXPECT_EQ(served.stats().flows_served, 6u);
}

TEST_F(ServedEmitTest, UnpumpedServiceConvertsToUnderruns) {
  // Nobody drives the service: every arrival finds an empty ring and is
  // recorded as an underrun — wire time never waits on the model.
  serve::TraceService service(registry_, fast_config());
  ServedSourceConfig src = served_config(4);
  src.pump_service = false;
  ServedFlowSource source(service, src);

  VirtualPacer pacer;
  NullSink sink;
  OpenLoopEmitter emitter(fast_emit_config(4), source, pacer, sink);
  const EmitReport report = emitter.run();

  EXPECT_TRUE(report.conserved());
  EXPECT_EQ(report.flows_emitted, 0u);
  EXPECT_EQ(report.underruns, 4u);
  EXPECT_EQ(report.packets_emitted, 0u);
  EXPECT_GT(source.stats().submitted, 0u);  // prefetch did submit
  EXPECT_EQ(source.stats().flows_served, 0u);
}

TEST_F(ServedEmitTest, PrefetchProbeAvoidsQueueFullRejects) {
  // A ring bigger than the queue: without the headroom probe, prefetch
  // would slam the bounded queue and burn kQueueFull rejects. With it,
  // submissions stop at the queue's capacity.
  serve::ServiceConfig cfg = fast_config();
  cfg.queue_capacity = 2;
  serve::TraceService service(registry_, cfg);

  ServedSourceConfig src = served_config(8);
  src.ring_capacity = 8;
  src.flows_per_request = 1;
  ServedFlowSource source(service, src);

  source.prefetch();
  EXPECT_EQ(service.pending(), 2u);
  EXPECT_EQ(service.queue_headroom(), 0u);
  EXPECT_EQ(source.stats().queue_full_rejects, 0u);
  EXPECT_EQ(source.stats().submitted, 2u);

  // Cooperative emission still serves every flow: next_flow() drains
  // the service when the ring runs dry.
  VirtualPacer pacer;
  NullSink sink;
  OpenLoopEmitter emitter(fast_emit_config(8), source, pacer, sink);
  const EmitReport report = emitter.run();
  EXPECT_TRUE(report.conserved());
  EXPECT_EQ(report.flows_emitted, 8u);
  EXPECT_EQ(source.stats().queue_full_rejects, 0u);
}

}  // namespace
}  // namespace repro::replay::emit
