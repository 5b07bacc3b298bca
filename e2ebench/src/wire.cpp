// wire-cold and wire-warm: BlockingClient frames over loopback to a
// one-lane SocketServer, replies turned into flows by a benchmark-side
// FlowSource, emitted through pcap and the conntrack -> NAT chain.
//
// Load shape: one closed loop on the main thread (client and emitter),
// 2 connections, 8 single-flow requests in flight. Threads: main, the
// server loop, one service lane, and a 2-lane library pool (one extra
// worker) -- 4 in all. Training in set-up runs alone, on one lane.
#include <bit>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/parallel/thread_pool.hpp"
#include "common/rng.hpp"
#include "common/telemetry/metrics.hpp"
#include "common/telemetry/trace.hpp"
#include "diffusion/pipeline.hpp"
#include "flowgen/catalog.hpp"
#include "flowgen/generator.hpp"
#include "ledger.hpp"
#include "round.hpp"
#include "serve/net/client.hpp"
#include "serve/net/server.hpp"
#include "serve/registry.hpp"
#include "serve/shard.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

namespace serve = repro::serve;
namespace wire = repro::serve::wire;
namespace diffusion = repro::diffusion;
using repro::net::Flow;

/// Model classes: one TCP service, one mixed TCP/UDP, one UDP.
constexpr repro::flowgen::App kApps[] = {repro::flowgen::App::kNetflix,
                                         repro::flowgen::App::kYoutube,
                                         repro::flowgen::App::kTeams};
constexpr std::size_t kClasses = std::size(kApps);
constexpr std::size_t kPackets = 16;  ///< flow image height
constexpr std::size_t kConnections = 2;
/// Requests in flight: the emitter's default prefetch ring.
const std::size_t kInFlight =
    repro::replay::emit::ServedSourceConfig{}.ring_capacity;
constexpr int kSetupRepeats = 3;
constexpr std::uint64_t kTrainSeed = 7;     ///< training data, not --seed
constexpr std::uint64_t kSizeCheckSeed = 99;
constexpr std::size_t kSizeCheckFlows = 16;
constexpr double kReplyTimeout = 30.0;

// Salts that keep the run seed's streams apart.
constexpr std::uint64_t kKeySalt = 0x6b657973ull;
constexpr std::uint64_t kWarmupSalt = 0x7761726dull;
constexpr std::uint64_t kSampleSalt = 0x73616d70ull;

/// Training and request-stream sizes; `tiny` selects the self-test scale.
struct WireScale {
  std::size_t train_per_class = 20;
  std::size_t ae_epochs = 25;
  std::size_t diffusion_epochs = 15;
  std::size_t control_epochs = 8;
  std::size_t ddim_steps = 20;
  std::size_t cold_round = 48;   ///< requests per round, wire-cold
  std::size_t warm_round = 512;  ///< requests per round, wire-warm
  std::size_t warm_keys = 96;    ///< key set, smaller than the cache
  std::size_t samples = 8;       ///< requests re-checked against the library

  static WireScale for_options(const Options& options) {
    WireScale scale;
    if (options.tiny) {
      scale.train_per_class = 6;
      scale.ae_epochs = 4;
      scale.diffusion_epochs = 2;
      scale.control_epochs = 1;
      scale.ddim_steps = 4;
      scale.cold_round = 12;
      scale.warm_round = 32;
      scale.warm_keys = 12;
      scale.samples = 3;
    }
    return scale;
  }
};

/// One request of the workload's stream. `k` indexes the timed stream;
/// warm-up requests use their own index space.
struct Plan {
  bool warm = false;
  std::uint64_t seed = 0;
  std::size_t keys = 0;
  std::size_t steps = 20;

  serve::GenerateRequest make(int class_id, std::uint64_t seed_value) const {
    serve::GenerateRequest request;
    request.class_id = class_id;
    request.seed = seed_value;
    request.count = 1;
    request.ddim_steps = steps;
    return request;
  }
  /// The i-th member of the warm key set.
  serve::GenerateRequest key(std::uint64_t i) const {
    return make(static_cast<int>(i % kClasses), mix(seed ^ kKeySalt, i));
  }
  serve::GenerateRequest timed(std::uint64_t k) const {
    if (warm) return key(mix(seed, k) % keys);
    return make(static_cast<int>(k % kClasses), mix(seed, k));
  }
  serve::GenerateRequest warmup(std::uint64_t i) const {
    if (warm) return key(i);
    return make(static_cast<int>(i % kClasses), mix(seed ^ kWarmupSalt, i));
  }
  std::size_t warmup_count() const { return warm ? keys : kInFlight; }
};

/// A reply kept for the determinism check after the run.
struct Sample {
  int class_id = 0;
  std::uint64_t seed = 0;
  std::uint64_t wire_hash = 0;
};

/// Benchmark-side FlowSource over the wire. It keeps kInFlight requests
/// outstanding over kConnections connections and, when the emitter asks
/// for a flow and none is decoded yet, blocks on the connection that
/// holds the oldest outstanding request. Same-class requests on one
/// connection are answered in order (the batcher is FIFO per key), so a
/// reply is matched to the oldest outstanding request of its class.
/// The request stream runs across rounds: a round ends with kInFlight
/// requests still outstanding, and the next round starts with them, so
/// the loop never ramps up from or drains to zero in the timed window.
class WireSource final : public repro::replay::emit::FlowSource {
 public:
  using MakeRequest = std::function<serve::GenerateRequest(std::uint64_t)>;

  WireSource(std::vector<std::unique_ptr<wire::BlockingClient>>& clients,
             bool expect_cache_hits)
      : clients_(clients),
        expect_cache_hits_(expect_cache_hits),
        outstanding_(clients.size()) {}

  std::string name() const override { return "wire"; }

  /// Starts the stream of requests numbered [0, end).
  void start(MakeRequest make, std::uint64_t end) {
    make_ = std::move(make);
    end_ = end;
  }

  /// Where the next round's timings and latencies go (null: nowhere).
  void begin_round(LayerTimers* timers, std::vector<double>* latencies) {
    timers_ = timers;
    latencies_ = latencies;
  }

  /// Ends the stream and reads every reply still outstanding, untimed.
  void drain() {
    begin_round(nullptr, nullptr);
    end_ = next_;
    while (in_flight_ > 0) read_one();
    ready_.clear();
  }

  /// Requests sent so far.
  std::uint64_t sent() const noexcept { return next_; }

  /// Keeps the replies of requests `k` for which `pick(k)` holds.
  void sample_if(std::function<bool(std::uint64_t)> pick) {
    pick_ = std::move(pick);
  }

  std::optional<Flow> next_flow() override {
    top_up();
    while (ready_.empty()) {
      if (in_flight_ == 0) return std::nullopt;  // a request failed
      read_one();
      top_up();
    }
    Flow flow = std::move(ready_.front());
    ready_.pop_front();
    return flow;
  }

  bool exhausted() const override {
    return next_ >= end_ && in_flight_ == 0 && ready_.empty();
  }

  std::uint64_t failed() const noexcept { return failed_; }
  const std::vector<std::string>& errors() const noexcept { return errors_; }
  const std::vector<Sample>& samples() const noexcept { return samples_; }

 private:
  struct Outstanding {
    std::uint64_t k = 0;
    serve::GenerateRequest request;
    double sent = 0.0;
  };

  void fail(std::string what) {
    ++failed_;
    if (errors_.size() < 8) errors_.push_back(std::move(what));
  }

  void top_up() {
    while (in_flight_ < kInFlight && next_ < end_) {
      const std::size_t c = next_ % clients_.size();
      Outstanding o;
      o.k = next_++;
      o.request = make_(o.k);
      o.sent = now_s();
      clients_[c]->send(o.request);
      if (timers_ != nullptr) {
        timers_->send += now_s() - o.sent;
        ++timers_->requests;
      }
      outstanding_[c].push_back(std::move(o));
      ++in_flight_;
    }
  }

  void read_one() {
    std::size_t conn = 0;
    std::uint64_t oldest = UINT64_MAX;
    for (std::size_t c = 0; c < outstanding_.size(); ++c) {
      if (!outstanding_[c].empty() && outstanding_[c].front().k < oldest) {
        oldest = outstanding_[c].front().k;
        conn = c;
      }
    }
    const double t0 = now_s();
    std::optional<wire::Reply> reply =
        clients_[conn]->read_reply(kReplyTimeout);
    const double decoded = now_s();
    if (timers_ != nullptr) timers_->read += decoded - t0;
    if (!reply) {
      throw std::runtime_error("wire: no reply within 30 s");
    }
    std::deque<Outstanding>& pending = outstanding_[conn];
    if (!reply->ok()) {
      fail("wire: error frame '" + reply->error->error + "'");
      pending.pop_front();
      --in_flight_;
      return;
    }
    wire::WireResponse& response = *reply->response;
    const int label = response.flows.empty() ? -1 : response.flows[0].label;
    auto match = pending.begin();
    while (match != pending.end() && match->request.class_id != label) ++match;
    if (match == pending.end()) {
      fail("wire: reply for class " + std::to_string(label) +
           " matches no outstanding request");
      pending.pop_front();
      --in_flight_;
      return;
    }
    const Outstanding o = std::move(*match);
    pending.erase(match);
    --in_flight_;
    top_up();  // the server works while this reply is parsed
    if (latencies_ != nullptr) latencies_->push_back(decoded - o.sent);
    if (response.status != "ok" ||
        response.flows.size() != o.request.count) {
      fail("wire: request " + std::to_string(o.k) + " answered '" +
           response.status + "' with " +
           std::to_string(response.flows.size()) + " flows");
      return;
    }
    if (expect_cache_hits_ && !response.cache_hit) {
      fail("wire: request " + std::to_string(o.k) + " missed the cache");
    }
    if (pick_ && pick_(o.k)) {
      samples_.push_back({o.request.class_id, o.request.seed,
                          wire::hash_wire_flows(response.flows)});
    }
    const double p0 = timers_ != nullptr ? now_s() : 0.0;
    for (wire::WireFlow& wf : response.flows) {
      Flow flow;
      flow.label = wf.label;
      flow.packets.reserve(wf.packets.size());
      for (const wire::WirePacket& wp : wf.packets) {
        flow.packets.push_back(repro::net::Packet::parse(
            wp.bytes, std::bit_cast<double>(wp.ts_bits)));
      }
      ready_.push_back(std::move(flow));
    }
    if (timers_ != nullptr) timers_->parse += now_s() - p0;
  }

  std::vector<std::unique_ptr<wire::BlockingClient>>& clients_;
  bool expect_cache_hits_;
  std::vector<std::deque<Outstanding>> outstanding_;
  std::deque<Flow> ready_;
  MakeRequest make_;
  std::function<bool(std::uint64_t)> pick_;
  std::uint64_t next_ = 0;
  std::uint64_t end_ = 0;
  std::size_t in_flight_ = 0;
  LayerTimers* timers_ = nullptr;
  std::vector<double>* latencies_ = nullptr;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::vector<Sample> samples_;
};

repro::flowgen::Dataset training_data(const WireScale& scale) {
  repro::Rng rng(kTrainSeed);
  repro::flowgen::Dataset data;
  for (std::size_t i = 0; i < scale.train_per_class; ++i) {
    for (std::size_t c = 0; c < kClasses; ++c) {
      Flow flow = repro::flowgen::generate_flow(kApps[c], kPackets, rng);
      flow.label = static_cast<int>(c);
      data.flows.push_back(std::move(flow));
    }
  }
  return data;
}

std::shared_ptr<diffusion::TraceDiffusion> make_pipeline(
    const WireScale& scale) {
  diffusion::PipelineConfig cfg;
  cfg.packets = kPackets;
  cfg.autoencoder.hidden_dim = 256;
  cfg.autoencoder.latent_dim = 40;
  cfg.ae_max_rows = 3500;
  cfg.unet.base_channels = 24;
  cfg.unet.temb_dim = 48;
  cfg.timesteps = 100;
  cfg.ae_epochs = scale.ae_epochs;
  cfg.diffusion_epochs = scale.diffusion_epochs;
  cfg.control_epochs = scale.control_epochs;
  cfg.seed = 11;
  std::vector<std::string> names;
  for (const auto app : kApps) names.push_back(repro::flowgen::app_name(app));
  return std::make_shared<diffusion::TraceDiffusion>(cfg, names);
}

/// Everything one set-up builds. Members are destroyed in reverse:
/// clients close first, then the server loop and the lane stop.
struct Stack {
  std::shared_ptr<diffusion::TraceDiffusion> pipeline;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::ShardedService> service;
  std::unique_ptr<wire::SocketServer> server;
  std::vector<std::unique_ptr<wire::BlockingClient>> clients;
  double fit_s = 0.0;

  void stop() {
    clients.clear();
    if (server) server->stop();
    if (service) service->stop();
  }
  ~Stack() { stop(); }
};

std::size_t serve_lanes() {
  return std::thread::hardware_concurrency() >= 4 ? 2 : 1;
}

/// Train, start the server, connect, warm up.
std::unique_ptr<Stack> set_up(const WireScale& scale, const Plan& plan,
                              const repro::flowgen::Dataset& real) {
  auto stack = std::make_unique<Stack>();
  // Training runs on one lane. Four lanes fit faster on a quiet host
  // (about 7 s against 11 s) but wait for the slowest lane at every
  // parallel step, and took 20-26 s against 14 s while the host was busy.
  repro::parallel::set_thread_count(1);
  stack->pipeline = make_pipeline(scale);
  const double f0 = now_s();
  stack->pipeline->fit(real);
  stack->fit_s = now_s() - f0;
  repro::parallel::set_thread_count(serve_lanes());

  stack->registry = std::make_unique<serve::ModelRegistry>();
  stack->registry->install("default", stack->pipeline, "e2e-v1");
  serve::ShardedConfig config;
  config.lanes = 1;
  stack->service =
      std::make_unique<serve::ShardedService>(*stack->registry, config);
  stack->server = std::make_unique<wire::SocketServer>(
      *stack->service, wire::ServerConfig{});
  stack->service->start();
  stack->server->start();
  for (std::size_t c = 0; c < kConnections; ++c) {
    stack->clients.push_back(
        std::make_unique<wire::BlockingClient>(stack->server->port()));
  }

  WireSource source(stack->clients, /*expect_cache_hits=*/false);
  const std::size_t n = plan.warmup_count();
  source.start([&plan](std::uint64_t i) { return plan.warmup(i); }, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!source.next_flow()) throw std::runtime_error("wire: warm-up failed");
  }
  return stack;
}

double mean_total_length(const std::vector<Flow>& flows, int label) {
  double bytes = 0.0;
  std::size_t packets = 0;
  for (const Flow& flow : flows) {
    if (label >= 0 && flow.label != label) continue;
    for (const auto& packet : flow.packets) {
      bytes += static_cast<double>(packet.datagram_length());
      ++packets;
    }
  }
  return packets > 0 ? bytes / static_cast<double>(packets) : 0.0;
}

diffusion::GenerateOptions served_options(const serve::ServiceConfig& cfg,
                                          std::size_t steps,
                                          std::size_t count) {
  diffusion::GenerateOptions opts = cfg.base_options;
  opts.sampler = diffusion::SamplerKind::kDdim;
  opts.ddim_steps = steps;
  opts.count = count;
  return opts;
}

}  // namespace

Result run_wire(const Options& options, bool warm) {
  Result result;
  const double process_start = now_s();
  const WireScale scale = WireScale::for_options(options);
  Plan plan;
  plan.warm = warm;
  plan.seed = options.seed;
  plan.keys = scale.warm_keys;
  plan.steps = scale.ddim_steps;
  const repro::flowgen::Dataset real = training_data(scale);

  // Set-up, repeated; the last one serves the timed window.
  std::unique_ptr<Stack> stack;
  std::vector<double> setup_s;
  std::vector<double> fit_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = i == 0 ? process_start : now_s();
    if (stack) stack.reset();
    stack = set_up(scale, plan, real);
    setup_s.push_back(now_s() - t0);
    fit_s.push_back(stack->fit_s);
  }
  const serve::ServiceConfig& service_cfg =
      stack->service->shard(0).config();
  if (warm && scale.warm_keys >= service_cfg.cache_capacity) {
    throw std::logic_error("wire-warm: key set must be smaller than cache");
  }

  repro::telemetry::Registry::instance().reset();
  repro::telemetry::reset_profile();
  LayerInputs layers;
  layers.fit_s = quantile(fit_s, 0.5);
  WireSource source(stack->clients, warm);
  std::size_t sampled = 0;
  source.sample_if([&](std::uint64_t k) {
    if (sampled >= scale.samples || mix(options.seed ^ kSampleSalt, k) % 8)
      return false;
    ++sampled;
    return true;
  });
  const std::uint64_t round_size = warm ? scale.warm_round : scale.cold_round;
  source.start([&plan](std::uint64_t k) { return plan.timed(k); }, UINT64_MAX);
  std::uint64_t batch_seen = 0;
  for (std::uint64_t r = 0; layers.all.wall < options.seconds ||
                            (options.trace && layers.traced.ops == 0);
       ++r) {
    const bool traced = options.trace && r % 2 == 1;
    repro::telemetry::set_enabled(traced);
    LayerTimers* timers = traced ? &layers.timers : nullptr;
    source.begin_round(timers, &layers.all.op_seconds);
    const RoundResult round =
        run_round(source, round_size, mix(options.seed, r), timers);
    repro::telemetry::set_enabled(false);
    account_round(layers, round, round_size, traced);
    for (std::string& e : check_round(round)) result.fail(std::move(e));
    if (traced) {
      // Model-call durations from the lane's flight recorder.
      std::map<std::uint64_t, double> starts;
      for (const auto& event :
           stack->service->shard(0).flight_recorder().dump()) {
        if (event.batch_id <= batch_seen) continue;
        if (event.kind == serve::observe::EventKind::kModelStart) {
          starts[event.batch_id] = event.time;
        } else if (event.kind == serve::observe::EventKind::kModelEnd &&
                   starts.count(event.batch_id) != 0) {
          layers.batch_service_s.push_back(event.time -
                                           starts[event.batch_id]);
        }
      }
      if (!starts.empty()) batch_seen = starts.rbegin()->first;
    }
    if (!result.errors.empty()) break;
  }
  // The requests still in flight are answered and checked too.
  source.drain();
  result.attempted = source.sent();
  result.failed = source.failed();
  for (const std::string& e : source.errors()) result.fail(e);

  if (options.trace) {
    report_per_layer(result, layers);
  } else {
    report_end_to_end(result, layers.all, setup_s);
  }

  // Checks against the library, with the service stopped.
  stack->stop();
  diffusion::TraceDiffusion& model = *stack->pipeline;
  for (const Sample& s : source.samples()) {
    const auto flows = model.generate_seeded(
        s.class_id, served_options(service_cfg, scale.ddim_steps, 1), s.seed);
    result.expect(wire::hash_flows(flows) == s.wire_hash,
                  "determinism: served reply for class " +
                      std::to_string(s.class_id) + " seed " +
                      std::to_string(s.seed) + " differs from the library");
  }
  result.expect(source.samples().size() == scale.samples,
                "determinism: only " +
                    std::to_string(source.samples().size()) +
                    " requests sampled");
  for (std::size_t c = 0; c < kClasses; ++c) {
    const int label = static_cast<int>(c);
    const double real_mean = mean_total_length(real.flows, label);
    const double generated = mean_total_length(
        model.generate_seeded(
            label,
            served_options(service_cfg, scale.ddim_steps, kSizeCheckFlows),
            kSizeCheckSeed),
        -1);
    std::fprintf(stderr,
                 "size check %s: generated %.0f B vs real %.0f B (%.2fx)\n",
                 repro::flowgen::app_name(kApps[c]).c_str(), generated,
                 real_mean, real_mean > 0.0 ? generated / real_mean : 0.0);
    result.expect(size_within_tolerance(generated, real_mean),
                  "size: class " + repro::flowgen::app_name(kApps[c]) +
                      " generates " + std::to_string(generated) +
                      " B per packet against " + std::to_string(real_mean) +
                      " B real");
  }
  return result;
}

}  // namespace e2e
