// Flow sources for the open-loop emitter: where the flows scheduled by
// replay/emit/schedule actually come from. Three implementations:
//
//   * VectorFlowSource  — pre-materialized flows (tests, pcap replays);
//   * LibraryFlowSource — direct TraceDiffusion::generate_seeded calls,
//     the determinism reference for the served path;
//   * ServedFlowSource  — prefetches flows from serve::TraceService
//     through a bounded ring. Backpressure goes INTO the serve queue
//     (typed kQueueFull rejects, counted, never retried in a spin) and
//     never into the pacer: if the ring is empty when a flow arrival
//     fires, next_flow() returns nullopt and the emitter records an
//     *underrun* instead of stalling wire time.
//
// Seed discipline: LibraryFlowSource and ServedFlowSource both derive
// request r's seed as seed_base + r and only advance the counter on an
// accepted submit, so a served emission is bit-identical to the direct
// library source under the serving determinism contract.
#pragma once

#include <cstdint>
#include <deque>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "diffusion/pipeline.hpp"
#include "net/flow.hpp"
#include "serve/service.hpp"

namespace repro::replay::emit {

/// Pull interface the emitter fetches from at each flow arrival.
class FlowSource {
 public:
  virtual ~FlowSource() = default;

  virtual std::string name() const = 0;

  /// Next flow, or nullopt if none is available *right now* (the
  /// emitter records an underrun and keeps pacing).
  virtual std::optional<net::Flow> next_flow() = 0;

  /// True once the source will never produce another flow; lets the
  /// emitter distinguish "dry forever" from a transient underrun.
  virtual bool exhausted() const = 0;
};

/// Serves a fixed vector of flows, optionally looping forever.
class VectorFlowSource final : public FlowSource {
 public:
  explicit VectorFlowSource(std::vector<net::Flow> flows, bool loop = false)
      : flows_(std::move(flows)), loop_(loop) {}

  std::string name() const override { return "vector"; }
  std::optional<net::Flow> next_flow() override;
  bool exhausted() const override {
    return !loop_ && next_ >= flows_.size();
  }

 private:
  std::vector<net::Flow> flows_;
  bool loop_;
  std::size_t next_ = 0;
};

/// Direct in-process model calls through the seeded generation path.
/// Request r draws `options.count` flows at seed `seed_base + r` — the
/// exact derivation the serving layer applies, so this source is the
/// bit-identity reference for ServedFlowSource. total_flows == 0 means
/// unlimited.
class LibraryFlowSource final : public FlowSource {
 public:
  LibraryFlowSource(const diffusion::TraceDiffusion& pipeline, int class_id,
                    diffusion::GenerateOptions options,
                    std::uint64_t seed_base, std::uint64_t total_flows);

  std::string name() const override { return "library"; }
  std::optional<net::Flow> next_flow() override;
  bool exhausted() const override {
    return ready_.empty() && total_flows_ > 0 && requested_ >= total_flows_;
  }

 private:
  const diffusion::TraceDiffusion& pipeline_;
  int class_id_;
  diffusion::GenerateOptions options_;
  std::uint64_t seed_base_;
  std::uint64_t total_flows_;
  std::uint64_t requested_ = 0;  // flows asked of the model so far
  std::uint64_t next_request_ = 0;
  std::deque<net::Flow> ready_;
};

struct ServedSourceConfig {
  std::string model = "default";
  int class_id = 0;
  std::uint64_t seed_base = 1;
  std::uint64_t total_flows = 0;  ///< stop requesting after this many (0 = unlimited)
  /// Max flows resident in the prefetch ring + in flight, i.e. the
  /// open-loop generator's working-set bound against the service.
  std::size_t ring_capacity = 8;
  std::size_t flows_per_request = 1;
  diffusion::SamplerKind sampler = diffusion::SamplerKind::kDdim;
  std::size_t ddim_steps = 20;
  /// Cooperative mode: when the ring runs dry, drive service.drain()
  /// from next_flow() so single-threaded tests/benches make progress.
  /// Disable when a background worker pumps the service.
  bool pump_service = true;
};

/// Counters the bench/CLI report alongside the emitter's own.
struct ServedSourceStats {
  std::uint64_t submitted = 0;
  std::uint64_t queue_full_rejects = 0;
  std::uint64_t other_rejects = 0;
  std::uint64_t flows_received = 0;
  std::uint64_t flows_served = 0;
};

/// Prefetches flows from a TraceService through a bounded ring.
///
/// prefetch() first probes queue_headroom() so steady-state operation
/// submits only what the service would admit; a raced kQueueFull reject
/// (another producer won the headroom) is counted and the seed counter
/// does NOT advance, preserving bit-identity with LibraryFlowSource.
class ServedFlowSource final : public FlowSource {
 public:
  ServedFlowSource(serve::TraceService& service, ServedSourceConfig config);

  std::string name() const override { return "served"; }
  std::optional<net::Flow> next_flow() override;
  bool exhausted() const override;

  const ServedSourceStats& stats() const noexcept { return stats_; }

  /// Issues as many submissions as the ring bound and the service's
  /// queue headroom allow. Called from next_flow(); exposed so callers
  /// can warm the ring before the first arrival fires.
  void prefetch();

 private:
  void collect();  // move ready futures' flows into the ring

  struct InFlight {
    std::shared_future<serve::Response> response;
    std::size_t flows = 0;  ///< flows this request committed to deliver
  };

  serve::TraceService& service_;
  ServedSourceConfig config_;
  ServedSourceStats stats_;
  std::uint64_t next_request_ = 0;    // advanced only on accepted submits
  std::uint64_t flows_committed_ = 0;  // flows accepted submits will yield
  std::size_t in_flight_flows_ = 0;
  bool failed_ = false;  // persistent reject (unknown model/class, ...)
  std::deque<InFlight> in_flight_;
  std::deque<net::Flow> ready_;
};

}  // namespace repro::replay::emit
