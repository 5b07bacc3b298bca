#include "replay/emit/source.hpp"

#include <chrono>
#include <utility>

#include "common/contracts.hpp"
#include "common/telemetry/metrics.hpp"

namespace repro::replay::emit {

std::optional<net::Flow> VectorFlowSource::next_flow() {
  if (flows_.empty()) return std::nullopt;
  if (next_ >= flows_.size()) {
    if (!loop_) return std::nullopt;
    next_ = 0;
  }
  return flows_[next_++];
}

LibraryFlowSource::LibraryFlowSource(const diffusion::TraceDiffusion& pipeline,
                                     int class_id,
                                     diffusion::GenerateOptions options,
                                     std::uint64_t seed_base,
                                     std::uint64_t total_flows)
    : pipeline_(pipeline),
      class_id_(class_id),
      options_(options),
      seed_base_(seed_base),
      total_flows_(total_flows) {
  if (options_.count == 0) options_.count = 1;
}

std::optional<net::Flow> LibraryFlowSource::next_flow() {
  if (ready_.empty() && (total_flows_ == 0 || requested_ < total_flows_)) {
    diffusion::GenerateOptions opts = options_;
    if (total_flows_ > 0) {
      const std::uint64_t remaining = total_flows_ - requested_;
      if (opts.count > remaining) {
        opts.count = static_cast<std::size_t>(remaining);
      }
    }
    std::vector<net::Flow> flows =
        pipeline_.generate_seeded(class_id_, opts, seed_base_ + next_request_);
    ++next_request_;
    requested_ += flows.size();
    for (auto& flow : flows) ready_.push_back(std::move(flow));
  }
  if (ready_.empty()) return std::nullopt;
  net::Flow flow = std::move(ready_.front());
  ready_.pop_front();
  return flow;
}

ServedFlowSource::ServedFlowSource(serve::TraceService& service,
                                   ServedSourceConfig config)
    : service_(service), config_(std::move(config)) {
  REPRO_REQUIRE(config_.ring_capacity > 0,
                "ServedFlowSource: ring_capacity must be > 0");
  REPRO_REQUIRE(config_.flows_per_request > 0,
                "ServedFlowSource: flows_per_request must be > 0");
}

void ServedFlowSource::collect() {
  const auto zero = std::chrono::seconds(0);
  while (!in_flight_.empty() &&
         in_flight_.front().response.wait_for(zero) ==
             std::future_status::ready) {
    InFlight done = std::move(in_flight_.front());
    in_flight_.pop_front();
    in_flight_flows_ -= done.flows;
    const serve::Response& response = done.response.get();
    if (response.status == serve::ResponseStatus::kOk) {
      stats_.flows_received += response.flows.size();
      for (const auto& flow : response.flows) ready_.push_back(flow);
    } else {
      // Cancelled mid-flight (deadline sweep / shutdown): the committed
      // flows will never arrive.
      ++stats_.other_rejects;
      flows_committed_ -= done.flows;
    }
  }
}

void ServedFlowSource::prefetch() {
  while (!failed_) {
    if (config_.total_flows > 0 && flows_committed_ >= config_.total_flows) {
      break;
    }
    // Bound the working set: flows sitting in the ring plus flows the
    // service already owes us must stay under ring_capacity.
    if (ready_.size() + in_flight_flows_ >= config_.ring_capacity) break;
    // Steady-state backpressure probe: submit only what the queue would
    // admit. A raced kQueueFull below is still handled (and counted).
    if (service_.queue_headroom() == 0) break;

    std::size_t count = config_.flows_per_request;
    if (config_.total_flows > 0) {
      const std::uint64_t remaining = config_.total_flows - flows_committed_;
      if (count > remaining) count = static_cast<std::size_t>(remaining);
    }
    serve::GenerateRequest request;
    request.model = config_.model;
    request.class_id = config_.class_id;
    request.count = count;
    request.seed = config_.seed_base + next_request_;
    request.sampler = config_.sampler;
    request.ddim_steps = config_.ddim_steps;

    serve::SubmitResult result = service_.submit(request);
    if (!result.accepted) {
      if (result.reject == serve::RejectReason::kQueueFull) {
        // Raced out of the probed headroom — record and back off; the
        // seed counter does not advance, so the request is retried
        // verbatim on the next prefetch and bit-identity holds.
        ++stats_.queue_full_rejects;
        telemetry::count("replay.emit.source.queue_full");
      } else {
        // Unknown model/class, shutdown, ...: permanent for this run.
        ++stats_.other_rejects;
        failed_ = true;
      }
      break;
    }
    ++stats_.submitted;
    ++next_request_;
    flows_committed_ += count;
    in_flight_flows_ += count;
    in_flight_.push_back(InFlight{result.response, count});
  }
}

std::optional<net::Flow> ServedFlowSource::next_flow() {
  collect();
  prefetch();
  collect();
  if (ready_.empty() && config_.pump_service && !in_flight_.empty()) {
    // Cooperative mode: no background worker is pumping, so drive the
    // service here. This costs model latency but not wire time — the
    // pacer's clock is independent of how long next_flow() takes.
    service_.drain();
    collect();
  }
  if (ready_.empty()) return std::nullopt;
  net::Flow flow = std::move(ready_.front());
  ready_.pop_front();
  ++stats_.flows_served;
  return flow;
}

bool ServedFlowSource::exhausted() const {
  if (!ready_.empty() || !in_flight_.empty()) return false;
  if (failed_) return true;
  return config_.total_flows > 0 && flows_committed_ >= config_.total_flows;
}

}  // namespace repro::replay::emit
