// Micro-batching scheduler: coalesces compatible queued requests into
// one batched model call.
//
// Requests are compatible when they share a BatchKey — (model, class,
// sampler, steps) — because those are exactly the parameters
// of the underlying generate_with_flow_seeds call; the per-flow seeds
// make the outputs independent of how requests were grouped. The max-batch /
// max-wait policy bounds latency under light load (a lone request waits
// at most max_wait for batch-mates) and saturates throughput under
// heavy load (batches fill to max_batch_flows immediately).
#pragma once

#include <vector>

#include "serve/queue.hpp"

namespace repro::serve {

struct BatchKey {
  std::string model;
  int class_id = 0;
  diffusion::SamplerKind sampler = diffusion::SamplerKind::kDdim;
  std::size_t steps = 0;

  friend bool operator==(const BatchKey& a, const BatchKey& b) {
    return a.model == b.model && a.class_id == b.class_id &&
           a.sampler == b.sampler && a.steps == b.steps;
  }
};

BatchKey batch_key_of(const GenerateRequest& request);

struct BatchPolicy {
  /// Flow budget of one batched model call (sum of request counts; the
  /// head request always dispatches even if it alone exceeds this).
  std::size_t max_batch_flows = 16;
  /// Seconds the oldest queued request may wait for batch-mates before
  /// the scheduler dispatches a partial batch. 0 = dispatch immediately.
  double max_wait = 0.002;
};

struct FormedBatch {
  BatchKey key;
  std::vector<Pending> batch;    ///< same-key requests, FIFO by priority
  std::vector<Pending> expired;  ///< deadline-expired, cancelled unserved
  std::size_t flows = 0;         ///< total flows across `batch`
};

class BatchScheduler {
 public:
  explicit BatchScheduler(BatchPolicy policy) : policy_(policy) {}

  const BatchPolicy& policy() const noexcept { return policy_; }

  /// Whether the queue head has waited long enough (or the backlog is
  /// deep enough) to justify dispatching now.
  bool should_dispatch(const RequestQueue& queue, double now) const;

  /// Sweeps deadline-expired requests out of the whole queue, then pops
  /// the head and gathers same-key batch-mates up to the flow budget.
  /// Returns an empty batch when the queue is (or becomes) empty.
  FormedBatch form(RequestQueue& queue, double now) const;

 private:
  BatchPolicy policy_;
};

}  // namespace repro::serve
