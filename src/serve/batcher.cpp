#include "serve/batcher.hpp"

#include <limits>

#include "common/telemetry/trace.hpp"

namespace repro::serve {

BatchKey batch_key_of(const GenerateRequest& request) {
  return BatchKey{request.model, request.class_id, request.sampler,
                  request.ddim_steps};
}

bool BatchScheduler::should_dispatch(const RequestQueue& queue,
                                     double now) const {
  const std::size_t depth = queue.size();
  if (depth == 0) return false;
  if (depth >= policy_.max_batch_flows) return true;  // backlog: go now
  return now - queue.oldest_enqueue_time() >= policy_.max_wait;
}

FormedBatch BatchScheduler::form(RequestQueue& queue, double now) const {
  REPRO_SPAN("serve.batch.form");
  FormedBatch formed;
  // Cancel-before-work: every expired request leaves the queue here,
  // before any model work is considered, regardless of batch key. The
  // caller's single `now` governs the whole sweep (see
  // RequestQueue::sweep_expired).
  formed.expired =
      queue.sweep_expired(now, std::numeric_limits<std::size_t>::max());

  std::optional<Pending> head = queue.pop_head();
  if (!head) return formed;
  formed.key = batch_key_of(head->request);
  formed.flows = head->request.count;
  formed.batch.push_back(std::move(*head));

  // Gather same-key mates while the flow budget lasts. The budget
  // closure is stateful: extract_matching scans FIFO per lane, so the
  // first fitting requests win deterministically.
  std::size_t budget = policy_.max_batch_flows > formed.flows
                           ? policy_.max_batch_flows - formed.flows
                           : 0;
  if (budget > 0) {
    std::vector<Pending> mates = queue.extract_matching(
        [this, &formed, &budget](const Pending& p) {
          if (!(batch_key_of(p.request) == formed.key)) return false;
          if (p.request.count > budget) return false;
          budget -= p.request.count;
          return true;
        },
        policy_.max_batch_flows);
    for (auto& m : mates) {
      formed.flows += m.request.count;
      formed.batch.push_back(std::move(m));
    }
  }
  return formed;
}

}  // namespace repro::serve
