// Request/response types of the trace-generation service.
//
// A GenerateRequest names a registered model and a class and asks for
// `count` flows under a per-request seed. Responses are delivered
// through a std::shared_future<Response>; admission-control rejections
// (queue full, unknown model/class) are returned synchronously from
// submit() as a typed RejectReason so a loaded service never blocks the
// caller.
//
// Determinism contract: flow i of a request is generated from the
// stream fork_flow_seed(request.seed, i) — the same derivation
// TraceDiffusion::generate_seeded uses — so a served response is
// bit-identical to a direct library call with the same
// (model checkpoint, class, seed, sampler, steps, count), no
// matter how the batch scheduler coalesced it with other requests.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "diffusion/pipeline.hpp"
#include "net/flow.hpp"

namespace repro::serve {

/// Scheduling lanes; lower value drains first.
enum class Priority : int { kHigh = 0, kNormal = 1, kLow = 2 };
inline constexpr std::size_t kPriorityLanes = 3;

/// Typed admission / cancellation reasons.
enum class RejectReason {
  kQueueFull,        ///< bounded queue at capacity (backpressure)
  kDeadlineExpired,  ///< deadline passed before model work started
  kUnknownModel,     ///< no such model in the registry
  kUnknownClass,     ///< class id outside the model's prompt set
  kBadRequest,       ///< malformed request (e.g. count == 0)
  kShuttingDown,     ///< service stopped accepting work
};

const char* to_string(RejectReason reason) noexcept;

/// No deadline.
inline constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

struct GenerateRequest {
  std::string model = "default";  ///< registry name
  int class_id = 0;
  std::size_t count = 1;      ///< flows requested
  std::uint64_t seed = 0;     ///< request-level seed (forked per flow)
  diffusion::SamplerKind sampler = diffusion::SamplerKind::kDdim;
  std::size_t ddim_steps = 20;
  Priority priority = Priority::kNormal;
  /// Absolute service-clock deadline (seconds); if it passes before the
  /// request's batch is formed, the request is cancelled without any
  /// model work.
  double deadline = kNoDeadline;
};

enum class ResponseStatus { kOk, kCancelled };

struct Response {
  ResponseStatus status = ResponseStatus::kOk;
  /// Valid when status == kCancelled (e.g. kDeadlineExpired).
  RejectReason cancel_reason = RejectReason::kDeadlineExpired;
  std::uint64_t request_id = 0;
  std::vector<net::Flow> flows;
  std::string model_version;  ///< version that actually served the request
  bool cache_hit = false;
  double queue_wait = 0.0;     ///< seconds from submit to batch formation
  double total_latency = 0.0;  ///< seconds from submit to completion
  std::size_t batch_flows = 0;  ///< size of the model call that served it
  /// Trace id of the model call that served it (0 for cache hits and
  /// cancellations); joins the response to the flight-recorder timeline.
  std::uint64_t batch_id = 0;
};

}  // namespace repro::serve
