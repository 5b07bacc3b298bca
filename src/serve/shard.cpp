#include "serve/shard.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/telemetry/export.hpp"

namespace repro::serve {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a64(const char* data, std::size_t n,
                      std::uint64_t h = kFnvOffset) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= kFnvPrime;
  }
  return h;
}

/// Avalanche finalizer (the 64-bit mix from MurmurHash3). Raw FNV-1a of
/// short keys that differ only in a trailing digit leaves the high bits
/// nearly constant, which collapses the whole key space onto one or two
/// ring arcs; the finalizer spreads every input bit across the word.
std::uint64_t mix64(std::uint64_t h) noexcept {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// Ranks SLO statuses so the fleet can report its worst lane.
int status_rank(const char* status) noexcept {
  if (std::strcmp(status, "breached") == 0) return 2;
  if (std::strcmp(status, "at_risk") == 0) return 1;
  return 0;
}

}  // namespace

std::uint64_t shard_key_hash(const std::string& model,
                             int class_id) noexcept {
  // Finalized fnv1a64("<model>:<class_id>") without building the string.
  std::uint64_t h = fnv1a64(model.data(), model.size());
  h = fnv1a64(":", 1, h);
  char digits[16];
  const int len = std::snprintf(digits, sizeof digits, "%d", class_id);
  return mix64(fnv1a64(digits, static_cast<std::size_t>(len), h));
}

ShardRing::ShardRing(std::size_t shards, std::size_t vnodes)
    : shards_(shards == 0 ? 1 : shards) {
  const std::size_t points = vnodes == 0 ? 1 : vnodes;
  points_.reserve(shards_ * points);
  for (std::size_t s = 0; s < shards_; ++s) {
    for (std::size_t v = 0; v < points; ++v) {
      char name[48];
      const int len = std::snprintf(name, sizeof name, "shard-%zu#%zu", s, v);
      points_.emplace_back(mix64(fnv1a64(name, static_cast<std::size_t>(len))),
                           static_cast<std::uint32_t>(s));
    }
  }
  std::sort(points_.begin(), points_.end());
}

std::size_t ShardRing::shard_of(const std::string& model,
                                int class_id) const {
  const std::uint64_t key = shard_key_hash(model, class_id);
  // First ring point clockwise from the key (wrap to the lowest point).
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), key,
      [](const std::pair<std::uint64_t, std::uint32_t>& point,
         std::uint64_t k) { return point.first < k; });
  return it == points_.end() ? points_.front().second : it->second;
}

ShardedService::ShardedService(ModelRegistry& registry, ShardedConfig config)
    : config_(std::move(config)),
      ring_(config_.lanes, config_.vnodes),
      id_source_(std::make_shared<std::atomic<std::uint64_t>>(1)),
      batch_id_source_(std::make_shared<std::atomic<std::uint64_t>>(1)),
      frontend_(config_.service.flightrec_capacity),
      clock_(config_.service.clock ? config_.service.clock
                                   : steady_clock_fn()),
      start_time_(clock_()) {
  if (config_.lanes == 0) config_.lanes = 1;
  frontend_.set_forced(config_.service.flightrec_force);
  shards_.reserve(config_.lanes);
  for (std::size_t s = 0; s < config_.lanes; ++s) {
    ServiceConfig shard_cfg = config_.service;
    shard_cfg.id_source = id_source_;
    shard_cfg.batch_id_source = batch_id_source_;
    shards_.push_back(std::make_unique<TraceService>(registry, shard_cfg));
  }
}

SubmitResult ShardedService::submit(const GenerateRequest& request) {
  return submit_traced(request, 0);
}

SubmitResult ShardedService::submit_traced(const GenerateRequest& request,
                                           std::uint64_t trace_id) {
  const std::size_t shard = ring_.shard_of(request.model, request.class_id);
  return shards_[shard]->submit_traced(request, trace_id);
}

std::size_t ShardedService::pump() {
  std::size_t done = 0;
  for (auto& shard : shards_) done += shard->pump();
  return done;
}

std::size_t ShardedService::drain() {
  std::size_t done = 0;
  for (auto& shard : shards_) done += shard->drain();
  return done;
}

void ShardedService::start() {
  for (auto& shard : shards_) shard->start();
}

void ShardedService::stop() {
  for (auto& shard : shards_) shard->stop();
}

void ShardedService::close() noexcept {
  for (auto& shard : shards_) shard->close();
}

void ShardedService::set_completion_notifier(
    const std::function<void()>& fn) {
  for (auto& shard : shards_) shard->set_completion_notifier(fn);
}

std::size_t ShardedService::pending() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->pending();
  return total;
}

std::vector<observe::FlightEvent> ShardedService::merged_events() const {
  std::vector<observe::FlightEvent> events = frontend_.dump();
  for (const auto& shard : shards_) {
    const std::vector<observe::FlightEvent> part =
        shard->flight_recorder().dump();
    events.insert(events.end(), part.begin(), part.end());
  }
  // Stable sort: events with equal timestamps (fake clocks in tests)
  // keep their recorder order, so a merged dump is deterministic.
  std::stable_sort(events.begin(), events.end(),
                   [](const observe::FlightEvent& a,
                      const observe::FlightEvent& b) {
                     return a.time < b.time;
                   });
  return events;
}

std::string ShardedService::flight_dump_json() const {
  std::size_t capacity = frontend_.capacity();
  std::uint64_t recorded = frontend_.recorded();
  std::uint64_t overwritten = frontend_.overwritten();
  for (const auto& shard : shards_) {
    const auto& rec = shard->flight_recorder();
    capacity += rec.capacity();
    recorded += rec.recorded();
    overwritten += rec.overwritten();
  }
  return observe::flight_dump_json(merged_events(), capacity, recorded,
                                   overwritten);
}

std::string ShardedService::health_json() const {
  const double now = clock_();
  TraceService::InstanceCounters total;
  int worst = 0;
  for (const auto& shard : shards_) {
    const auto c = shard->counters();
    total.submitted += c.submitted;
    total.completed += c.completed;
    total.cancelled += c.cancelled;
    total.rejected += c.rejected;
    total.cache_hits += c.cache_hits;
    worst = std::max(worst, status_rank(shard->slo().overall_status(now)));
  }

  telemetry::JsonWriter json;
  json.begin_object();
  json.key("status");
  json.value(worst == 2 ? "breached" : worst == 1 ? "at_risk" : "ok");
  json.key("uptime_seconds");
  json.value(now - start_time_);
  json.key("lanes");
  json.value(static_cast<std::uint64_t>(shards_.size()));

  json.key("requests");
  json.begin_object();
  json.key("submitted");
  json.value(total.submitted);
  json.key("completed");
  json.value(total.completed);
  json.key("cancelled");
  json.value(total.cancelled);
  json.key("rejected");
  json.value(total.rejected);
  json.key("cache_hits");
  json.value(total.cache_hits);
  json.end_object();

  json.key("shards");
  json.begin_array();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const TraceService& shard = *shards_[s];
    const auto c = shard.counters();
    json.begin_object();
    json.key("shard");
    json.value(static_cast<std::uint64_t>(s));
    json.key("status");
    json.value(shard.slo().overall_status(now));
    json.key("queue_depth");
    json.value(static_cast<std::uint64_t>(shard.pending()));
    json.key("queue_capacity");
    json.value(static_cast<std::uint64_t>(shard.config().queue_capacity));
    json.key("submitted");
    json.value(c.submitted);
    json.key("completed");
    json.value(c.completed);
    json.key("cancelled");
    json.value(c.cancelled);
    json.key("rejected");
    json.value(c.rejected);
    json.key("cache_hits");
    json.value(c.cache_hits);
    json.end_object();
  }
  json.end_array();

  if (transport_health_) {
    json.key("connections");
    json.raw(transport_health_());
  }

  json.key("flight_recorder");
  json.begin_object();
  std::size_t capacity = frontend_.capacity();
  std::uint64_t recorded = frontend_.recorded();
  for (const auto& shard : shards_) {
    const auto& rec = shard->flight_recorder();
    capacity += rec.capacity();
    recorded += rec.recorded();
  }
  json.key("capacity");
  json.value(static_cast<std::uint64_t>(capacity));
  json.key("recorded");
  json.value(recorded);
  json.key("armed");
  json.value(frontend_.armed());
  json.end_object();

  json.end_object();
  return std::move(json).str();
}

}  // namespace repro::serve
