#include "serve/cache.hpp"

#include "common/telemetry/trace.hpp"

namespace repro::serve {
namespace {

/// Flat string encoding of the key (map-friendly; '\x1f' ends the name
/// and the version strings, so neither can collide with the other's
/// suffix or with the numeric fields).
std::string encode(const CacheKey& key) {
  std::string out = key.model;
  out.push_back('\x1f');
  out += key.model_version;
  out.push_back('\x1f');
  out += std::to_string(key.class_id);
  out.push_back(':');
  out += std::to_string(key.seed);
  out.push_back(':');
  out += std::to_string(static_cast<int>(key.sampler));
  out.push_back(':');
  out += std::to_string(key.steps);
  out.push_back(':');
  out += std::to_string(key.count);
  return out;
}

}  // namespace

CacheKey cache_key_of(const GenerateRequest& request,
                      const std::string& model_version) {
  return CacheKey{request.model,   model_version,      request.class_id,
                  request.seed,    request.sampler,    request.ddim_steps,
                  request.count};
}

ResultCache::ResultCache(std::size_t capacity) : capacity_(capacity) {}

std::optional<std::vector<net::Flow>> ResultCache::get(const CacheKey& key) {
  if (capacity_ == 0) return std::nullopt;
  REPRO_SPAN("serve.cache.get");
  const std::string k = encode(key);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(k);
  if (it == index_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);  // promote
  return it->second->second;
}

void ResultCache::put(const CacheKey& key, std::vector<net::Flow> flows) {
  if (capacity_ == 0) return;
  REPRO_SPAN("serve.cache.put");
  const std::string k = encode(key);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(k);
  if (it != index_.end()) {
    it->second->second = std::move(flows);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(k, std::move(flows));
  index_[k] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

}  // namespace repro::serve
