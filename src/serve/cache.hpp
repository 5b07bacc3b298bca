// Result cache: LRU over complete responses, keyed by everything that
// determines the generated bits.
//
// The determinism contract makes caching sound: (model_version, class,
// seed, sampler, steps, count) fully determines a seeded generation's
// output, so a hit can return the stored flows verbatim — a repeated
// request is free and bit-identical. model_version in the key means a
// registry hot-swap naturally invalidates (old entries become
// unreachable and age out of the LRU).
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/flow.hpp"
#include "serve/request.hpp"

namespace repro::serve {

struct CacheKey {
  std::string model_version;
  int class_id = 0;
  std::uint64_t seed = 0;
  diffusion::SamplerKind sampler = diffusion::SamplerKind::kDdim;
  std::size_t steps = 0;
  std::size_t count = 0;
};

CacheKey cache_key_of(const GenerateRequest& request,
                      const std::string& model_version);

class ResultCache {
 public:
  /// `capacity` = max cached responses; 0 disables the cache entirely.
  explicit ResultCache(std::size_t capacity);

  /// Copy of the cached flows for `key` (promoted to most-recent), or
  /// nullopt on miss.
  std::optional<std::vector<net::Flow>> get(const CacheKey& key);

  /// Inserts (or refreshes) `key`, evicting the least-recently-used
  /// entry when over capacity.
  void put(const CacheKey& key, std::vector<net::Flow> flows);

  std::size_t size() const;
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  using Entry = std::pair<std::string, std::vector<net::Flow>>;
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::list<Entry> lru_;  // front = most recent
  std::map<std::string, std::list<Entry>::iterator> index_;
};

}  // namespace repro::serve
