// Old names for TraceService, kept only because e2ebench/src/wire.cpp
// still spells the service ShardedService, its worker count
// ShardedConfig::lanes, and the service itself shard(0). ROADMAP item 11
// renames those uses and deletes this header; nothing else includes it.
#pragma once

#include "serve/service.hpp"

namespace repro::serve {

struct ShardedConfig {
  std::size_t lanes = 1;  ///< becomes ServiceConfig::workers
};

class ShardedService : public TraceService {
 public:
  ShardedService(ModelRegistry& registry, const ShardedConfig& config)
      : TraceService(registry, with_workers(config.lanes)) {}

  TraceService& shard(std::size_t) { return *this; }

 private:
  static ServiceConfig with_workers(std::size_t workers) {
    ServiceConfig config;
    config.workers = workers;
    return config;
  }
};

}  // namespace repro::serve
