#include "runtime/sharded_engine.h"

#include <cassert>
#include <utility>

namespace apc {

ShardedEngine::ShardedEngine(const EngineConfig& config,
                             std::vector<std::unique_ptr<Source>> sources)
    : TieredEngine(ShardedLayout(config, std::move(sources))) {
  assert(config.IsValid());
}

TieredEngine::Layout ShardedEngine::ShardedLayout(
    const EngineConfig& config, std::vector<std::unique_ptr<Source>> sources) {
  Layout layout;
  TieredConfig& tiered = layout.config;
  tiered.num_edges = 0;
  // Release builds clamp rather than crash (no-exceptions contract): at
  // least one shard, and no more shards than cache capacity so every
  // shard's χ slice is non-empty (matching EngineConfig::IsValid).
  const size_t capacity = config.system.cache_capacity;
  tiered.num_shards = config.num_shards < 1 ? 1 : config.num_shards;
  if (capacity > 0 && static_cast<size_t>(tiered.num_shards) > capacity) {
    tiered.num_shards = static_cast<int>(capacity);
  }
  tiered.wan = config.system.costs;
  tiered.regional_capacity = capacity;
  tiered.wan_push_loss = config.system.push_loss_probability;
  tiered.subscription_hub_capacity = config.subscription_hub_capacity;
  tiered.seed = config.seed;
  layout.sources = std::move(sources);
  layout.counter_prefix = "engine";
  layout.bus_prefix = "bus";
  return layout;
}

}  // namespace apc
