#ifndef APC_RUNTIME_SHARDED_ENGINE_H_
#define APC_RUNTIME_SHARDED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/system.h"
#include "runtime/tiered_engine.h"

namespace apc {

/// Configuration of the flat concurrent serving runtime.
/// `system.cache_capacity` is the total χ, partitioned as evenly as
/// possible across shards; `system.costs` and
/// `system.push_loss_probability` apply per shard.
struct EngineConfig {
  SystemConfig system;
  int num_shards = 1;
  uint64_t seed = 0;
  /// How snapshot reads acquire shards (see ReadLockMode): optimistic
  /// per-entry seqlock validation by default; kShared is the bench
  /// baseline the seqlock path is measured against.
  ReadLockMode read_lock_mode = ReadLockMode::kSeqlock;
  /// Capacity of the subscription NotificationHub (backpressure bound for
  /// the notifier; must be positive).
  size_t subscription_hub_capacity = 1024;

  /// Full validation, checked at engine construction so a bad
  /// configuration is rejected up front instead of failing later (more
  /// shards than cache capacity leaves shards with a zero-entry cache
  /// slice; a loss probability outside [0, 1] breaks the Bernoulli draw).
  bool IsValid() const {
    return num_shards > 0 &&
           static_cast<size_t>(num_shards) <= system.cache_capacity &&
           subscription_hub_capacity > 0 &&
           system.costs.IsValid() &&
           system.push_loss_probability >= 0.0 &&
           system.push_loss_probability <= 1.0;
  }
};

/// The flat concurrent serving runtime — the paper's single-cache protocol
/// served from many threads: a TieredEngine with zero edge tiers, whose
/// origin tier is the cache. Sources are hash-partitioned across
/// reader/writer-locked shards; PointRead and ExecuteQuery answer at that
/// tier (see TieredEngine for the read, write and subscription paths).
/// A single-shard engine driven in lockstep from one thread and seeded
/// like a CacheSystem reproduces its answers and cost accounting exactly,
/// push-loss injection included.
class ShardedEngine : public TieredEngine {
 public:
  /// Takes ownership of `sources`; each is routed to its shard by id hash.
  /// `config` must satisfy EngineConfig::IsValid() — asserted in debug
  /// builds; in release the shard count is clamped into [1, χ], per the
  /// no-exceptions contract. Sources that are null, carry a duplicate id,
  /// or carry a precision policy with an invalid configuration are
  /// rejected here — counted in RuntimeCounters::rejected_sources —
  /// instead of corrupting a run later. The registry names its tallies
  /// "engine." / "read.", the bus "bus.", and the subscription layer
  /// "subs.".
  ShardedEngine(const EngineConfig& config,
                std::vector<std::unique_ptr<Source>> sources);

  /// The cache's costs: the origin tier's, the only one.
  EngineCosts TotalCosts() const { return WanCosts(); }
  int64_t lost_pushes() const { return lost_wan_pushes(); }
  /// Current exact value of `id` (NaN when unowned) — checker/test
  /// observability, charge-free.
  double ExactValue(int id) const { return exact_value(id); }

 private:
  /// Maps `config` onto a zero-edge layout whose origin tier is the cache.
  static Layout ShardedLayout(const EngineConfig& config,
                              std::vector<std::unique_ptr<Source>> sources);
};

}  // namespace apc

#endif  // APC_RUNTIME_SHARDED_ENGINE_H_
