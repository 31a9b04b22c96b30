#ifndef APC_CACHE_SYSTEM_H_
#define APC_CACHE_SYSTEM_H_

#include <memory>
#include <vector>

#include "cache/cache.h"
#include "cache/source.h"
#include "core/cost_model.h"
#include "core/protocol_table.h"
#include "query/aggregate.h"

namespace apc {

/// Wiring of the approximate-caching environment of paper §1.1/§4.1: n
/// sources, one cache of capacity χ, and the refresh protocol between them.
struct SystemConfig {
  RefreshCosts costs;
  /// Cache capacity χ (number of approximations).
  size_t cache_capacity = 50;
  /// Failure injection: probability that a value-initiated refresh message
  /// is lost in transit. The source believes it shipped (it will not
  /// resend until the value escapes the NEW interval), while the cache
  /// keeps the stale entry — opening a window in which the protocol's
  /// validity guarantee is broken. 0 disables injection; the paper's
  /// protocol assumes reliable delivery ("modulo communication overhead",
  /// §1.1), and the robustness bench quantifies what that assumption is
  /// worth.
  double push_loss_probability = 0.0;

  /// The protocol-core slice of this configuration.
  ProtocolTable::Config TableConfig() const {
    return {costs, cache_capacity, push_loss_probability};
  }
};

/// The sequential end-to-end protocol engine: a single-threaded driver over
/// the shared protocol core (core/protocol_table.h). Advances source
/// updates, lets the ProtocolTable detect and charge value-initiated
/// refreshes, and executes precision-constrained aggregate queries,
/// charging a query-initiated refresh per exact value pulled from a
/// source. The concurrent runtime drives the very same table per shard, so
/// a single-shard ShardedEngine reproduces this system bit-for-bit (the
/// lockstep parity tests in tests/runtime_test.cc enforce it).
class CacheSystem {
 public:
  CacheSystem(const SystemConfig& config,
              std::vector<std::unique_ptr<Source>> sources,
              uint64_t seed = 0);

  /// Ships every source's initial approximation to the cache (free of
  /// charge; the paper's warm-up discards start-up costs anyway).
  void PopulateInitial(int64_t now);

  /// Advances every source one tick, then performs all value-initiated
  /// refreshes the new values trigger (cost Cvr each).
  void Tick(int64_t now);

  /// Executes a bounded aggregate query at time `now`. Pulls exact values
  /// (cost Cqr per value) until the result interval satisfies the query's
  /// precision constraint; each pull also ships a fresh interval that is
  /// offered to the cache. Returns the final result interval, whose width
  /// is guaranteed to be at most the constraint.
  Interval ExecuteQuery(const Query& query, int64_t now);

  CostTracker& costs() { return table_.costs(); }
  const CostTracker& costs() const { return table_.costs(); }
  /// The cached-entry view (Find/size/capacity/entries) of the protocol
  /// table — the historical `cache()` observers read through it unchanged.
  const ProtocolTable& cache() const { return table_; }
  const ProtocolTable& table() const { return table_; }
  Source* source(int id) { return sources_.at(static_cast<size_t>(id)).get(); }
  const Source* source(int id) const {
    return sources_.at(static_cast<size_t>(id)).get();
  }
  size_t num_sources() const { return sources_.size(); }

  /// Mean retained raw width across sources, a convergence observable.
  double MeanRawWidth() const;

  /// Number of value-initiated refresh messages dropped by failure
  /// injection so far.
  int64_t lost_pushes() const { return table_.lost_pushes(); }

  /// Diagnostic: how many cached entries do NOT currently contain their
  /// source's exact value. Always 0 under reliable delivery; with push
  /// loss it measures the blast radius of dropped refreshes.
  int CountInvalidEntries(int64_t now) const;

 private:
  /// The interval a query sees for `id` at time `now`: the cached interval,
  /// or the unbounded interval when the value is not cached.
  Interval VisibleInterval(int id, int64_t now) const {
    return table_.VisibleInterval(id, now);
  }

  /// Pulls the exact value of `id` (query-initiated refresh): charges Cqr,
  /// updates the source's width, offers the fresh approximation to the
  /// cache, and returns the exact value.
  double PullExact(int id, int64_t now);

  std::vector<std::unique_ptr<Source>> sources_;
  ProtocolTable table_;
};

}  // namespace apc

#endif  // APC_CACHE_SYSTEM_H_
