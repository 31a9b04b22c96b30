#ifndef APC_RUNTIME_SHARDED_ENGINE_H_
#define APC_RUNTIME_SHARDED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "cache/system.h"
#include "query/aggregate.h"
#include "runtime/shard.h"
#include "runtime/update_bus.h"
#include "subscribe/subscription_manager.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace apc {

/// Configuration of the concurrent serving runtime. `system.cache_capacity`
/// is the total χ, partitioned as evenly as possible across shards;
/// `system.costs` and `system.push_loss_probability` apply per shard.
struct EngineConfig {
  SystemConfig system;
  int num_shards = 1;
  uint64_t seed = 0;
  /// Per-ring capacity of the update bus (backpressure bound for
  /// producers; the bus keeps one ring per shard). Must be positive: a
  /// zero-capacity bus would block every producer forever.
  size_t bus_capacity = 1024;
  /// How snapshot reads acquire shards (see ReadLockMode): optimistic
  /// per-entry seqlock validation by default; kShared and kExclusive are
  /// the bench baselines the seqlock path is measured against.
  ReadLockMode read_lock_mode = ReadLockMode::kSeqlock;
  /// Capacity of the subscription NotificationHub (backpressure bound for
  /// the notifier; must be positive).
  size_t subscription_hub_capacity = 1024;

  /// Full validation, checked at engine construction so a bad
  /// configuration is rejected up front instead of failing later
  /// (a 0-capacity bus deadlocks producers; more shards than cache
  /// capacity leaves shards with a zero-entry cache slice; a loss
  /// probability outside [0, 1] breaks the Bernoulli draw).
  bool IsValid() const {
    return num_shards > 0 &&
           static_cast<size_t>(num_shards) <= system.cache_capacity &&
           bus_capacity > 0 && subscription_hub_capacity > 0 &&
           system.costs.IsValid() &&
           system.push_loss_probability >= 0.0 &&
           system.push_loss_probability <= 1.0;
  }
};

/// Engine-wide cost aggregate, summed over the per-shard CostTrackers.
struct EngineCosts {
  int64_t value_refreshes = 0;
  int64_t query_refreshes = 0;
  double total_cost = 0.0;
  /// Measured ticks of the longest-measuring shard (shards share the
  /// logical clock, so under normal use they are all equal).
  int64_t measured_ticks = 0;

  /// Average cost per tick Ω over the measured period.
  double CostRate() const {
    return measured_ticks > 0
               ? total_cost / static_cast<double>(measured_ticks)
               : 0.0;
  }
};

/// The concurrent serving runtime: hash-partitions sources across N
/// reader/writer-locked shards and multiplexes precision-bounded point
/// reads and aggregate queries from many threads over the adaptive-
/// precision refresh protocol. Snapshot reads take shard locks shared, so
/// constraint-satisfied reads (the common case the protocol optimizes for)
/// proceed concurrently; only refreshes acquire exclusively. Cross-shard
/// aggregate queries snapshot the visible intervals, compute the paper's
/// refresh selection globally (greedy widest-first for SUM/AVG, iterative
/// candidate elimination for MAX/MIN), then batch the exact pulls per
/// shard — MAX/MIN elimination runs inside the owning shard for runs of
/// consecutive candidates, one lock acquisition per run.
///
/// Malformed input is rejected, not fatal: update events and query ids
/// naming sources no shard owns are skipped and counted in the
/// RuntimeCounters (`rejected_updates`, `rejected_query_ids`), reads with
/// a NaN or negative constraint are answered unbounded and counted
/// (`rejected_constraints`), and duplicate ids within one query are pulled
/// (and charged) once.
///
/// Every returned interval satisfies the query's precision constraint: the
/// result is composed from the snapshot plus exact pulls, so concurrent
/// updates can only affect *which* values are pulled, never the width
/// guarantee.
///
/// Updates arrive either synchronously via TickAll (the sequential
/// simulator's lockstep, useful for deterministic replay — a single-shard
/// engine driven this way reproduces CacheSystem costs exactly) or
/// asynchronously through the UpdateBus, drained by the pump thread started
/// with StartUpdatePump().
///
/// Standing queries: Subscribe registers a precision-bounded continuous
/// query (point read or aggregate) whose fresh answers are pushed through
/// notifications() whenever the guaranteed interval moves or widens past
/// the subscription's bound — the write path feeds the subscription layer
/// through the protocol core's change-detection hook, so one refresh is
/// amortized across every subscriber of a value (src/subscribe/).
class ShardedEngine : private SubscriptionHost {
 public:
  /// Takes ownership of `sources`; each is routed to its shard by id hash.
  /// `config` must satisfy EngineConfig::IsValid() — asserted in debug
  /// builds and sanitized (shard count and bus capacity clamped into their
  /// valid ranges) in release, per the no-exceptions contract. Sources
  /// that are null, carry a duplicate id, or carry a precision policy with
  /// an invalid configuration are rejected here — counted in
  /// RuntimeCounters::rejected_sources — instead of corrupting a run
  /// later.
  ShardedEngine(const EngineConfig& config,
                std::vector<std::unique_ptr<Source>> sources);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  size_t num_sources() const { return num_sources_; }
  int ShardOf(int id) const;
  Shard& shard(int i) { return *shards_[static_cast<size_t>(i)]; }
  const Shard& shard(int i) const { return *shards_[static_cast<size_t>(i)]; }

  /// Ships every source's initial approximation (free of charge).
  void PopulateInitial(int64_t now);

  /// Synchronous lockstep update of every shard (deterministic path).
  void TickAll(int64_t now);

  /// Executes a precision-bounded aggregate query at `now`; thread-safe.
  /// The result interval's width is at most the query's constraint. A NaN
  /// or negative constraint, which no answer can meet, yields the
  /// unbounded interval before any lock, charge-free, counted in
  /// RuntimeCounters::rejected_constraints.
  Interval ExecuteQuery(const Query& query, int64_t now);

  /// Precision-bounded read of a single source value; pulls the exact
  /// value only when the cached interval is wider than `max_width`. An
  /// invalid `max_width` is rejected like ExecuteQuery's constraint.
  Interval PointRead(int id, double max_width, int64_t now);

  // -- standing queries (the subscription subsystem) -------------------

  /// Registers a standing precision-bounded query with bound `delta`; the
  /// initial answer is queued immediately at epoch 1. Returns the positive
  /// sub_id, or -1 when the query is empty, the bound invalid, or any id
  /// unowned. Thread-safe.
  int64_t Subscribe(const Query& query, double delta, int64_t now) {
    return subscriptions_.Subscribe(query, delta, now);
  }
  /// Drops a standing query. Returns false when unknown. Thread-safe.
  bool Unsubscribe(int64_t sub_id) {
    return subscriptions_.Unsubscribe(sub_id);
  }
  /// Live re-precisioning of a standing query (no re-registration): a
  /// tightened bound re-evaluates immediately and pushes once it is met.
  bool Reprecision(int64_t sub_id, double delta, int64_t now) {
    return subscriptions_.Reprecision(sub_id, delta, now);
  }
  /// The hub subscriber threads drain.
  NotificationHub& notifications() { return subscriptions_.hub(); }
  SubscriptionManager& subscriptions() { return subscriptions_; }
  const SubscriptionManager& subscriptions() const { return subscriptions_; }

  /// Current exact value of `id` (NaN when unowned) — checker/test
  /// observability, charge-free.
  double ExactValue(int id) const;

  // -- asynchronous update path --------------------------------------
  UpdateBus& bus() { return bus_; }

  /// Starts the pump thread draining the bus into shards. Returns true
  /// when the pump is running (newly started or already); returns false —
  /// and starts nothing — once the bus has been closed: the asynchronous
  /// update path is single-use per engine.
  bool StartUpdatePump();

  /// Closes the bus, waits for the backlog to drain, and joins the pump.
  void StopUpdatePump();

  // -- measurement and observability ---------------------------------
  void BeginMeasurement(int64_t now);
  void EndMeasurement(int64_t now);
  EngineCosts TotalCosts() const;
  const RuntimeCounters& counters() const { return counters_; }
  int64_t lost_pushes() const;

  /// The engine's metrics registry: every RuntimeCounters tally (under
  /// "engine." / "read."), the update bus ("bus."), and the subscription
  /// layer ("subs.") registered at construction. Snapshot it directly or
  /// through an obs::SnapshotExporter. Under APC_OBS=0 snapshots are empty.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Attaches a cost-attribution sink to every shard's protocol table
  /// (non-owning; nullptr detaches). Call before any concurrent access —
  /// construction-time wiring, like the change sink. The sink then mirrors
  /// every refresh charge, reconciling with TotalCosts() bit-for-bit when
  /// attached before the first charge.
  void SetAttribution(obs::AttributionTable* sink);

  /// Mean retained raw width across all sources (convergence observable).
  double MeanRawWidth() const;

  /// Number of sources hosted by each shard (partition balance).
  std::vector<size_t> ShardSourceCounts() const;

 private:
  void PumpLoop();

  // SubscriptionHost: the engine surface the subscription manager drives.
  Interval SubscriptionSnapshot(int id, int64_t now) const override;
  Interval SubscriptionPull(int id, int64_t now) override;
  bool SubscriptionOwns(int id) const override;
  void SubscriptionWatch(const std::vector<int>& ids, bool watched) override;

  /// Declared first: destroyed last, after every component whose metrics
  /// it references has unregistered by simply going away — snapshots are
  /// only taken while the engine is alive, so the non-owning registration
  /// never dangles.
  obs::MetricsRegistry metrics_;
  EngineConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t num_sources_ = 0;
  RuntimeCounters counters_;
  UpdateBus bus_;
  /// Rank kControl: Stop closes the bus (kQueue) and joins under it.
  Mutex pump_mu_{LockRank::kControl, "sharded.pump_mu"};
  std::thread pump_ APC_GUARDED_BY(pump_mu_);
  bool pump_running_ APC_GUARDED_BY(pump_mu_) = false;
  /// Declared last: destroyed first, so the notifier thread is joined
  /// while the shards it reads through are still alive.
  SubscriptionManager subscriptions_;
};

}  // namespace apc

#endif  // APC_RUNTIME_SHARDED_ENGINE_H_
