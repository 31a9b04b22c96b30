#ifndef APC_RUNTIME_SHARD_H_
#define APC_RUNTIME_SHARD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cache/source.h"
#include "core/interval.h"
#include "core/protocol_table.h"
#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace apc {

/// Engine-wide tallies kept in lock-free counters so monitoring threads can
/// observe totals without taking any shard lock. The engine bumps these
/// alongside its (mutex-guarded) CostTrackers; after a quiescent point the
/// two views agree exactly. The fields are striped obs::Counters with the
/// std::atomic .load() / .fetch_add() surface.
struct RuntimeCounters {
  // -- the origin tier (every engine) -----------------------------------
  /// Value-initiated origin refreshes, charged whether or not delivered.
  obs::Counter value_refreshes;
  /// Query-initiated origin pulls, whatever asked for them: a point read,
  /// an aggregate query, an edge read's source hop, or a subscription.
  obs::Counter query_refreshes;
  /// Value-initiated origin refreshes lost in transit after their charge.
  obs::Counter lost_pushes;
  /// Origin-tier point reads and aggregate queries.
  obs::Counter queries_executed;
  /// One per source once its tick (and that tick's fan-out) is applied.
  obs::Counter updates_applied;
  /// Update events naming a source id no shard owns: skipped and counted
  /// rather than crashing the thread applying them.
  obs::Counter rejected_updates;
  /// Query/point-read source ids no shard owns: dropped from the request
  /// and counted (the malformed id contributes nothing to the result).
  obs::Counter rejected_query_ids;
  /// Reads and queries whose constraint is NaN or negative: no interval
  /// can meet one, so they are answered with the unbounded interval,
  /// charge-free and before any lock, and counted.
  obs::Counter rejected_constraints;
  /// Sources rejected at engine construction: null, duplicate id, or a
  /// precision policy whose configuration is invalid (see
  /// PrecisionPolicy::IsValidConfig).
  obs::Counter rejected_sources;
  /// Trace files rejected at load time: unreadable, empty, ragged, or a
  /// dimension header disagreeing with the rows present (see
  /// data/trace_io.h). Counted by the scenario harness, never fatal.
  obs::Counter rejected_traces;

  // -- the edge tiers (zero while an engine has none) -------------------
  /// Edge reads, rejected ones included.
  obs::Counter reads;
  /// Edge reads served from the edge interval, free of charge.
  obs::Counter edge_hits;
  /// Escalated edge reads satisfied by the regional interval (one LAN Cqr).
  obs::Counter regional_hits;
  /// Origin pulls made for an edge read (one LAN Cqr plus one WAN Cqr;
  /// the answer is the exact value) or for a subscription escalation.
  obs::Counter source_pulls;
  /// Derived LAN pushes fanned out by origin refreshes (charged,
  /// delivered or not).
  obs::Counter derived_pushes;
  /// Edge reads naming an edge or id the engine does not host.
  obs::Counter rejected_reads;

  /// Observability-only tallies: origin-tier seqlock reads that tore
  /// against a racing refresh (a torn edge read escalates uncounted), the
  /// shared-lock acquisitions taken to settle them (a torn PointRead
  /// re-checks under the exclusive lock instead), and the charged-but-lost
  /// pushes per link — source -> regional (WAN) and regional -> edge
  /// (LAN). At quiescence the loss tallies equal the exact lock-summed
  /// lost_wan_pushes()/lost_lan_pushes() accessors.
  obs::Counter seqlock_retries;
  obs::Counter shared_fallbacks;
  obs::Counter lost_wan_pushes;
  obs::Counter lost_lan_pushes;

  /// Registers every field with `registry` under "<prefix>." names (the
  /// seqlock pair under "read."). Non-owning; this struct must outlive the
  /// registry's snapshots.
  void RegisterWith(obs::MetricsRegistry* registry,
                    const std::string& prefix) const;
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

/// A slot to fill in (or pull for) a query's item vector: the index into the
/// caller's `items` array paired with the source id living on this shard.
using ShardSlot = std::pair<size_t, int>;

/// A delivered origin refresh of `id` (at `slot`) whose derived pushes have
/// not shipped yet: every edge must come to contain `parent`.
struct PendingFanOut {
  uint32_t slot;
  int id;
  Interval parent;
};

/// One partition of the origin tier: the sources hashed to it and their
/// share of the origin cache, a shared-core ProtocolTable charging the
/// origin link's costs. Plain data; every operation on it is the engine's
/// (runtime/tiered_engine.h), which names `mu` in its lock contracts.
///
/// The table's id→slot index is the shard's only id index: registration
/// hands out slots in order, so `sources[table.SlotOf(id)]` is the source
/// of `id`, and the matching edge shards register the same ids in the same
/// order, so one slot addresses every tier's state of an id.
struct Shard {
  Shard(const ProtocolTable::Config& table_config, uint64_t seed)
      : table(table_config, seed) {}

  /// Rank kEngineShard: taken after the subscription manager's mutex,
  /// before any edge shard (origin -> edge, never the reverse). Shard
  /// locks are taken one at a time, never two origin shards nested.
  mutable SharedMutex mu{LockRank::kEngineShard, "shard.mu"};
  /// By value, by slot: a tick's stream-advance pass walks one contiguous
  /// array rather than chasing a heap pointer per source.
  std::vector<Source> sources APC_GUARDED_BY(mu);
  ProtocolTable table APC_GUARDED_BY(mu);
  std::vector<int> dirty_scratch APC_GUARDED_BY(mu);  // exclusive scratch
  /// The origin refreshes a tick pass delivered, in slot order, waiting to
  /// ship edge by edge (exclusive scratch). Reserved to one per source at
  /// construction — a pass delivers at most that — so the update path
  /// allocates nothing.
  std::vector<PendingFanOut> fan_out APC_GUARDED_BY(mu);
};

}  // namespace apc

#endif  // APC_RUNTIME_SHARD_H_
