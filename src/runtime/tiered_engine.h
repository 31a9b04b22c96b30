#ifndef APC_RUNTIME_TIERED_ENGINE_H_
#define APC_RUNTIME_TIERED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/source.h"
#include "core/adaptive_policy.h"
#include "core/protocol_table.h"
#include "data/update_stream.h"
#include "obs/metrics.h"
#include "runtime/shard.h"
#include "runtime/sharded_engine.h"
#include "runtime/update_bus.h"
#include "subscribe/subscription_manager.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace apc {

/// Configuration of the tiered (edge/regional) concurrent runtime — the
/// concurrent realization of the hierarchy extension (paper §5, the
/// sequential HierarchicalSystem): every value lives on one source, a
/// single regional tier refreshes over the expensive WAN link, and
/// `num_edges` edge tiers refresh from the regional tier over the cheap
/// LAN link. Reads arrive at edges.
struct TieredConfig {
  int num_edges = 4;
  /// Shards per tier. Ids are hash-partitioned once; edge shard s and
  /// regional shard s own the same ids, which is what makes the
  /// regional-before-edge lock order deadlock-free.
  int num_shards = 1;
  /// Costs on the source <-> regional link (WAN: expensive).
  RefreshCosts wan{4.0, 8.0};
  /// Costs on the regional <-> edge link (LAN: cheap).
  RefreshCosts lan{1.0, 2.0};
  /// Width adaptivity for the regional tier (policies live at the sources)
  /// and the edge tiers (policies live at the regional cache). cvr/cqr
  /// inside are overwritten from wan/lan, exactly like HierarchicalSystem.
  AdaptivePolicyParams regional_policy;
  AdaptivePolicyParams edge_policy;
  /// Cache capacity χ of the regional tier / of EACH edge tier,
  /// partitioned across shards. 0 means "one slot per source" (no
  /// eviction) — the HierarchicalSystem topology, and the parity setting.
  size_t regional_capacity = 0;
  size_t edge_capacity = 0;
  /// Failure injection per link: probability that a value-initiated push
  /// (source->regional over WAN, regional->edge derived push over LAN) is
  /// lost in transit after being charged. Escalated-read replies are never
  /// dropped. 0 disables.
  double wan_push_loss = 0.0;
  double lan_push_loss = 0.0;
  /// How edge-local snapshot reads acquire their shard (see ReadLockMode):
  /// optimistic seqlock validation by default; kShared/kExclusive are the
  /// bench baselines.
  ReadLockMode read_lock_mode = ReadLockMode::kSeqlock;
  /// Per-ring capacity of the update bus (backpressure bound for
  /// producers; the bus keeps one ring per regional shard). Must be
  /// positive.
  size_t bus_capacity = 1024;
  /// Capacity of the subscription NotificationHub (must be positive).
  size_t subscription_hub_capacity = 1024;
  uint64_t seed = 0;

  bool IsValid() const;
};

/// Engine-wide tallies in lock-free counters, observable without any shard
/// lock. The fields are obs::Counter — striped under APC_OBS=1, a single
/// plain atomic under APC_OBS=0 — so the .load()/.fetch_add() surface and
/// the exact-total guarantee are identical in both builds.
struct TieredCounters {
  obs::Counter reads;
  /// Reads served from the edge interval, free of charge.
  obs::Counter edge_hits;
  /// Escalated reads satisfied by the regional interval (one LAN Cqr).
  obs::Counter regional_hits;
  /// Escalations that went all the way to the source (one LAN Cqr plus one
  /// WAN Cqr); the answer is the exact value.
  obs::Counter source_pulls;
  /// Derived LAN pushes fanned out by regional refreshes (charged,
  /// delivered or not).
  obs::Counter derived_pushes;
  obs::Counter updates_applied;
  /// Reads naming an edge or id the engine does not host; update events
  /// naming an unknown id. Counted, never fatal.
  obs::Counter rejected_reads;
  obs::Counter rejected_updates;
  /// Reads whose constraint is NaN or negative: no interval can meet one,
  /// so they are answered with the unbounded interval, charge-free and
  /// before any lock, and counted.
  obs::Counter rejected_constraints;
  /// Streams rejected at construction (null).
  obs::Counter rejected_sources;

  /// Observability-only per-link loss tallies (no-ops under APC_OBS=0):
  /// charged-but-lost WAN pushes (source -> regional) and LAN derived
  /// pushes (regional -> edge). At quiescence they equal the exact
  /// lock-summed lost_wan_pushes()/lost_lan_pushes() accessors.
  obs::ObsCounter lost_wan_pushes;
  obs::ObsCounter lost_lan_pushes;

  /// Registers every field with `registry` under "<prefix>." names.
  /// Non-owning; this struct must outlive the registry's snapshots.
  void RegisterWith(obs::MetricsRegistry* registry,
                    const std::string& prefix) const;
};

/// The tiered concurrent serving runtime: N edge tiers (LAN costs) backed
/// by one regional tier (WAN costs), every tier a set of shards driving
/// the shared protocol core (core/protocol_table.h) — the same table the
/// sequential engines use, which is what makes the lockstep parity with
/// HierarchicalSystem hold by construction.
///
/// Reads (query-initiated): a read at an edge first validates an
/// optimistic seqlock read of the edge interval — the hot path takes no
/// lock at all. Only when the edge interval is wider than the constraint
/// does it escalate: one LAN Cqr buys the regional interval (and a derived
/// refresh of the edge entry); if the regional interval is also too wide,
/// one WAN Cqr pulls the exact value from the source, recenters the
/// regional interval, and fans derived refreshes out to the other edges.
/// Per-hop charging is exactly HierarchicalSystem's.
///
/// Pushes (value-initiated): when a source value escapes the regional
/// interval, the regional refresh is charged one WAN Cvr (even if failure
/// injection then drops the push), and every edge whose last-shipped
/// interval no longer contains the new regional interval receives a
/// derived refresh at one LAN Cvr each. Updates arrive synchronously via
/// TickAll/TickSource (the deterministic lockstep path) or asynchronously
/// through the UpdateBus drained by the pump thread; the fan-out happens
/// at delivery, under the same exclusive regional hold as the regional
/// refresh. A whole-tick pass ships its fan-out edge by edge, one edge
/// shard acquisition per edge.
///
/// Derived-precision invariant (paper §5): every edge interval is a hull
/// of the regional interval it was derived from, so A_edge ⊇ A_regional —
/// an edge can never be more precise than its parent. All mutations of the
/// (regional, edge) state of an id happen while holding the id's regional
/// shard lock (fan-out exclusively, read installs at least shared), with
/// the edge shard lock nested inside, so the invariant is observable at
/// any instant under the regional shard lock — not just at quiescence —
/// whenever LAN pushes are reliable (a charged-but-lost LAN push leaves
/// the affected edge stale by design; see DerivedInvariantHolds).
///
/// Determinism: a TieredEngine with any shard/edge count, driven in
/// lockstep from one thread with lan_push_loss == wan_push_loss == 0 and
/// default capacities, reproduces the sequential HierarchicalSystem's
/// answers, intervals, raw widths, and WAN/LAN charges exactly (policy
/// RNG streams are per-entity, so even the shard partition does not
/// perturb them). The 1-edge/1-shard case is the pinned acceptance bar;
/// tests/tiered_engine_test.cc enforces both.
///
/// Standing queries: subscriptions attach at the REGIONAL tier — the push
/// gateway of the topology. A subscription answer is built from regional
/// guaranteed intervals; an escalation costs one WAN Cqr (the
/// query-initiated regional refresh) and fans the recentered interval out
/// to the edges, exactly like a source pull on the read path, so the
/// subscription layer pays per-hop costs identical to an escalated read.
class TieredEngine : private SubscriptionHost {
 public:
  /// `streams[i]` drives source id i. Null streams are rejected and
  /// counted in TieredCounters::rejected_sources. `config` must satisfy
  /// TieredConfig::IsValid() — asserted in debug builds, sanitized
  /// (clamped into valid ranges) in release per the no-exceptions
  /// contract. Call PopulateInitial before serving.
  TieredEngine(const TieredConfig& config,
               std::vector<std::unique_ptr<UpdateStream>> streams);
  ~TieredEngine();

  TieredEngine(const TieredEngine&) = delete;
  TieredEngine& operator=(const TieredEngine&) = delete;

  int num_edges() const { return config_.num_edges; }
  int num_shards() const { return static_cast<int>(regional_.size()); }
  size_t num_sources() const { return num_sources_; }
  int ShardOf(int id) const;
  /// Safe without any lock: the regional tables' id→slot indices are
  /// immutable after construction.
  bool Owns(int id) const;

  /// Ships every source's initial regional approximation and every edge's
  /// initial derived hull, free of charge (warm-up absorbs the cost).
  void PopulateInitial(int64_t now);

  /// Synchronous lockstep update of every source (deterministic path):
  /// advances each stream one tick and performs the value-initiated
  /// refresh cascade (WAN push + LAN fan-out) the new values trigger. Each
  /// regional shard is one exclusive hold and three passes: advance every
  /// stream, run the regional refreshes slot by slot, then ship their
  /// derived pushes edge by edge. Every table sees the same offers in the
  /// same order as ticking source by source.
  void TickAll(int64_t now);

  /// Advances a single source; unknown ids are counted as rejected.
  void TickSource(int id, int64_t now);

  /// Precision-bounded read of `id` at `edge`: returns an interval of
  /// width <= `constraint` that contains the exact value (when pushes are
  /// reliable), escalating edge -> regional -> source as needed and
  /// charging per hop. An unknown edge or id yields the unbounded
  /// interval, charge-free, counted in rejected_reads; so does a NaN or
  /// negative `constraint`, which no interval can meet, counted in
  /// rejected_constraints. Both are rejected before any lock. +inf is a
  /// valid constraint. Thread-safe.
  Interval Read(int edge, int id, double constraint, int64_t now);

  // -- standing queries (the subscription subsystem) -------------------

  /// Registers a standing precision-bounded query over the regional tier;
  /// the initial answer is queued immediately at epoch 1. Returns the
  /// positive sub_id, or -1 when the query is empty, the bound invalid,
  /// or any id unowned. Thread-safe.
  int64_t Subscribe(const Query& query, double delta, int64_t now) {
    return subscriptions_.Subscribe(query, delta, now);
  }
  /// Drops a standing query. Returns false when unknown. Thread-safe.
  bool Unsubscribe(int64_t sub_id) {
    return subscriptions_.Unsubscribe(sub_id);
  }
  /// Live re-precisioning of a standing query without re-registration.
  bool Reprecision(int64_t sub_id, double delta, int64_t now) {
    return subscriptions_.Reprecision(sub_id, delta, now);
  }
  NotificationHub& notifications() { return subscriptions_.hub(); }
  SubscriptionManager& subscriptions() { return subscriptions_; }
  const SubscriptionManager& subscriptions() const { return subscriptions_; }

  // -- asynchronous update path --------------------------------------
  UpdateBus& bus() { return bus_; }
  /// Starts the pump thread draining the bus into the regional tier (the
  /// LAN fan-out happens at delivery). Returns false once the bus has
  /// been closed — the asynchronous path is single-use per engine.
  bool StartUpdatePump();
  /// Closes the bus, drains the backlog, and joins the pump.
  void StopUpdatePump();

  // -- measurement and observability ---------------------------------
  void BeginMeasurement(int64_t now);
  void EndMeasurement(int64_t now);
  /// Aggregated WAN-link (regional tier) / LAN-link (all edge tiers)
  /// costs, summed over the per-shard CostTrackers.
  EngineCosts WanCosts() const;
  EngineCosts LanCosts() const;
  /// Combined WAN+LAN cost per tick over the measured period.
  double TotalCostRate() const;
  int64_t lost_wan_pushes() const;
  int64_t lost_lan_pushes() const;
  const TieredCounters& counters() const { return counters_; }

  /// The engine's metrics registry: every TieredCounters tally (under
  /// "tiered."), the update bus ("tiered.bus."), and the subscription
  /// layer ("subs.") registered at construction. Under APC_OBS=0
  /// snapshots are empty.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Attaches a cost-attribution sink to every tier's protocol table
  /// (non-owning; nullptr detaches). Call before any concurrent access.
  /// WAN and LAN charges of one id land in the same per-source slot; the
  /// sink's totals reconcile with WanCosts() + LanCosts() combined when
  /// attached before the first charge.
  void SetAttribution(obs::AttributionTable* sink);

  /// Observability accessors (consistent snapshots under the owning shard
  /// locks). Unknown ids/edges yield the unbounded interval / NaN.
  Interval regional_interval(int id, int64_t now = 0) const;
  Interval edge_interval(int edge, int id, int64_t now = 0) const;
  double regional_raw_width(int id) const;
  double edge_raw_width(int edge, int id) const;
  double exact_value(int id) const;

  /// Checks A_edge ⊇ A_regional for every cached (edge, id) pair whose
  /// regional entry is cached, under the per-id regional shard locks — a
  /// true concurrent check, valid mid-run. Guaranteed to hold whenever
  /// lan_push_loss == 0; a lost LAN push legitimately leaves one edge
  /// stale until the next delivered refresh.
  bool DerivedInvariantHolds(int64_t now = 0) const;

 private:
  /// A delivered regional refresh of `id` (at `slot`) whose derived pushes
  /// have not shipped yet: every edge must come to contain `parent`.
  struct PendingFanOut {
    uint32_t slot;
    int id;
    Interval parent;
  };

  /// One partition of the regional tier: the sources hashed to it (stream
  /// + ProtocolCell with the WAN-bound policy) and their share of the
  /// regional cache, a shared-core ProtocolTable charging WAN costs.
  ///
  /// One id index serves the whole shard set: the table's id→slot index.
  /// Regional shard s and every edge shard s register the same ids in the
  /// same order, so an id's slot index addresses `sources`, every edge's
  /// `cells`, and the slots of all those tables alike.
  struct RegionalShard {
    RegionalShard(const ProtocolTable::Config& table_config, uint64_t seed)
        : table(table_config, seed) {}
    /// Rank kEngineShard: taken after the subscription manager's mutex,
    /// before any edge shard (regional -> edge, never the reverse).
    mutable SharedMutex mu{LockRank::kEngineShard, "regional.mu"};
    /// By value, by slot: a tick's stream-advance pass walks one
    /// contiguous array rather than chasing a heap pointer per source.
    std::vector<Source> sources APC_GUARDED_BY(mu);
    ProtocolTable table APC_GUARDED_BY(mu);
    std::vector<int> dirty_scratch APC_GUARDED_BY(mu);  // exclusive scratch
    /// The regional refreshes a tick pass delivered, in slot order, waiting
    /// to ship edge by edge (exclusive scratch). Reserved to one per source
    /// at construction — a pass delivers at most that — so the pump
    /// allocates nothing.
    std::vector<PendingFanOut> fan_out APC_GUARDED_BY(mu);
  };

  /// One partition of one edge tier: the derived cells (per-value raw
  /// width + last-shipped hull + LAN-bound policy — sender-side state
  /// conceptually owned by the regional cache) and the edge cache slice, a
  /// ProtocolTable charging LAN costs. Locked after the matching regional
  /// shard, never before.
  struct EdgeShard {
    EdgeShard(const ProtocolTable::Config& table_config, uint64_t seed)
        : table(table_config, seed) {}
    /// Rank kEdgeShard: only ever taken under the matching regional
    /// shard's lock (or alone, for edge-local snapshot reads).
    mutable SharedMutex mu{LockRank::kEdgeShard, "edge.mu"};
    std::vector<ProtocolCell> cells APC_GUARDED_BY(mu);  // by slot
    ProtocolTable table APC_GUARDED_BY(mu);
  };

  /// Builds the derived approximation for an edge: DerivedHull
  /// (hierarchy/hierarchy.h) of the parent interval at the cell's
  /// effective width — literally the function HierarchicalSystem ships
  /// through, so the parity of the construction is structural.
  static CachedApprox DerivedApprox(const ProtocolCell& cell,
                                    const Interval& parent, int64_t now);

  /// Advances one source and runs the value-initiated refresh cascade:
  /// the single-id path, fanning out through FanOutLocked. `rs` is the
  /// owning regional shard (== *regional_[shard]); its lock must be held
  /// exclusively.
  void TickSourceLocked(RegionalShard& rs, int shard, Source& src,
                        int64_t now) APC_REQUIRES(rs.mu);

  /// Ticks every source of `rs` (== *regional_[shard]) at `now` as three
  /// passes: advance every stream; run OfferValueLocked slot by slot,
  /// collecting each delivered refresh in `rs.fan_out`; then ship those
  /// edge by edge through PushDerivedLocked, one exclusive acquisition of
  /// each edge shard. Requires `rs.mu` held exclusively for the whole
  /// pass, so no reader observes a regional refresh before its fan-out.
  void TickAllLocked(RegionalShard& rs, int shard, int64_t now)
      APC_REQUIRES(rs.mu);

  /// The regional value step of a source whose stream already holds its
  /// value at `now`: OnValueTick plus the WAN loss tally. Returns true when
  /// a refresh reached the regional cache — the case that needs a fan-out.
  /// Requires `rs.mu` held exclusively.
  bool OfferValueLocked(RegionalShard& rs, Source& src, int64_t now)
      APC_REQUIRES(rs.mu);

  /// Single-id fan-out (an escalated read's source pull, SubscriptionPull,
  /// a single-id update event): PushDerivedLocked to every edge except
  /// `skip_edge`, taking each edge shard lock in turn (rank order
  /// regional -> edge). `rs` (== *regional_[shard]) must be held
  /// exclusively — that exclusivity is what freezes the (regional, edge)
  /// state of the shard's ids.
  void FanOutLocked(RegionalShard& rs, int shard, int id,
                    const Interval& parent, int64_t now, int skip_edge)
      APC_REQUIRES(rs.mu);

  /// Ships a derived refresh of `id` (at `slot`) to edge shard `es` when
  /// the edge's last-shipped interval no longer contains `parent`,
  /// charging one LAN Cvr. Requires `es.mu` held exclusively, under the
  /// matching regional shard's exclusive hold.
  void PushDerivedLocked(EdgeShard& es, uint32_t slot, int id,
                         const Interval& parent, int64_t now)
      APC_REQUIRES(es.mu);

  /// Installs a derived hull of `parent` at (edge shard, id) as a refresh
  /// of kind `type`, charging the edge table per OfferDerived. `rs` is the
  /// regional shard matching `es`; holding it (shared suffices) keeps the
  /// parent interval from being overwritten mid-install. Takes the edge
  /// shard lock exclusively.
  void InstallDerived(const RegionalShard& rs, EdgeShard& es, int id,
                      const Interval& parent, RefreshType type, int64_t now)
      APC_REQUIRES_SHARED(rs.mu);

  /// Applies one drained bus burst to regional shard `shard` under ONE
  /// exclusive lock acquisition — the pump's whole-burst entry point —
  /// event by event. A kAllSources event (this ring's copy of a broadcast)
  /// is TickAllLocked, whose fan-out ships before the burst's next event,
  /// so per-source event order holds; a specific id is TickSourceLocked;
  /// unknown ids are counted as rejected. Changes are published once, at
  /// the batch-maximum time (the bus batch need not be time-ordered),
  /// before the hold is released.
  void ApplyShardEvents(int shard, const UpdateEvent* events, size_t count);
  void PumpLoop();

  // SubscriptionHost: the regional tier is the subscription surface.
  Interval SubscriptionSnapshot(int id, int64_t now) const override;
  Interval SubscriptionPull(int id, int64_t now) override;
  bool SubscriptionOwns(int id) const override { return Owns(id); }
  void SubscriptionWatch(const std::vector<int>& ids, bool watched) override;

  /// Hands the regional table's watched dirty ids (or, when only unwatched
  /// ids changed, just its clock) to the subscription manager
  /// (enqueue-only). Requires the regional shard lock held exclusively.
  void PublishRegionalChangesLocked(RegionalShard& rs, int64_t now)
      APC_REQUIRES(rs.mu);

  /// The seqlock optimistic edge read — a sanctioned analysis carve-out
  /// (see Shard::TryVisibleIntervalNoLock): touches the edge table's
  /// versioned slots with no lock by design.
  static SnapshotRead TryEdgeVisibleNoLock(const EdgeShard& es, int id,
                                           int64_t now, Interval* out)
      APC_NO_THREAD_SAFETY_ANALYSIS;
  /// `id`'s slot index in `rs`, or EntryStore::kNoSlot — the slot-index
  /// carve-out (see Shard::SlotOfNoLock): reads the table's id→slot index,
  /// immutable after construction, with no lock.
  static uint32_t SlotOfNoLock(const RegionalShard& rs, int id)
      APC_NO_THREAD_SAFETY_ANALYSIS {
    return rs.table.SlotOf(id);
  }

  /// Declared first: destroyed last, so the non-owning registrations of
  /// member-owned metrics never dangle while snapshots can be taken.
  obs::MetricsRegistry metrics_;
  TieredConfig config_;
  std::vector<std::unique_ptr<RegionalShard>> regional_;
  /// edges_[edge][shard]; edge shard s owns exactly the ids of regional
  /// shard s.
  std::vector<std::vector<std::unique_ptr<EdgeShard>>> edges_;
  size_t num_sources_ = 0;
  TieredCounters counters_;
  UpdateBus bus_;
  /// Rank kControl: Stop closes the bus (kQueue) and joins under it.
  Mutex pump_mu_{LockRank::kControl, "tiered.pump_mu"};
  std::thread pump_ APC_GUARDED_BY(pump_mu_);
  bool pump_running_ APC_GUARDED_BY(pump_mu_) = false;
  /// Declared last: destroyed first, so the notifier thread is joined
  /// while the tiers it reads through are still alive.
  SubscriptionManager subscriptions_;
};

}  // namespace apc

#endif  // APC_RUNTIME_TIERED_ENGINE_H_
