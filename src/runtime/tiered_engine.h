#ifndef APC_RUNTIME_TIERED_ENGINE_H_
#define APC_RUNTIME_TIERED_ENGINE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cache/source.h"
#include "core/adaptive_policy.h"
#include "core/protocol_table.h"
#include "data/update_stream.h"
#include "obs/metrics.h"
#include "query/aggregate.h"
#include "runtime/shard.h"
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
/// LAN link. Reads arrive at edges, or at the regional tier itself.
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
  /// How snapshot reads acquire their shard (see ReadLockMode): optimistic
  /// seqlock validation by default; kShared is the bench baseline.
  ReadLockMode read_lock_mode = ReadLockMode::kSeqlock;
  /// Capacity of the subscription NotificationHub (must be positive).
  size_t subscription_hub_capacity = 1024;
  uint64_t seed = 0;

  /// At least one edge: an engine without edges is a ShardedEngine.
  bool IsValid() const;
};

/// The tallies of both facades are one struct.
using TieredCounters = RuntimeCounters;

/// The concurrent serving runtime: an origin (regional) tier of shards
/// over the sources, refreshing over the WAN link, plus `num_edges` edge
/// tiers of shards that derive from it over the LAN link. Every tier
/// drives the shared protocol core (core/protocol_table.h) — the same
/// table the sequential engines use, which is what makes the lockstep
/// parity with CacheSystem and HierarchicalSystem hold by construction.
/// With zero edges it is the flat runtime of the paper's single-cache
/// protocol; ShardedEngine is exactly that case.
///
/// Origin reads: PointRead and ExecuteQuery answer at the origin tier.
/// Snapshot reads validate an optimistic seqlock read and take no lock;
/// an aggregate query snapshots the visible intervals, computes the
/// paper's refresh selection globally (greedy widest-first for SUM/AVG,
/// iterative candidate elimination for MAX/MIN), then batches the exact
/// pulls per shard — MAX/MIN elimination runs inside the owning shard for
/// runs of consecutive candidates, one lock acquisition per run.
///
/// Edge reads: Read at an edge first validates an optimistic seqlock read
/// of the edge interval. Only when the edge interval is wider than the
/// constraint does it escalate: one LAN Cqr buys the regional interval
/// (and a derived refresh of the edge entry); if the regional interval is
/// also too wide, one WAN Cqr pulls the exact value from the source.
/// Per-hop charging is exactly HierarchicalSystem's.
///
/// Every origin pull — whichever read asked for it — recenters the
/// regional interval and fans derived refreshes out to the edges (all but
/// the reading edge, which receives its hull in the reply).
///
/// Pushes (value-initiated): when a source value escapes the regional
/// interval, the regional refresh is charged one WAN Cvr (even if failure
/// injection then drops the push), and every edge whose last-shipped
/// interval no longer contains the new regional interval receives a
/// derived refresh at one LAN Cvr each. Updates arrive through TickAll/
/// TickSource (the deterministic lockstep path) or the UpdateBus, whose
/// pushes apply on the pushing thread; both go through ApplyRun. The
/// fan-out happens at delivery, under the same exclusive regional hold as
/// the regional refresh. A whole-tick pass ships its fan-out edge by edge,
/// one edge shard acquisition per edge.
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
/// Malformed input is rejected, not fatal: update events and read ids
/// naming sources no shard owns are skipped and counted, reads with a NaN
/// or negative constraint are answered unbounded and counted, both before
/// any lock, and duplicate ids within one query are pulled (and charged)
/// once.
///
/// Determinism: driven in lockstep from one thread with lan_push_loss ==
/// wan_push_loss == 0 and default capacities, the engine reproduces the
/// sequential HierarchicalSystem's answers, intervals, raw widths, and
/// WAN/LAN charges exactly, for any shard and edge count (policy RNG
/// streams are per-entity); tests/tiered_engine_test.cc enforces it.
///
/// Standing queries attach at the REGIONAL tier — the push gateway of the
/// topology. A subscription answer is built from regional guaranteed
/// intervals; an escalation is one origin pull, charged and fanned out
/// exactly like an escalated read's source hop.
class TieredEngine {
 public:
  /// `streams[i]` drives source id i. Null streams are rejected and
  /// counted in RuntimeCounters::rejected_sources. `config` must satisfy
  /// TieredConfig::IsValid() — asserted in debug builds, sanitized
  /// (clamped into valid ranges, invalid costs and policies reset to the
  /// defaults) in release per the no-exceptions contract. Call
  /// PopulateInitial before serving.
  TieredEngine(const TieredConfig& config,
               std::vector<std::unique_ptr<UpdateStream>> streams);
  ~TieredEngine();

  TieredEngine(const TieredEngine&) = delete;
  TieredEngine& operator=(const TieredEngine&) = delete;

  int num_edges() const { return config_.num_edges; }
  int num_shards() const { return static_cast<int>(origin_.size()); }
  size_t num_sources() const { return num_sources_; }
  int ShardOf(int id) const;
  /// Safe without any lock: the origin tables' id→slot indices are
  /// immutable after construction.
  bool Owns(int id) const;

  /// Ships every source's initial regional approximation and every edge's
  /// initial derived hull, free of charge (warm-up absorbs the cost).
  void PopulateInitial(int64_t now);

  /// Synchronous lockstep update of every source (deterministic path):
  /// advances each stream one tick and performs the value-initiated
  /// refresh cascade (WAN push + LAN fan-out) the new values trigger. Each
  /// origin shard is one exclusive hold and three passes: advance every
  /// stream, run the origin refreshes slot by slot, then ship their
  /// derived pushes edge by edge. Every table sees the same offers in the
  /// same order as ticking source by source.
  void TickAll(int64_t now);

  /// Advances a single source; unknown ids are counted as rejected.
  void TickSource(int id, int64_t now);

  /// Executes a precision-bounded aggregate query at the origin tier at
  /// `now`; thread-safe. The result interval's width is at most the
  /// query's constraint. A NaN or negative constraint, which no answer can
  /// meet, yields the unbounded interval before any lock, charge-free,
  /// counted in rejected_constraints; ids no shard owns are dropped and
  /// counted in rejected_query_ids.
  Interval ExecuteQuery(const Query& query, int64_t now);

  /// Precision-bounded read of one source value at the origin tier:
  /// returns the cached interval when its width already satisfies
  /// `max_width`, otherwise takes the exclusive lock, re-checks — a racing
  /// refresh may have satisfied the bound in between, in which case
  /// nothing is charged — and pulls the exact value (one query-initiated
  /// refresh). An invalid `max_width` or an unowned id is rejected like
  /// ExecuteQuery's, before any lock. +inf is a valid bound.
  Interval PointRead(int id, double max_width, int64_t now);

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
  /// Live re-precisioning of a standing query without re-registration: a
  /// tightened bound re-evaluates immediately and pushes once it is met.
  bool Reprecision(int64_t sub_id, double delta, int64_t now) {
    return subscriptions_.Reprecision(sub_id, delta, now);
  }
  /// The hub subscriber threads drain.
  NotificationHub& notifications() { return subscriptions_.hub(); }
  SubscriptionManager& subscriptions() { return subscriptions_; }
  const SubscriptionManager& subscriptions() const { return subscriptions_; }

  // -- asynchronous update path --------------------------------------
  /// The update bus: a push is applied, fan-out included, on the pushing
  /// thread before it returns; its producers hold no lock
  /// (UpdateBus::PushBatch).
  UpdateBus& bus() { return bus_; }
  /// Starts nothing: pushes apply from construction on. Reports whether
  /// the bus is still open — false once it is closed, so the asynchronous
  /// path stays single-use per engine.
  bool StartUpdatePump() { return !bus_.closed(); }
  /// Closes the bus, so later pushes fail.
  void StopUpdatePump() { bus_.Close(); }

  // -- measurement and observability ---------------------------------
  void BeginMeasurement(int64_t now);
  void EndMeasurement(int64_t now);
  /// Aggregated WAN-link (origin tier) / LAN-link (all edge tiers) costs,
  /// summed over the per-shard CostTrackers.
  EngineCosts WanCosts() const;
  EngineCosts LanCosts() const;
  /// Combined WAN+LAN cost per tick over the measured period.
  double TotalCostRate() const;
  int64_t lost_wan_pushes() const;
  int64_t lost_lan_pushes() const;
  const RuntimeCounters& counters() const { return counters_; }

  /// The engine's metrics registry: every RuntimeCounters tally, the
  /// update bus, and the subscription layer ("subs.") registered at
  /// construction, under the facade's prefixes ("tiered." and
  /// "tiered.bus." here).
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Attaches a cost-attribution sink to every tier's protocol table
  /// (non-owning; nullptr detaches). Call before any concurrent access.
  /// WAN and LAN charges of one id land in the same per-source slot; the
  /// sink's totals reconcile with WanCosts() + LanCosts() combined when
  /// attached before the first charge.
  void SetAttribution(obs::AttributionTable* sink);

  /// The interval a regional-tier query sees for `id` at `now` — the
  /// subscription snapshot too: the seqlock read, settled under the shared
  /// lock when torn (always taken shared in kShared mode).
  Interval regional_interval(int id, int64_t now = 0) const;
  /// Observability accessors (consistent snapshots under the owning shard
  /// locks). Unknown ids/edges yield the unbounded interval / NaN.
  Interval edge_interval(int edge, int id, int64_t now = 0) const;
  double regional_raw_width(int id) const;
  double edge_raw_width(int edge, int id) const;
  double exact_value(int id) const;
  /// The origin tier's total cache capacity χ: the sum of its shards'
  /// slices.
  size_t regional_capacity() const;
  /// Mean retained raw width across all sources (convergence observable).
  double MeanRawWidth() const;
  /// Number of sources hosted by each origin shard (partition balance).
  std::vector<size_t> ShardSourceCounts() const;

  /// Checks A_edge ⊇ A_regional for every cached (edge, id) pair whose
  /// regional entry is cached, under the per-id regional shard locks — a
  /// true concurrent check, valid mid-run. Guaranteed to hold whenever
  /// lan_push_loss == 0; a lost LAN push legitimately leaves one edge
  /// stale until the next delivered refresh.
  bool DerivedInvariantHolds(int64_t now = 0) const;

 protected:
  /// A capacity that gives each shard one slot per id it owns.
  static constexpr size_t kOneSlotPerId = std::numeric_limits<size_t>::max();

  /// What a facade builds the engine from. The config is final: sanitized
  /// by the facade, `num_shards` >= 1 already clamped, `num_edges` >= 0,
  /// and a capacity of kOneSlotPerId sliced per owned id rather than
  /// evenly. `sources` register in input order; a null source, one whose
  /// policy configuration is invalid, or a duplicate id is rejected and
  /// counted in rejected_sources. `edge_policies[e][i]` is edge e's policy
  /// for `sources[i]`. The counters, the bus and the subscription layer
  /// register under `counter_prefix` / `bus_prefix`.
  struct Layout {
    TieredConfig config;
    std::vector<std::unique_ptr<Source>> sources;
    std::vector<std::vector<std::unique_ptr<PrecisionPolicy>>> edge_policies;
    std::string counter_prefix;
    std::string bus_prefix;
  };
  explicit TieredEngine(Layout layout);

 private:
  /// One partition of one edge tier: the derived cells (per-value raw
  /// width + last-shipped hull + LAN-bound policy — sender-side state
  /// conceptually owned by the regional cache) and the edge cache slice, a
  /// ProtocolTable charging LAN costs. Locked after the matching origin
  /// shard, never before.
  struct EdgeShard {
    EdgeShard(const ProtocolTable::Config& table_config, uint64_t seed)
        : table(table_config, seed) {}
    /// Rank kEdgeShard: only ever taken under the matching origin shard's
    /// lock (or alone, for edge-local snapshot reads).
    mutable SharedMutex mu{LockRank::kEdgeShard, "edge.mu"};
    std::vector<ProtocolCell> cells APC_GUARDED_BY(mu);  // by slot
    ProtocolTable table APC_GUARDED_BY(mu);
  };

  /// The public constructor's layout: the sanitized config, one adaptive
  /// source per non-null stream and the edge policies, their seeds drawn
  /// in HierarchicalSystem's order.
  static Layout TieredLayout(
      const TieredConfig& config,
      std::vector<std::unique_ptr<UpdateStream>> streams);

  /// Builds the derived approximation for an edge: DerivedHull
  /// (hierarchy/hierarchy.h) of the parent interval at the cell's
  /// effective width — literally the function HierarchicalSystem ships
  /// through, so the parity of the construction is structural.
  static CachedApprox DerivedApprox(const ProtocolCell& cell,
                                    const Interval& parent, int64_t now);

  /// Advances the source at `slot` of `s` (origin shard `shard`) and runs
  /// its value-initiated refresh cascade: the single-id path, fanning out
  /// through FanOutLocked. Requires `s.mu` held exclusively.
  void TickSourceLocked(Shard& s, int shard, uint32_t slot, int64_t now)
      APC_REQUIRES(s.mu);

  /// Ticks every source of `s` (origin shard `shard`) at `now` as three
  /// passes: advance every stream; run OfferValueLocked slot by slot,
  /// collecting each delivered refresh in `s.fan_out`; then ship those
  /// edge by edge through PushDerivedLocked, one exclusive acquisition of
  /// each edge shard. Requires `s.mu` held exclusively for the whole
  /// pass, so no reader observes an origin refresh before its fan-out.
  void TickAllLocked(Shard& s, int shard, int64_t now) APC_REQUIRES(s.mu);

  /// The origin value step of a source whose stream already holds its
  /// value at `now`: OnValueTick plus the refresh tally; a push lost in
  /// transit adds one to `*lost`, which the caller tallies once per pass
  /// through CountLostPushes (keeping the per-source step small enough to
  /// inline into the pass). Returns true when a refresh reached the origin
  /// cache — the case that needs a fan-out. Requires `s.mu` held
  /// exclusively.
  bool OfferValueLocked(Shard& s, Source& src, int64_t now, int64_t* lost)
      APC_REQUIRES(s.mu);
  /// Adds `lost` charged-but-lost origin pushes to both loss tallies.
  void CountLostPushes(int64_t lost);

  /// The one origin pull: a query-initiated refresh of the source at
  /// `slot` of `s` (origin shard `shard`) — one Cqr through
  /// ProtocolTable::Pull, which re-offers the fresh approximation —
  /// counted in query_refreshes, then fanned out to every edge except
  /// `skip_edge`. Returns the exact value. Requires `s.mu` held
  /// exclusively.
  double PullOriginLocked(Shard& s, int shard, uint32_t slot, int64_t now,
                          int skip_edge) APC_REQUIRES(s.mu);

  /// Ships the origin interval of the source at `slot` of `s` to every
  /// edge except `skip_edge` through PushDerivedLocked, taking each edge
  /// shard lock in turn (rank order origin -> edge). A no-op without
  /// edges. `s` (origin shard `shard`) must be held exclusively — that
  /// exclusivity is what freezes the (regional, edge) state of its ids.
  void FanOutLocked(Shard& s, int shard, uint32_t slot, int64_t now,
                    int skip_edge) APC_REQUIRES(s.mu);

  /// Ships a derived refresh of `id` (at `slot`) to edge shard `es` when
  /// the edge's last-shipped interval no longer contains `parent`,
  /// charging one LAN Cvr. Requires `es.mu` held exclusively, under the
  /// matching origin shard's exclusive hold.
  void PushDerivedLocked(EdgeShard& es, uint32_t slot, int id,
                         const Interval& parent, int64_t now)
      APC_REQUIRES(es.mu);

  /// Installs a derived hull of `parent` at (edge shard, id) as a refresh
  /// of kind `type`, charging the edge table per OfferDerived. `s` is the
  /// origin shard matching `es`; holding it (shared suffices) keeps the
  /// parent interval from being overwritten mid-install. Takes the edge
  /// shard lock exclusively.
  void InstallDerived(const Shard& s, EdgeShard& es, int id,
                      const Interval& parent, RefreshType type, int64_t now)
      APC_REQUIRES_SHARED(s.mu);

  /// Hands the origin table's watched dirty ids (or, when only unwatched
  /// ids changed, just its clock) to the subscription manager
  /// (enqueue-only). Requires `s.mu` held exclusively.
  void PublishChangesLocked(Shard& s, int64_t now) APC_REQUIRES(s.mu);

  /// The one update path, the bus's apply hook and the body of TickAll/
  /// TickSource: takes origin shard `shard`'s lock exclusively and applies
  /// `events[0, count)` under that one hold (ApplyBurstLocked).
  void ApplyRun(size_t shard, const UpdateEvent* events, size_t count);

  /// Applies a run of update events to origin shard `s` (index `shard`)
  /// event by event. A kAllSources event (this shard's share of a
  /// broadcast) is TickAllLocked, whose fan-out ships before the run's
  /// next event, so per-source event order holds; a specific id is
  /// TickSourceLocked; unknown ids are counted as rejected. Changes are
  /// published once, at the run-maximum time (a pushed batch need not be
  /// time-ordered). Requires `s.mu` held exclusively.
  void ApplyBurstLocked(Shard& s, int shard, const UpdateEvent* events,
                        size_t count) APC_REQUIRES(s.mu);

  /// Calls `fn(table)` on every tier's table, shard by shard, each under
  /// its shard lock held exclusively (origin -> edge).
  template <class Fn>
  void ForEachTable(Fn fn);

  /// Fills `items->at(slot.first).interval` with the visible interval of
  /// `slot.second` for every slot of `s`: no lock for entries whose seqlock
  /// read validates, one shared acquisition for any that tore (or for all,
  /// in kShared mode).
  void FillIntervals(const Shard& s, const std::vector<ShardSlot>& slots,
                     std::vector<QueryItem>* items, int64_t now) const;

  /// Runs the MAX/MIN candidate-elimination loop for as long as the next
  /// candidate is owned by origin shard `shard`, under ONE exclusive
  /// acquisition: pulls the candidate, stores the exact interval into
  /// every item with that source id (a duplicated id is charged once), and
  /// recomputes. `first_idx` is the candidate that routed the caller here.
  /// Returns the first candidate index owned by another shard, or -1 when
  /// the constraint is satisfied. `kind` must be kMax or kMin.
  int PullCandidateRun(int shard, AggregateKind kind, double constraint,
                       int first_idx, std::vector<QueryItem>* items,
                       int64_t now);

  /// The subscription manager's view of the engine: the origin tier. A
  /// member rather than a base of the engine, so a facade's destructor
  /// never rewrites a vtable pointer the notifier thread still calls
  /// through; the notifier is joined before this member dies.
  class Host : public SubscriptionHost {
   public:
    explicit Host(TieredEngine* engine) : engine_(engine) {}
    Interval SubscriptionSnapshot(int id, int64_t now) const override {
      return engine_->regional_interval(id, now);
    }
    Interval SubscriptionPull(int id, int64_t now) override;
    bool SubscriptionOwns(int id) const override { return engine_->Owns(id); }
    void SubscriptionWatch(const std::vector<int>& ids,
                           bool watched) override;

   private:
    TieredEngine* const engine_;
  };

  /// The seqlock optimistic read of `id` in either tier's shard — a
  /// sanctioned analysis carve-out: it touches the table's versioned slots
  /// with no lock by design (validation detects torn reads), which
  /// GUARDED_BY cannot type.
  template <class TierShard>
  static SnapshotRead TryVisibleNoLock(const TierShard& s, int id,
                                       int64_t now, Interval* out)
      APC_NO_THREAD_SAFETY_ANALYSIS {
    return s.table.TryVisibleInterval(id, now, out);
  }
  /// `id`'s slot index in `s`, or EntryStore::kNoSlot — the slot-index
  /// carve-out: reads the table's id→slot index, immutable after
  /// construction, with no lock.
  static uint32_t SlotOfNoLock(const Shard& s, int id)
      APC_NO_THREAD_SAFETY_ANALYSIS {
    return s.table.SlotOf(id);
  }

  /// Declared first: destroyed last, so the non-owning registrations of
  /// member-owned metrics never dangle while snapshots can be taken.
  obs::MetricsRegistry metrics_;
  const TieredConfig config_;
  std::vector<std::unique_ptr<Shard>> origin_;
  /// edges_[edge][shard]; edge shard s owns exactly the ids of origin
  /// shard s.
  std::vector<std::vector<std::unique_ptr<EdgeShard>>> edges_;
  size_t num_sources_ = 0;
  /// Mutable: the const snapshot reads tally their seqlock retries.
  mutable RuntimeCounters counters_;
  UpdateBus bus_;
  Host host_{this};
  /// Declared last: destroyed first, so the notifier thread is joined
  /// while the tiers it reads through are still alive.
  SubscriptionManager subscriptions_;
};

}  // namespace apc

#endif  // APC_RUNTIME_TIERED_ENGINE_H_
