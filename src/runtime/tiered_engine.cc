#include "runtime/tiered_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "hierarchy/hierarchy.h"
#include "obs/attribution.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "runtime/runtime_util.h"

namespace apc {

using runtime_internal::MixId;
using runtime_internal::ReadLock;
using runtime_internal::ValidConstraint;

void TieredCounters::RegisterWith(obs::MetricsRegistry* registry,
                                  const std::string& prefix) const {
  registry->RegisterCounter(prefix + ".reads", &reads);
  registry->RegisterCounter(prefix + ".edge_hits", &edge_hits);
  registry->RegisterCounter(prefix + ".regional_hits", &regional_hits);
  registry->RegisterCounter(prefix + ".source_pulls", &source_pulls);
  registry->RegisterCounter(prefix + ".derived_pushes", &derived_pushes);
  registry->RegisterCounter(prefix + ".updates_applied", &updates_applied);
  registry->RegisterCounter(prefix + ".rejected_reads", &rejected_reads);
  registry->RegisterCounter(prefix + ".rejected_updates", &rejected_updates);
  registry->RegisterCounter(prefix + ".rejected_constraints",
                            &rejected_constraints);
  registry->RegisterCounter(prefix + ".rejected_sources", &rejected_sources);
  registry->RegisterCounter(prefix + ".lost_wan_pushes", &lost_wan_pushes);
  registry->RegisterCounter(prefix + ".lost_lan_pushes", &lost_lan_pushes);
}

namespace {

/// Release-mode counterpart of the IsValid() assert: every knob is forced
/// into its valid range, falling back to documented defaults where no
/// clamp makes sense (an invalid policy parameter set would otherwise
/// produce inf/NaN widths mid-run — theta = 2·cvr/0 alone is infinite).
TieredConfig Sanitize(TieredConfig config) {
  if (config.num_edges < 1) config.num_edges = 1;
  if (config.num_shards < 1) config.num_shards = 1;
  if (config.bus_capacity < 1) config.bus_capacity = 1;
  if (config.subscription_hub_capacity < 1) {
    config.subscription_hub_capacity = 1;
  }
  if (!config.wan.IsValid()) config.wan = TieredConfig{}.wan;
  if (!config.lan.IsValid()) config.lan = TieredConfig{}.lan;
  config.wan_push_loss = std::clamp(config.wan_push_loss, 0.0, 1.0);
  config.lan_push_loss = std::clamp(config.lan_push_loss, 0.0, 1.0);
  if (!BindTierCosts(config.regional_policy, config.wan).IsValid()) {
    config.regional_policy = AdaptivePolicyParams{};
  }
  if (!BindTierCosts(config.edge_policy, config.lan).IsValid()) {
    config.edge_policy = AdaptivePolicyParams{};
  }
  return config;
}

/// Final shard count after the every-shard-owns-an-id clamp — needed in
/// the member-init list so the bus can be built with one ring per shard.
int EffectiveShards(int configured, size_t num_streams) {
  const int n = static_cast<int>(num_streams);
  return (n > 0 && configured > n) ? n : configured;
}

}  // namespace

bool TieredConfig::IsValid() const {
  return num_edges > 0 && num_shards > 0 && bus_capacity > 0 &&
         subscription_hub_capacity > 0 &&
         wan.IsValid() && lan.IsValid() && wan_push_loss >= 0.0 &&
         wan_push_loss <= 1.0 && lan_push_loss >= 0.0 &&
         lan_push_loss <= 1.0 &&
         BindTierCosts(regional_policy, wan).IsValid() &&
         BindTierCosts(edge_policy, lan).IsValid();
}

TieredEngine::TieredEngine(const TieredConfig& config,
                           std::vector<std::unique_ptr<UpdateStream>> streams)
    : config_(Sanitize(config)),
      bus_(config_.bus_capacity,
           static_cast<size_t>(
               EffectiveShards(config_.num_shards, streams.size()))),
      subscriptions_(this, config_.subscription_hub_capacity) {
  assert(config.IsValid());
  const int n = static_cast<int>(streams.size());
  // Every shard must own at least one id, or its χ slice would be dead
  // weight; clamp like ShardedEngine rather than crash (no exceptions).
  // EffectiveShards applies the same clamp for the bus's ring count above.
  config_.num_shards = EffectiveShards(config_.num_shards, streams.size());
  const int num_shards = config_.num_shards;
  const int num_edges = config_.num_edges;

  const AdaptivePolicyParams regional_params =
      BindTierCosts(config_.regional_policy, config_.wan);
  const AdaptivePolicyParams edge_params =
      BindTierCosts(config_.edge_policy, config_.lan);

  // Policy seeds are drawn in HierarchicalSystem's exact order — regional
  // policies in id order, then edge policies edge-major — from one master
  // Rng, so a seed-matched sequential system owns identical policy RNG
  // streams entity for entity. The shard partition never touches this.
  Rng seeder(config_.seed);
  std::vector<uint64_t> regional_seeds(static_cast<size_t>(n));
  for (auto& s : regional_seeds) s = seeder.NextUint64();
  std::vector<std::vector<uint64_t>> edge_seeds(
      static_cast<size_t>(num_edges),
      std::vector<uint64_t>(static_cast<size_t>(n)));
  for (auto& edge : edge_seeds) {
    for (auto& s : edge) s = seeder.NextUint64();
  }

  // Partition ids (ascending within each shard, so single-shard engines
  // iterate in id order like the sequential system).
  std::vector<std::vector<int>> shard_ids(static_cast<size_t>(num_shards));
  for (int id = 0; id < n; ++id) {
    if (streams[static_cast<size_t>(id)] == nullptr) continue;
    shard_ids[static_cast<size_t>(MixId(static_cast<uint64_t>(id)) %
                                  static_cast<uint64_t>(num_shards))]
        .push_back(id);
  }

  auto slice = [](size_t total, int i, int parts) {
    return total * static_cast<size_t>(i + 1) / static_cast<size_t>(parts) -
           total * static_cast<size_t>(i) / static_cast<size_t>(parts);
  };

  regional_.reserve(static_cast<size_t>(num_shards));
  edges_.resize(static_cast<size_t>(num_edges));
  for (int s = 0; s < num_shards; ++s) {
    const std::vector<int>& ids = shard_ids[static_cast<size_t>(s)];
    // capacity 0 = one slot per owned id: the no-eviction topology of
    // HierarchicalSystem, and the default.
    size_t regional_cap = config_.regional_capacity == 0
                              ? ids.size()
                              : slice(config_.regional_capacity, s, num_shards);
    size_t edge_cap = config_.edge_capacity == 0
                          ? ids.size()
                          : slice(config_.edge_capacity, s, num_shards);

    auto rs = std::make_unique<RegionalShard>(
        ProtocolTable::Config{config_.wan, regional_cap,
                              config_.wan_push_loss},
        config_.seed ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(s)));
    // No thread can see the shards yet, but populating under their locks
    // keeps the guarded-member contract unconditional (charged once, at
    // construction). Lock order regional -> edge, same as every run-time
    // path. `initial_values[i]` seeds the edge cells of ids[i].
    std::vector<double> initial_values;
    initial_values.reserve(ids.size());
    {
      WriterMutexLock rlock(rs->mu);
      rs->sources.reserve(ids.size());
      rs->fan_out.reserve(ids.size());
      for (int id : ids) {
        // Slots are handed out in registration order: the source's slot
        // index is its position in `sources` (ids are distinct).
        rs->table.Register(id);
        assert(rs->table.SlotOf(id) == rs->sources.size());
        rs->sources.emplace_back(
            id, std::move(streams[static_cast<size_t>(id)]),
            std::make_unique<AdaptivePolicy>(
                regional_params, regional_seeds[static_cast<size_t>(id)]));
        initial_values.push_back(rs->sources.back().value());
      }
    }
    for (int e = 0; e < num_edges; ++e) {
      auto es = std::make_unique<EdgeShard>(
          ProtocolTable::Config{config_.lan, edge_cap, config_.lan_push_loss},
          config_.seed ^
              (0xbf58476d1ce4e5b9ULL *
               static_cast<uint64_t>(1 + e * num_shards + s)));
      WriterMutexLock elock(es->mu);
      es->cells.reserve(ids.size());
      for (size_t i = 0; i < ids.size(); ++i) {
        int id = ids[i];
        // Same ids, same order as the regional shard: slot i everywhere.
        es->table.Register(id);
        assert(es->table.SlotOf(id) == i);
        // The cell's constructor-time shipment is a placeholder;
        // PopulateInitial replaces it with the proper derived hull.
        es->cells.emplace_back(
            std::make_unique<AdaptivePolicy>(
                edge_params,
                edge_seeds[static_cast<size_t>(e)][static_cast<size_t>(id)]),
            initial_values[i], 0);
      }
      edges_[static_cast<size_t>(e)].push_back(std::move(es));
    }
    num_sources_ += ids.size();
    regional_.push_back(std::move(rs));
  }

  int64_t rejected = n - static_cast<int64_t>(num_sources_);
  if (rejected > 0) {
    counters_.rejected_sources.fetch_add(rejected, std::memory_order_relaxed);
  }
  // Observability: one registry per engine, fed by the components' own
  // lock-free tallies (non-owning registration; all members of this).
  counters_.RegisterWith(&metrics_, "tiered");
  bus_.RegisterMetrics(&metrics_, "tiered.bus");
  subscriptions_.RegisterMetrics(&metrics_);
  obs::TraceRecorder::RegisterMetrics(&metrics_);
}

void TieredEngine::SetAttribution(obs::AttributionTable* sink) {
  for (auto& rs : regional_) {
    WriterMutexLock lock(rs->mu);
    rs->table.SetAttribution(sink);
  }
  for (auto& edge : edges_) {
    for (auto& es : edge) {
      WriterMutexLock lock(es->mu);
      es->table.SetAttribution(sink);
    }
  }
}

TieredEngine::~TieredEngine() {
  StopUpdatePump();
  // Join the notifier before members die; the tiers stay alive until after.
  subscriptions_.Shutdown();
}

void TieredEngine::SubscriptionWatch(const std::vector<int>& ids,
                                     bool watched) {
  // Subscriptions attach at the regional tier: only its tables watch ids
  // (edge tables never publish).
  for (int id : ids) {
    RegionalShard& rs = *regional_[static_cast<size_t>(ShardOf(id))];
    WriterMutexLock lock(rs.mu);
    rs.table.SetWatched(id, watched);
  }
}

void TieredEngine::PublishRegionalChangesLocked(RegionalShard& rs,
                                                int64_t now) {
  if (!rs.table.has_changes()) return;
  rs.dirty_scratch.clear();
  rs.table.DrainDirtyIds(&rs.dirty_scratch);
  subscriptions_.OnIntervalChanges(rs.dirty_scratch, now);
}

int TieredEngine::ShardOf(int id) const {
  return static_cast<int>(MixId(static_cast<uint64_t>(id)) %
                          regional_.size());
}

bool TieredEngine::Owns(int id) const {
  const RegionalShard& rs = *regional_[static_cast<size_t>(ShardOf(id))];
  return SlotOfNoLock(rs, id) != EntryStore::kNoSlot;
}

SnapshotRead TieredEngine::TryEdgeVisibleNoLock(const EdgeShard& es, int id,
                                                int64_t now, Interval* out) {
  return es.table.TryVisibleInterval(id, now, out);
}

CachedApprox TieredEngine::DerivedApprox(const ProtocolCell& cell,
                                         const Interval& parent,
                                         int64_t now) {
  CachedApprox approx;
  approx.base = DerivedHull(cell.EffectiveWidth(), parent);
  approx.refresh_time = now;
  return approx;
}

void TieredEngine::PopulateInitial(int64_t now) {
  for (size_t s = 0; s < regional_.size(); ++s) {
    RegionalShard& rs = *regional_[s];
    WriterMutexLock rlock(rs.mu);
    for (Source& src : rs.sources) {
      rs.table.OfferInitial(src.id(), src.cell(), src.value(), now);
    }
    PublishRegionalChangesLocked(rs, now);
    for (auto& edge : edges_) {
      EdgeShard& es = *edge[s];
      WriterMutexLock elock(es.mu);
      for (size_t slot = 0; slot < rs.sources.size(); ++slot) {
        const Source& src = rs.sources[slot];
        int id = src.id();
        Interval parent = src.cell().last_shipped().AtTime(now);
        ProtocolCell& cell = es.cells[slot];
        CachedApprox approx = DerivedApprox(cell, parent, now);
        cell.ShipDerived(approx);
        es.table.OfferDerivedInitial(id, approx, cell.raw_width());
      }
    }
  }
}

void TieredEngine::TickSourceLocked(RegionalShard& rs, int shard,
                                    Source& src, int64_t now) {
  src.Tick();
  if (OfferValueLocked(rs, src, now)) {
    FanOutLocked(rs, shard, src.id(), src.cell().last_shipped().AtTime(now),
                 now, /*skip_edge=*/-1);
  }
  counters_.updates_applied.fetch_add(1, std::memory_order_relaxed);
}

void TieredEngine::TickAllLocked(RegionalShard& rs, int shard, int64_t now) {
  // Pass 1 advances every stream. No advance depends on another, so the
  // core overlaps their cache misses. A stream's next value depends only on
  // its own state and a value step reads only its own source, so the
  // tables still see exactly the offers of ticking source by source.
  for (Source& src : rs.sources) src.Tick();
  rs.fan_out.clear();
  for (uint32_t slot = 0; slot < rs.sources.size(); ++slot) {
    Source& src = rs.sources[slot];
    if (OfferValueLocked(rs, src, now)) {
      rs.fan_out.push_back(
          {slot, src.id(), src.cell().last_shipped().AtTime(now)});
    }
  }
  // Pass 3 ships the collected refreshes edge by edge, one exclusive
  // acquisition per edge shard. Each edge table is independent of the
  // regional table and of the other edges, so every table sees its offers
  // in the order a per-id FanOutLocked would give them.
  if (!rs.fan_out.empty()) {
    obs::TraceScope span(obs::SpanKind::kFanOut, /*id=*/-1, now);
    for (auto& edge : edges_) {
      EdgeShard& es = *edge[static_cast<size_t>(shard)];
      WriterMutexLock lock(es.mu);
      for (const PendingFanOut& pending : rs.fan_out) {
        PushDerivedLocked(es, pending.slot, pending.id, pending.parent, now);
      }
    }
  }
  counters_.updates_applied.fetch_add(static_cast<int64_t>(rs.sources.size()),
                                      std::memory_order_relaxed);
}

bool TieredEngine::OfferValueLocked(RegionalShard& rs, Source& src,
                                    int64_t now) {
  ValueTickOutcome outcome =
      rs.table.OnValueTick(src.id(), src.cell(), src.value(), now);
  if (outcome.lost) {
    counters_.lost_wan_pushes.fetch_add(1, std::memory_order_relaxed);
  }
  // A lost WAN push never reached the regional cache, so no edge can have
  // fallen out of containment — nothing to fan out (and charging a LAN
  // push for an undelivered regional interval would be wrong).
  return outcome.refreshed && !outcome.lost;
}

void TieredEngine::FanOutLocked(RegionalShard& rs, int shard, int id,
                                const Interval& parent, int64_t now,
                                int skip_edge) {
  obs::TraceScope span(obs::SpanKind::kFanOut, id, now);
  // The capability parameter (exclusivity of rs.mu is the contract) also
  // holds the id index: one slot addresses the cell on every edge.
  const uint32_t slot = rs.table.SlotOf(id);
  for (int e = 0; e < config_.num_edges; ++e) {
    if (e == skip_edge) continue;
    EdgeShard& es = *edges_[static_cast<size_t>(e)][static_cast<size_t>(shard)];
    WriterMutexLock lock(es.mu);
    PushDerivedLocked(es, slot, id, parent, now);
  }
}

void TieredEngine::PushDerivedLocked(EdgeShard& es, uint32_t slot, int id,
                                     const Interval& parent, int64_t now) {
  ProtocolCell& cell = es.cells[slot];
  // Containment is tested against the sender-side record of what was
  // last shipped to this edge (the cell), not against the edge cache:
  // edges never report evictions, and a charged-but-lost LAN push must
  // not be resent until the parent escapes the interval the regional
  // cache BELIEVES the edge holds — the paper's source-side rule, one
  // level down.
  if (cell.last_shipped().AtTime(now).Contains(parent)) return;
  cell.AdvanceWidth(RefreshType::kValueInitiated, /*escaped_above=*/false,
                    now);
  CachedApprox approx = DerivedApprox(cell, parent, now);
  cell.ShipDerived(approx);
  ValueTickOutcome shipped = es.table.OfferDerived(
      id, approx, cell.raw_width(), RefreshType::kValueInitiated);
  if (shipped.lost) {
    counters_.lost_lan_pushes.fetch_add(1, std::memory_order_relaxed);
  }
  counters_.derived_pushes.fetch_add(1, std::memory_order_relaxed);
}

void TieredEngine::InstallDerived(const RegionalShard& rs, EdgeShard& es,
                                  int id, const Interval& parent,
                                  RefreshType type, int64_t now) {
  // The capability parameter: rs.mu (shared) pins `parent`; its table's
  // slot index addresses the matching edge shard's cell.
  const uint32_t slot = rs.table.SlotOf(id);
  WriterMutexLock lock(es.mu);
  ProtocolCell& cell = es.cells[slot];
  cell.AdvanceWidth(type, /*escaped_above=*/false, now);
  CachedApprox approx = DerivedApprox(cell, parent, now);
  cell.ShipDerived(approx);
  es.table.OfferDerived(id, approx, cell.raw_width(), type);
}

void TieredEngine::TickAll(int64_t now) {
  // Root span of the synchronous update path; each shard's fan-out span
  // nests under it.
  obs::TraceScope span(obs::SpanKind::kTick, /*id=*/-1, now);
  for (size_t s = 0; s < regional_.size(); ++s) {
    RegionalShard& rs = *regional_[s];
    WriterMutexLock lock(rs.mu);
    TickAllLocked(rs, static_cast<int>(s), now);
    PublishRegionalChangesLocked(rs, now);
  }
}

void TieredEngine::TickSource(int id, int64_t now) {
  int s = ShardOf(id);
  RegionalShard& rs = *regional_[static_cast<size_t>(s)];
  WriterMutexLock lock(rs.mu);
  const uint32_t slot = rs.table.SlotOf(id);
  if (slot == EntryStore::kNoSlot) {
    counters_.rejected_updates.fetch_add(1, std::memory_order_relaxed);
    obs::FlightRecorder::NoteRejectedInput("unowned update id", id, now);
    return;
  }
  TickSourceLocked(rs, s, rs.sources[slot], now);
  PublishRegionalChangesLocked(rs, now);
}

void TieredEngine::ApplyShardEvents(int shard, const UpdateEvent* events,
                                    size_t count) {
  // Root span of the asynchronous update path: one drained bus burst.
  obs::TraceScope span(obs::SpanKind::kTick, /*id=*/-1,
                       count > 0 ? events[0].now : 0);
  RegionalShard& rs = *regional_[static_cast<size_t>(shard)];
  WriterMutexLock lock(rs.mu);
  int64_t last_now = 0;
  for (size_t i = 0; i < count; ++i) {
    const UpdateEvent& e = events[i];
    last_now = std::max(last_now, e.now);
    if (e.source_id == UpdateEvent::kAllSources) {
      // This ring's copy of a broadcast: tick every source this shard owns.
      TickAllLocked(rs, shard, e.now);
      continue;
    }
    const uint32_t slot = rs.table.SlotOf(e.source_id);
    if (slot == EntryStore::kNoSlot) {
      counters_.rejected_updates.fetch_add(1, std::memory_order_relaxed);
      obs::FlightRecorder::NoteRejectedInput("unowned update id",
                                             e.source_id, e.now);
      continue;
    }
    TickSourceLocked(rs, shard, rs.sources[slot], e.now);
  }
  PublishRegionalChangesLocked(rs, last_now);
}

Interval TieredEngine::Read(int edge, int id, double constraint,
                            int64_t now) {
  // Root span of a tiered read (kFull only); escalation-hop spans nest
  // under it. The ReaderScope tags any Cqr this read's escalations charge
  // (LAN install, WAN pull) as query-initiated-by-a-query.
  obs::TraceScope span(obs::SpanKind::kTieredRead, id, now);
  obs::ReaderScope reader(obs::ReaderKind::kQuery, /*reader_id=*/id);
  counters_.reads.fetch_add(1, std::memory_order_relaxed);
  // No interval meets a NaN or negative constraint: rejected before any
  // lock, where the escalation would otherwise go to the source.
  if (!ValidConstraint(constraint)) {
    counters_.rejected_constraints.fetch_add(1, std::memory_order_relaxed);
    obs::FlightRecorder::NoteRejectedInput("invalid read constraint", id,
                                           now);
    return Interval::Unbounded();
  }
  const int s = ShardOf(id);
  RegionalShard& rs = *regional_[static_cast<size_t>(s)];
  const uint32_t slot = SlotOfNoLock(rs, id);
  if (edge < 0 || edge >= config_.num_edges || slot == EntryStore::kNoSlot) {
    counters_.rejected_reads.fetch_add(1, std::memory_order_relaxed);
    obs::FlightRecorder::NoteRejectedInput("rejected tiered read", id, now);
    return Interval::Unbounded();
  }
  EdgeShard& es = *edges_[static_cast<size_t>(edge)][static_cast<size_t>(s)];

  // Edge-local fast path — the read the protocol optimizes for. In
  // seqlock mode this touches no lock word at all; a torn read simply
  // escalates into the locked path below, which re-checks.
  if (config_.read_lock_mode == ReadLockMode::kSeqlock) {
    Interval visible;
    if (TryEdgeVisibleNoLock(es, id, now, &visible) == SnapshotRead::kHit &&
        visible.Width() <= constraint) {
      counters_.edge_hits.fetch_add(1, std::memory_order_relaxed);
      return visible;
    }
  } else {
    ReadLock lock(es.mu, config_.read_lock_mode);
    Interval visible = es.table.VisibleInterval(id, now);
    if (visible.Width() <= constraint) {
      counters_.edge_hits.fetch_add(1, std::memory_order_relaxed);
      return visible;
    }
  }

  // Escalation. Lock order is always regional shard before edge shard;
  // holding the regional lock (shared here) excludes fan-outs, so the
  // regional interval read below cannot be overwritten between the read
  // and the derived install — that is what keeps A_edge ⊇ A_regional.
  obs::TraceScope regional_hop(obs::SpanKind::kEscalateRegional, id, now);
  obs::TraceRecorder::Record(obs::TraceEvent::kEscalateRegional, id, now,
                             edge);
  {
    ReadLock rlock(rs.mu, config_.read_lock_mode);
    {
      // Re-check the edge under its lock: a refresh (or a neighbor's
      // escalation) may have narrowed it since the optimistic miss, in
      // which case nothing is charged.
      ReadLock elock(es.mu, config_.read_lock_mode);
      Interval visible = es.table.VisibleInterval(id, now);
      if (visible.Width() <= constraint) {
        counters_.edge_hits.fetch_add(1, std::memory_order_relaxed);
        return visible;
      }
    }
    Interval regional = rs.table.VisibleInterval(id, now);
    if (regional.Width() <= constraint) {
      // One LAN Cqr (charged by the derived install) buys the regional
      // interval; the edge receives its derived hull in the reply.
      InstallDerived(rs, es, id, regional, RefreshType::kQueryInitiated,
                     now);
      counters_.regional_hits.fetch_add(1, std::memory_order_relaxed);
      return regional;
    }
  }

  // The regional interval is too wide as well: take the regional lock
  // exclusively, re-check (a racing pull may have satisfied the bound, in
  // which case the WAN charge is saved), and pull from the source.
  WriterMutexLock xlock(rs.mu);
  Interval regional = rs.table.VisibleInterval(id, now);
  Interval answer;
  if (regional.Width() <= constraint) {
    counters_.regional_hits.fetch_add(1, std::memory_order_relaxed);
    answer = regional;
  } else {
    obs::TraceScope source_hop(obs::SpanKind::kEscalateSource, id, now);
    obs::TraceRecorder::Record(obs::TraceEvent::kEscalateSource, id, now,
                               edge);
    Source& src = rs.sources[slot];
    {
      obs::TraceScope pull(obs::SpanKind::kSourcePull, id, now);
      rs.table.Pull(src.id(), src.cell(), src.value(), now);
    }
    counters_.source_pulls.fetch_add(1, std::memory_order_relaxed);
    regional = src.cell().last_shipped().AtTime(now);
    // The recentered regional interval cascades to the OTHER edges as LAN
    // pushes; the reading edge gets its derived interval in the reply it
    // already paid for (HierarchicalSystem's skip_edge rule).
    FanOutLocked(rs, s, id, regional, now, /*skip_edge=*/edge);
    answer = Interval::Exact(src.value());
    PublishRegionalChangesLocked(rs, now);
  }
  InstallDerived(rs, es, id, regional, RefreshType::kQueryInitiated,
                     now);
  return answer;
}

Interval TieredEngine::SubscriptionSnapshot(int id, int64_t now) const {
  return regional_interval(id, now);
}

Interval TieredEngine::SubscriptionPull(int id, int64_t now) {
  if (!Owns(id)) return Interval::Unbounded();
  const int s = ShardOf(id);
  RegionalShard& rs = *regional_[static_cast<size_t>(s)];
  WriterMutexLock lock(rs.mu);
  // One WAN Cqr recenters the regional interval; the fan-out ships the
  // news to every edge that fell out of containment — a subscription
  // escalation is charged exactly like an escalated read's source pull.
  Source& src = rs.sources[rs.table.SlotOf(id)];
  {
    obs::TraceScope pull(obs::SpanKind::kSourcePull, id, now);
    rs.table.Pull(src.id(), src.cell(), src.value(), now);
  }
  counters_.source_pulls.fetch_add(1, std::memory_order_relaxed);
  Interval regional = src.cell().last_shipped().AtTime(now);
  FanOutLocked(rs, s, id, regional, now, /*skip_edge=*/-1);
  PublishRegionalChangesLocked(rs, now);
  return rs.table.VisibleInterval(id, now);
}

bool TieredEngine::StartUpdatePump() {
  MutexLock lock(pump_mu_);
  if (pump_running_) return true;
  if (bus_.closed()) return false;  // a closed bus never reopens
  pump_running_ = true;
  pump_ = std::thread([this] { PumpLoop(); });
  return true;
}

void TieredEngine::StopUpdatePump() {
  MutexLock lock(pump_mu_);
  if (!pump_running_) return;
  bus_.Close();
  pump_.join();
  pump_running_ = false;
}

void TieredEngine::PumpLoop() {
  // The bus keeps one ring per regional shard (RingOf == ShardOf), so a
  // drained burst belongs to exactly one shard and is applied under ONE
  // exclusive lock acquisition — no per-event regrouping, no flush
  // barriers: broadcasts are already fanned into every ring in per-source
  // FIFO order by the bus itself.
  constexpr size_t kMaxBatch = 256;
  std::vector<UpdateEvent> batch;
  size_t ring = 0;
  size_t n = 0;
  while ((n = bus_.PopBatch(&batch, kMaxBatch, &ring)) > 0) {
    ApplyShardEvents(static_cast<int>(ring), batch.data(), n);
  }
}

void TieredEngine::BeginMeasurement(int64_t now) {
  for (size_t s = 0; s < regional_.size(); ++s) {
    RegionalShard& rs = *regional_[s];
    WriterMutexLock lock(rs.mu);
    rs.table.costs().BeginMeasurement(now);
    for (auto& edge : edges_) {
      EdgeShard& es = *edge[s];
      WriterMutexLock elock(es.mu);
      es.table.costs().BeginMeasurement(now);
    }
  }
}

void TieredEngine::EndMeasurement(int64_t now) {
  for (size_t s = 0; s < regional_.size(); ++s) {
    RegionalShard& rs = *regional_[s];
    WriterMutexLock lock(rs.mu);
    rs.table.costs().EndMeasurement(now);
    for (auto& edge : edges_) {
      EdgeShard& es = *edge[s];
      WriterMutexLock elock(es.mu);
      es.table.costs().EndMeasurement(now);
    }
  }
}

namespace {

void Accumulate(EngineCosts* total, const CostTracker& costs) {
  total->value_refreshes += costs.value_refreshes();
  total->query_refreshes += costs.query_refreshes();
  total->total_cost += costs.total_cost();
  if (costs.measured_ticks() > total->measured_ticks) {
    total->measured_ticks = costs.measured_ticks();
  }
}

}  // namespace

EngineCosts TieredEngine::WanCosts() const {
  EngineCosts total;
  for (const auto& rs : regional_) {
    ReaderMutexLock lock(rs->mu);
    Accumulate(&total, rs->table.costs());
  }
  return total;
}

EngineCosts TieredEngine::LanCosts() const {
  EngineCosts total;
  for (const auto& edge : edges_) {
    for (const auto& es : edge) {
      ReaderMutexLock lock(es->mu);
      Accumulate(&total, es->table.costs());
    }
  }
  return total;
}

double TieredEngine::TotalCostRate() const {
  return WanCosts().CostRate() + LanCosts().CostRate();
}

int64_t TieredEngine::lost_wan_pushes() const {
  int64_t total = 0;
  for (const auto& rs : regional_) {
    ReaderMutexLock lock(rs->mu);
    total += rs->table.lost_pushes();
  }
  return total;
}

int64_t TieredEngine::lost_lan_pushes() const {
  int64_t total = 0;
  for (const auto& edge : edges_) {
    for (const auto& es : edge) {
      ReaderMutexLock lock(es->mu);
      total += es->table.lost_pushes();
    }
  }
  return total;
}

Interval TieredEngine::regional_interval(int id, int64_t now) const {
  if (!Owns(id)) return Interval::Unbounded();
  const RegionalShard& rs = *regional_[static_cast<size_t>(ShardOf(id))];
  ReaderMutexLock lock(rs.mu);
  return rs.table.VisibleInterval(id, now);
}

Interval TieredEngine::edge_interval(int edge, int id, int64_t now) const {
  if (edge < 0 || edge >= config_.num_edges || !Owns(id)) {
    return Interval::Unbounded();
  }
  const EdgeShard& es =
      *edges_[static_cast<size_t>(edge)][static_cast<size_t>(ShardOf(id))];
  ReaderMutexLock lock(es.mu);
  return es.table.VisibleInterval(id, now);
}

double TieredEngine::regional_raw_width(int id) const {
  if (!Owns(id)) return std::numeric_limits<double>::quiet_NaN();
  const RegionalShard& rs = *regional_[static_cast<size_t>(ShardOf(id))];
  ReaderMutexLock lock(rs.mu);
  return rs.sources[rs.table.SlotOf(id)].raw_width();
}

double TieredEngine::edge_raw_width(int edge, int id) const {
  if (edge < 0 || edge >= config_.num_edges || !Owns(id)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const EdgeShard& es =
      *edges_[static_cast<size_t>(edge)][static_cast<size_t>(ShardOf(id))];
  ReaderMutexLock lock(es.mu);
  return es.cells[es.table.SlotOf(id)].raw_width();
}

double TieredEngine::exact_value(int id) const {
  if (!Owns(id)) return std::numeric_limits<double>::quiet_NaN();
  const RegionalShard& rs = *regional_[static_cast<size_t>(ShardOf(id))];
  ReaderMutexLock lock(rs.mu);
  return rs.sources[rs.table.SlotOf(id)].value();
}

bool TieredEngine::DerivedInvariantHolds(int64_t now) const {
  for (size_t s = 0; s < regional_.size(); ++s) {
    const RegionalShard& rs = *regional_[s];
    // The regional shard lock freezes every mutation of this shard's
    // (regional, edge) state — fan-outs need it exclusively, installs at
    // least shared with the then-current parent — so the check is valid
    // at any instant, not just at quiescence.
    ReaderMutexLock rlock(rs.mu);
    for (const Source& src : rs.sources) {
      const int id = src.id();
      const ProtocolEntry* regional = rs.table.Find(id);
      if (regional == nullptr) continue;  // evicted: nothing to compare
      Interval parent = regional->approx.AtTime(now);
      for (const auto& edge : edges_) {
        const EdgeShard& es = *edge[s];
        ReaderMutexLock elock(es.mu);
        if (!es.table.VisibleInterval(id, now).Contains(parent)) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace apc
