#include "runtime/tiered_engine.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_set>

#include "hierarchy/hierarchy.h"
#include "obs/attribution.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "runtime/partition.h"

namespace apc {

void RuntimeCounters::RegisterWith(obs::MetricsRegistry* registry,
                                   const std::string& prefix) const {
  registry->RegisterCounter(prefix + ".value_refreshes", &value_refreshes);
  registry->RegisterCounter(prefix + ".query_refreshes", &query_refreshes);
  registry->RegisterCounter(prefix + ".lost_pushes", &lost_pushes);
  registry->RegisterCounter(prefix + ".queries_executed", &queries_executed);
  registry->RegisterCounter(prefix + ".updates_applied", &updates_applied);
  registry->RegisterCounter(prefix + ".rejected_updates", &rejected_updates);
  registry->RegisterCounter(prefix + ".rejected_query_ids",
                            &rejected_query_ids);
  registry->RegisterCounter(prefix + ".rejected_constraints",
                            &rejected_constraints);
  registry->RegisterCounter(prefix + ".rejected_sources", &rejected_sources);
  registry->RegisterCounter(prefix + ".rejected_traces", &rejected_traces);
  registry->RegisterCounter(prefix + ".reads", &reads);
  registry->RegisterCounter(prefix + ".edge_hits", &edge_hits);
  registry->RegisterCounter(prefix + ".regional_hits", &regional_hits);
  registry->RegisterCounter(prefix + ".source_pulls", &source_pulls);
  registry->RegisterCounter(prefix + ".derived_pushes", &derived_pushes);
  registry->RegisterCounter(prefix + ".rejected_reads", &rejected_reads);
  registry->RegisterCounter(prefix + ".lost_wan_pushes", &lost_wan_pushes);
  registry->RegisterCounter(prefix + ".lost_lan_pushes", &lost_lan_pushes);
  registry->RegisterCounter("read.seqlock_retries", &seqlock_retries);
  registry->RegisterCounter("read.shared_fallbacks", &shared_fallbacks);
}

namespace {

/// True when `max_width` is a read constraint some interval can meet:
/// >= 0, with +inf valid (it never pulls). NaN compares false, so NaN and
/// negative bounds are invalid. Invalid constraints are rejected before
/// any lock instead of pulling on every read.
bool ValidConstraint(double max_width) { return max_width >= 0.0; }

/// Counts one rejected input in `counter` and notes it for crash dumps.
void Reject(obs::Counter& counter, const char* what, int id, int64_t now) {
  counter.fetch_add(1, std::memory_order_relaxed);
  obs::FlightRecorder::NoteRejectedInput(what, id, now);
}

/// The seqlock read path's observability taps: a counter bump plus a trace
/// event when recording.
void NoteSeqlockRetry(RuntimeCounters& counters, int id, int64_t now) {
  counters.seqlock_retries.fetch_add(1, std::memory_order_relaxed);
  obs::TraceRecorder::Record(obs::TraceEvent::kSeqlockRetry, id, now);
}

void NoteSharedFallback(RuntimeCounters& counters, int id, int64_t now,
                        int64_t torn_count) {
  counters.shared_fallbacks.fetch_add(1, std::memory_order_relaxed);
  obs::TraceRecorder::Record(obs::TraceEvent::kSharedFallback, id, now,
                             torn_count);
}

/// Release-mode counterpart of the IsValid() assert: every knob is forced
/// into its valid range, falling back to documented defaults where no
/// clamp makes sense (an invalid policy parameter set would otherwise
/// produce inf/NaN widths mid-run — theta = 2·cvr/0 alone is infinite).
TieredConfig Sanitize(TieredConfig config) {
  if (config.num_edges < 1) config.num_edges = 1;
  if (config.num_shards < 1) config.num_shards = 1;
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

void Accumulate(EngineCosts* total, const CostTracker& costs) {
  total->value_refreshes += costs.value_refreshes();
  total->query_refreshes += costs.query_refreshes();
  total->total_cost += costs.total_cost();
  if (costs.measured_ticks() > total->measured_ticks) {
    total->measured_ticks = costs.measured_ticks();
  }
}

}  // namespace

bool TieredConfig::IsValid() const {
  return num_edges > 0 && num_shards > 0 && subscription_hub_capacity > 0 &&
         wan.IsValid() && lan.IsValid() && wan_push_loss >= 0.0 &&
         wan_push_loss <= 1.0 && lan_push_loss >= 0.0 &&
         lan_push_loss <= 1.0 &&
         BindTierCosts(regional_policy, wan).IsValid() &&
         BindTierCosts(edge_policy, lan).IsValid();
}

TieredEngine::TieredEngine(const TieredConfig& config,
                           std::vector<std::unique_ptr<UpdateStream>> streams)
    : TieredEngine(TieredLayout(config, std::move(streams))) {
  assert(config.IsValid());
}

TieredEngine::Layout TieredEngine::TieredLayout(
    const TieredConfig& config,
    std::vector<std::unique_ptr<UpdateStream>> streams) {
  Layout layout;
  layout.config = Sanitize(config);
  TieredConfig& final_config = layout.config;
  const int n = static_cast<int>(streams.size());
  // Every shard must own at least one id, or its χ slice would be dead
  // weight: clamp rather than crash (no exceptions).
  if (n > 0 && final_config.num_shards > n) final_config.num_shards = n;
  // Capacity 0 = one slot per owned id: the no-eviction topology of
  // HierarchicalSystem, and the default.
  for (size_t* capacity :
       {&final_config.regional_capacity, &final_config.edge_capacity}) {
    if (*capacity == 0) *capacity = kOneSlotPerId;
  }

  const AdaptivePolicyParams regional_params =
      BindTierCosts(final_config.regional_policy, final_config.wan);
  const AdaptivePolicyParams edge_params =
      BindTierCosts(final_config.edge_policy, final_config.lan);
  // Policy seeds are drawn in HierarchicalSystem's exact order — regional
  // policies in id order, then edge policies edge-major — from one master
  // Rng, so a seed-matched sequential system owns identical policy RNG
  // streams entity for entity. The shard partition never touches this.
  Rng seeder(final_config.seed);
  layout.sources.reserve(streams.size());
  for (int id = 0; id < n; ++id) {
    const uint64_t seed = seeder.NextUint64();
    std::unique_ptr<UpdateStream>& stream = streams[static_cast<size_t>(id)];
    layout.sources.push_back(
        stream == nullptr
            ? nullptr
            : std::make_unique<Source>(
                  id, std::move(stream),
                  std::make_unique<AdaptivePolicy>(regional_params, seed)));
  }
  layout.edge_policies.resize(static_cast<size_t>(final_config.num_edges));
  for (auto& edge : layout.edge_policies) {
    edge.reserve(streams.size());
    for (int id = 0; id < n; ++id) {
      edge.push_back(
          std::make_unique<AdaptivePolicy>(edge_params, seeder.NextUint64()));
    }
  }
  layout.counter_prefix = "tiered";
  layout.bus_prefix = "tiered.bus";
  return layout;
}

TieredEngine::TieredEngine(Layout layout)
    : config_(layout.config),
      bus_(static_cast<size_t>(config_.num_shards),
           [this](size_t shard, const UpdateEvent* events, size_t n) {
             ApplyRun(shard, events, n);
           }),
      subscriptions_(&host_, config_.subscription_hub_capacity) {
  const size_t num_shards = static_cast<size_t>(config_.num_shards);
  // Reject malformed sources up front: null, an invalid policy
  // configuration (it would produce NaN widths mid-run), or an id already
  // registered (the first occurrence wins). `owned[s]` lists the input
  // positions of shard s's sources, in input order.
  std::vector<std::vector<size_t>> owned(num_shards);
  std::unordered_set<int> ids;
  for (size_t i = 0; i < layout.sources.size(); ++i) {
    const Source* src = layout.sources[i].get();
    if (src == nullptr || src->policy() == nullptr ||
        !src->policy()->IsValidConfig() || !ids.insert(src->id()).second) {
      counters_.rejected_sources.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    owned[runtime_internal::ShardIndex(src->id(), num_shards)].push_back(i);
  }

  // Each shard's χ slice; the slices of a total sum exactly to it.
  auto slice = [num_shards](size_t total, size_t s, size_t owned_ids) {
    if (total == kOneSlotPerId) return owned_ids;
    return total * (s + 1) / num_shards - total * s / num_shards;
  };
  origin_.reserve(num_shards);
  edges_.resize(static_cast<size_t>(config_.num_edges));
  for (size_t s = 0; s < num_shards; ++s) {
    const std::vector<size_t>& positions = owned[s];
    // Shard 0 inherits the engine seed unmangled, so a single-shard engine
    // draws the same push-loss Bernoulli stream as a CacheSystem
    // constructed with the same seed.
    auto shard = std::make_unique<Shard>(
        ProtocolTable::Config{config_.wan,
                              slice(config_.regional_capacity, s,
                                    positions.size()),
                              config_.wan_push_loss},
        config_.seed ^ (0x9e3779b97f4a7c15ULL * s));
    {
      // No thread can see the shards yet, but populating under their locks
      // keeps the guarded-member contract unconditional. Lock order origin
      // -> edge, as on every run-time path.
      WriterMutexLock lock(shard->mu);
      shard->sources.reserve(positions.size());
      shard->fan_out.reserve(positions.size());
      for (size_t i : positions) {
        // Registration hands out slots in order, so a source's slot index
        // is its position in `sources`.
        shard->table.Register(layout.sources[i]->id());
        shard->sources.push_back(std::move(*layout.sources[i]));
      }
      for (size_t e = 0; e < edges_.size(); ++e) {
        auto es = std::make_unique<EdgeShard>(
            ProtocolTable::Config{
                config_.lan, slice(config_.edge_capacity, s, positions.size()),
                config_.lan_push_loss},
            config_.seed ^ (0xbf58476d1ce4e5b9ULL * (1 + e * num_shards + s)));
        WriterMutexLock elock(es->mu);
        es->cells.reserve(positions.size());
        for (size_t k = 0; k < positions.size(); ++k) {
          // Same ids, same order as the origin shard: slot k everywhere.
          // The cell's constructor-time shipment is a placeholder;
          // PopulateInitial replaces it with the proper derived hull.
          const Source& src = shard->sources[k];
          es->table.Register(src.id());
          es->cells.emplace_back(
              std::move(layout.edge_policies[e][positions[k]]), src.value(),
              0);
        }
        edges_[e].push_back(std::move(es));
      }
    }
    num_sources_ += positions.size();
    origin_.push_back(std::move(shard));
  }

  // Observability: one registry per engine, fed by the components' own
  // lock-free tallies (non-owning registration; all members of this).
  counters_.RegisterWith(&metrics_, layout.counter_prefix);
  bus_.RegisterMetrics(&metrics_, layout.bus_prefix);
  subscriptions_.RegisterMetrics(&metrics_);
  obs::TraceRecorder::RegisterMetrics(&metrics_);
}

TieredEngine::~TieredEngine() {
  // Join the notifier before members die; the tiers stay alive until after.
  subscriptions_.Shutdown();
}

void TieredEngine::SetAttribution(obs::AttributionTable* sink) {
  ForEachTable([sink](ProtocolTable& table) { table.SetAttribution(sink); });
}

template <class Fn>
void TieredEngine::ForEachTable(Fn fn) {
  for (size_t shard = 0; shard < origin_.size(); ++shard) {
    Shard& s = *origin_[shard];
    WriterMutexLock lock(s.mu);
    fn(s.table);
    for (auto& edge : edges_) {
      EdgeShard& es = *edge[shard];
      WriterMutexLock elock(es.mu);
      fn(es.table);
    }
  }
}

int TieredEngine::ShardOf(int id) const {
  return static_cast<int>(runtime_internal::ShardIndex(id, origin_.size()));
}

bool TieredEngine::Owns(int id) const {
  return SlotOfNoLock(*origin_[static_cast<size_t>(ShardOf(id))], id) !=
         EntryStore::kNoSlot;
}

CachedApprox TieredEngine::DerivedApprox(const ProtocolCell& cell,
                                         const Interval& parent,
                                         int64_t now) {
  CachedApprox approx;
  approx.base = DerivedHull(cell.EffectiveWidth(), parent);
  approx.refresh_time = now;
  return approx;
}

// -- the write path --------------------------------------------------------

void TieredEngine::PublishChangesLocked(Shard& s, int64_t now) {
  if (!s.table.has_changes()) return;
  s.dirty_scratch.clear();
  s.table.DrainDirtyIds(&s.dirty_scratch);
  subscriptions_.OnIntervalChanges(s.dirty_scratch, now);
}

void TieredEngine::PopulateInitial(int64_t now) {
  for (size_t shard = 0; shard < origin_.size(); ++shard) {
    Shard& s = *origin_[shard];
    WriterMutexLock lock(s.mu);
    for (Source& src : s.sources) {
      s.table.OfferInitial(src.id(), src.cell(), src.value(), now);
    }
    PublishChangesLocked(s, now);
    for (auto& edge : edges_) {
      EdgeShard& es = *edge[shard];
      WriterMutexLock elock(es.mu);
      for (size_t slot = 0; slot < s.sources.size(); ++slot) {
        const Source& src = s.sources[slot];
        ProtocolCell& cell = es.cells[slot];
        CachedApprox approx = DerivedApprox(
            cell, src.cell().last_shipped().AtTime(now), now);
        cell.ShipDerived(approx);
        es.table.OfferDerivedInitial(src.id(), approx, cell.raw_width());
      }
    }
  }
}

// OfferValueLocked and PullOriginLocked drive the SAME ProtocolTable
// methods as CacheSystem::Tick/PullExact and HierarchicalSystem's regional
// tier: the lockstep determinism guarantees hold by construction rather
// than by hand-maintained imitation.
bool TieredEngine::OfferValueLocked(Shard& s, Source& src, int64_t now,
                                    int64_t* lost) {
  ValueTickOutcome outcome =
      s.table.OnValueTick(src.id(), src.cell(), src.value(), now);
  if (outcome.refreshed) {
    counters_.value_refreshes.fetch_add(1, std::memory_order_relaxed);
  }
  if (outcome.lost) ++*lost;
  // A lost push never reached the origin cache, so no edge can have fallen
  // out of containment — nothing to fan out (and charging a LAN push for
  // an undelivered origin interval would be wrong).
  return outcome.refreshed && !outcome.lost;
}

void TieredEngine::CountLostPushes(int64_t lost) {
  if (lost == 0) return;
  counters_.lost_pushes.fetch_add(lost, std::memory_order_relaxed);
  counters_.lost_wan_pushes.fetch_add(lost, std::memory_order_relaxed);
}

void TieredEngine::TickSourceLocked(Shard& s, int shard, uint32_t slot,
                                    int64_t now) {
  Source& src = s.sources[slot];
  src.Tick();
  int64_t lost = 0;
  if (OfferValueLocked(s, src, now, &lost)) {
    FanOutLocked(s, shard, slot, now, /*skip_edge=*/-1);
  }
  CountLostPushes(lost);
  counters_.updates_applied.fetch_add(1, std::memory_order_relaxed);
}

void TieredEngine::TickAllLocked(Shard& s, int shard, int64_t now) {
  // Pass 1 advances every stream. No advance depends on another, so the
  // core overlaps their cache misses. A stream's next value depends only on
  // its own state and a value step reads only its own source, so the
  // tables still see exactly the offers of ticking source by source.
  for (Source& src : s.sources) src.Tick();
  s.fan_out.clear();
  int64_t lost = 0;
  for (uint32_t slot = 0; slot < s.sources.size(); ++slot) {
    Source& src = s.sources[slot];
    if (OfferValueLocked(s, src, now, &lost) && !edges_.empty()) {
      s.fan_out.push_back(
          {slot, src.id(), src.cell().last_shipped().AtTime(now)});
    }
  }
  CountLostPushes(lost);
  // Pass 3 ships the collected refreshes edge by edge, one exclusive
  // acquisition per edge shard. Each edge table is independent of the
  // origin table and of the other edges, so every table sees its offers
  // in the order a per-id FanOutLocked would give them.
  if (!s.fan_out.empty()) {
    obs::TraceScope span(obs::SpanKind::kFanOut, /*id=*/-1, now);
    for (auto& edge : edges_) {
      EdgeShard& es = *edge[static_cast<size_t>(shard)];
      WriterMutexLock lock(es.mu);
      for (const PendingFanOut& pending : s.fan_out) {
        PushDerivedLocked(es, pending.slot, pending.id, pending.parent, now);
      }
    }
  }
  counters_.updates_applied.fetch_add(static_cast<int64_t>(s.sources.size()),
                                      std::memory_order_relaxed);
}

double TieredEngine::PullOriginLocked(Shard& s, int shard, uint32_t slot,
                                      int64_t now, int skip_edge) {
  Source& src = s.sources[slot];
  double value = 0.0;
  {
    obs::TraceScope pull(obs::SpanKind::kSourcePull, src.id(), now);
    counters_.query_refreshes.fetch_add(1, std::memory_order_relaxed);
    value = s.table.Pull(src.id(), src.cell(), src.value(), now);
  }
  FanOutLocked(s, shard, slot, now, skip_edge);
  return value;
}

void TieredEngine::FanOutLocked(Shard& s, int shard, uint32_t slot,
                                int64_t now, int skip_edge) {
  if (edges_.empty()) return;
  const Source& src = s.sources[slot];
  obs::TraceScope span(obs::SpanKind::kFanOut, src.id(), now);
  const Interval parent = src.cell().last_shipped().AtTime(now);
  for (size_t e = 0; e < edges_.size(); ++e) {
    if (static_cast<int>(e) == skip_edge) continue;
    EdgeShard& es = *edges_[e][static_cast<size_t>(shard)];
    WriterMutexLock lock(es.mu);
    PushDerivedLocked(es, slot, src.id(), parent, now);
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

void TieredEngine::InstallDerived(const Shard& s, EdgeShard& es, int id,
                                  const Interval& parent, RefreshType type,
                                  int64_t now) {
  // The capability parameter: s.mu (shared) pins `parent`; its table's
  // slot index addresses the matching edge shard's cell.
  const uint32_t slot = s.table.SlotOf(id);
  WriterMutexLock lock(es.mu);
  ProtocolCell& cell = es.cells[slot];
  cell.AdvanceWidth(type, /*escaped_above=*/false, now);
  CachedApprox approx = DerivedApprox(cell, parent, now);
  cell.ShipDerived(approx);
  es.table.OfferDerived(id, approx, cell.raw_width(), type);
}

// The synchronous update path applies each shard's share of an update as
// a one-event run: the bus's path, minus the run splitter.
void TieredEngine::TickAll(int64_t now) {
  const UpdateEvent event{now, UpdateEvent::kAllSources};
  for (size_t shard = 0; shard < origin_.size(); ++shard) {
    ApplyRun(shard, &event, 1);
  }
}

void TieredEngine::TickSource(int id, int64_t now) {
  const UpdateEvent event{now, id};
  ApplyRun(static_cast<size_t>(ShardOf(id)), &event, 1);
}

void TieredEngine::ApplyRun(size_t shard, const UpdateEvent* events,
                            size_t count) {
  Shard& s = *origin_[shard];
  WriterMutexLock lock(s.mu);
  ApplyBurstLocked(s, static_cast<int>(shard), events, count);
}

void TieredEngine::ApplyBurstLocked(Shard& s, int shard,
                                    const UpdateEvent* events, size_t count) {
  // Root span of the update path: one run and every refresh cascade it
  // triggers.
  obs::TraceScope span(obs::SpanKind::kTick, /*id=*/-1,
                       count > 0 ? events[0].now : 0);
  // Run maximum, not the last event: a pushed batch need not be
  // time-ordered, and publishing a change at an earlier logical time than
  // the tick that produced it would let the notifier snapshot a stale
  // (narrower) interval.
  int64_t last_now = 0;
  for (size_t i = 0; i < count; ++i) {
    const UpdateEvent& e = events[i];
    last_now = std::max(last_now, e.now);
    if (e.source_id == UpdateEvent::kAllSources) {
      // This shard's share of a broadcast: tick every source it owns.
      TickAllLocked(s, shard, e.now);
      continue;
    }
    const uint32_t slot = s.table.SlotOf(e.source_id);
    if (slot == EntryStore::kNoSlot) {
      Reject(counters_.rejected_updates, "unowned update id", e.source_id,
             e.now);
      continue;
    }
    TickSourceLocked(s, shard, slot, e.now);
  }
  PublishChangesLocked(s, last_now);
}

// -- origin reads ----------------------------------------------------------

Interval TieredEngine::regional_interval(int id, int64_t now) const {
  const Shard& s = *origin_[static_cast<size_t>(ShardOf(id))];
  if (SlotOfNoLock(s, id) == EntryStore::kNoSlot) return Interval::Unbounded();
  if (config_.read_lock_mode == ReadLockMode::kSeqlock) {
    Interval out;
    if (TryVisibleNoLock(s, id, now, &out) != SnapshotRead::kTorn) return out;
    // Torn by a racing refresh: settle it under the shared lock.
    NoteSeqlockRetry(counters_, id, now);
    NoteSharedFallback(counters_, id, now, 1);
  }
  ReaderMutexLock lock(s.mu);
  return s.table.VisibleInterval(id, now);
}

void TieredEngine::FillIntervals(const Shard& s,
                                 const std::vector<ShardSlot>& slots,
                                 std::vector<QueryItem>* items,
                                 int64_t now) const {
  if (config_.read_lock_mode == ReadLockMode::kSeqlock) {
    // Optimistic pass: no lock at all for entries whose seqlock validates.
    // Torn entries (a refresh raced the copy) are collected and settled
    // under one shared acquisition — rare, so the hot path allocates
    // nothing and touches no lock word. The scratch is thread-local so the
    // steady-state read performs zero heap allocations (asserted by
    // tests/alloc_free_read_test.cc).
    static thread_local std::vector<size_t> torn;
    torn.clear();
    for (size_t i = 0; i < slots.size(); ++i) {
      const auto& [pos, id] = slots[i];
      Interval out;
      if (TryVisibleNoLock(s, id, now, &out) == SnapshotRead::kTorn) {
        NoteSeqlockRetry(counters_, id, now);
        torn.push_back(i);
      } else {
        (*items)[pos].interval = out;
      }
    }
    if (torn.empty()) return;
    NoteSharedFallback(counters_, /*id=*/-1, now,
                       static_cast<int64_t>(torn.size()));
    ReaderMutexLock lock(s.mu);
    for (size_t i : torn) {
      const auto& [pos, id] = slots[i];
      (*items)[pos].interval = s.table.VisibleInterval(id, now);
    }
    return;
  }
  ReaderMutexLock lock(s.mu);
  for (const auto& [pos, id] : slots) {
    (*items)[pos].interval = s.table.VisibleInterval(id, now);
  }
}

int TieredEngine::PullCandidateRun(int shard, AggregateKind kind,
                                   double constraint, int first_idx,
                                   std::vector<QueryItem>* items,
                                   int64_t now) {
  Shard& s = *origin_[static_cast<size_t>(shard)];
  WriterMutexLock lock(s.mu);
  int idx = first_idx;
  while (idx >= 0) {
    const int id = (*items)[static_cast<size_t>(idx)].source_id;
    const uint32_t slot = s.table.SlotOf(id);
    if (slot == EntryStore::kNoSlot) break;  // owned by another shard
    Interval exact =
        Interval::Exact(PullOriginLocked(s, shard, slot, now, -1));
    // One charge per distinct id: a duplicated id inside the query becomes
    // exact in every slot, so the elimination never re-selects it.
    for (auto& item : *items) {
      if (item.source_id == id) item.interval = exact;
    }
    idx = kind == AggregateKind::kMax
              ? NextMaxRefreshCandidate(*items, constraint)
              : NextMinRefreshCandidate(*items, constraint);
  }
  PublishChangesLocked(s, now);
  return idx;
}

Interval TieredEngine::ExecuteQuery(const Query& query, int64_t now) {
  // Root span of an aggregate query (kFull only); the ReaderScope tags any
  // Cqr charge the selection's pulls trigger as query-initiated-by-a-query
  // in the attribution table.
  obs::TraceScope span(obs::SpanKind::kQuery, /*id=*/-1, now);
  obs::ReaderScope reader(obs::ReaderKind::kQuery, /*reader_id=*/-1);
  counters_.queries_executed.fetch_add(1, std::memory_order_relaxed);
  // No answer can meet a NaN or negative constraint: rejected before any
  // lock, where the selection would otherwise pull every item.
  if (!ValidConstraint(query.constraint)) {
    Reject(counters_.rejected_constraints, "invalid read constraint",
           /*id=*/-1, now);
    return Interval::Unbounded();
  }

  // Per-thread scratch reused across queries: the serving hot path does no
  // steady-state heap allocation (buffers keep their capacity). Safe to
  // share across engines on the same thread — only the first num_shards()
  // group slots are read, and each is cleared before use.
  static thread_local std::vector<QueryItem> items;
  static thread_local std::vector<std::vector<ShardSlot>> groups;
  const size_t nshards = origin_.size();
  if (groups.size() < nshards) groups.resize(nshards);

  // Snapshot the visible intervals, shard by shard. Ids no shard owns are
  // malformed input: dropped from the item set and counted, so the
  // aggregate ranges over the known sources only.
  items.clear();
  for (int id : query.source_ids) {
    if (!Owns(id)) {
      Reject(counters_.rejected_query_ids, "unowned query id", id, now);
      continue;
    }
    QueryItem item;
    item.source_id = id;
    items.push_back(item);
  }
  for (size_t s = 0; s < nshards; ++s) groups[s].clear();
  for (size_t pos = 0; pos < items.size(); ++pos) {
    groups[static_cast<size_t>(ShardOf(items[pos].source_id))].push_back(
        {pos, items[pos].source_id});
  }
  for (size_t s = 0; s < nshards; ++s) {
    if (!groups[s].empty()) FillIntervals(*origin_[s], groups[s], &items, now);
  }

  switch (query.kind) {
    case AggregateKind::kSum:
    case AggregateKind::kAvg: {
      // One-shot global selection on the snapshot, then exact pulls batched
      // per shard (the groups scratch is reused for the pull slots). The
      // non-pulled items keep their snapshot intervals, so the result width
      // is exactly what the selection guaranteed even if other threads
      // refresh those values concurrently. A source id occurring more than
      // once is pulled — and charged — once: the first occurrence becomes
      // the pull slot and the exact interval is copied to its twins after
      // the batch.
      static thread_local std::vector<size_t> selection;
      if (query.kind == AggregateKind::kSum) {
        SumRefreshSelectionInto(items, query.constraint, &selection);
      } else {
        AvgRefreshSelectionInto(items, query.constraint, &selection);
      }
      for (size_t s = 0; s < nshards; ++s) groups[s].clear();
      for (size_t i = 0; i < selection.size(); ++i) {
        size_t idx = selection[i];
        int id = items[idx].source_id;
        bool duplicate = false;
        for (size_t j = 0; j < i && !duplicate; ++j) {
          duplicate = items[selection[j]].source_id == id;
        }
        if (!duplicate) {
          groups[static_cast<size_t>(ShardOf(id))].push_back({idx, id});
        }
      }
      for (size_t shard = 0; shard < nshards; ++shard) {
        if (groups[shard].empty()) continue;
        Shard& s = *origin_[shard];
        WriterMutexLock lock(s.mu);
        for (const auto& [pos, id] : groups[shard]) {
          items[pos].interval = Interval::Exact(PullOriginLocked(
              s, static_cast<int>(shard), s.table.SlotOf(id), now, -1));
        }
        PublishChangesLocked(s, now);
      }
      // Propagate each pulled exact value to every occurrence of its id.
      for (size_t s = 0; s < nshards; ++s) {
        for (const auto& [pos, id] : groups[s]) {
          for (auto& item : items) {
            if (item.source_id == id) item.interval = items[pos].interval;
          }
        }
      }
      return query.kind == AggregateKind::kSum ? SumInterval(items)
                                               : AvgInterval(items);
    }
    case AggregateKind::kMax:
    case AggregateKind::kMin: {
      // Iterative candidate elimination; each pull either tightens the
      // result's determining bound or eliminates candidates, so the loop
      // terminates (every pull makes one item exact). The elimination runs
      // inside the owning shard for as long as consecutive candidates stay
      // there — one lock acquisition per shard per run of candidates, not
      // one per pull (a single-shard engine does the whole loop under one
      // lock). The pull sequence is identical to pulling candidates one at
      // a time, so the CacheSystem determinism guarantee is unaffected.
      int idx = query.kind == AggregateKind::kMax
                    ? NextMaxRefreshCandidate(items, query.constraint)
                    : NextMinRefreshCandidate(items, query.constraint);
      while (idx >= 0) {
        int id = items[static_cast<size_t>(idx)].source_id;
        idx = PullCandidateRun(ShardOf(id), query.kind, query.constraint, idx,
                               &items, now);
      }
      return query.kind == AggregateKind::kMax ? MaxInterval(items)
                                               : MinInterval(items);
    }
  }
  return Interval(0.0, 0.0);
}

Interval TieredEngine::PointRead(int id, double max_width, int64_t now) {
  obs::ReaderScope reader(obs::ReaderKind::kQuery, /*reader_id=*/id);
  counters_.queries_executed.fetch_add(1, std::memory_order_relaxed);
  // Root span of a point read's lifecycle (kFull only, like kReadStart):
  // retries, fallbacks, and the exact pull all land under it.
  obs::TraceScope span(obs::SpanKind::kPointRead, id, now);
  obs::TraceRecorder::Record(obs::TraceEvent::kReadStart, id, now,
                             static_cast<int64_t>(config_.read_lock_mode));
  // An invalid constraint or an unowned id is rejected before any lock: no
  // interval meets the one, the other has no slot, so either could only
  // pull or miss, and a stream of them must not serialize the shard
  // against the update path on the exclusive lock.
  if (!ValidConstraint(max_width)) {
    Reject(counters_.rejected_constraints, "invalid read constraint", id,
           now);
    return Interval::Unbounded();
  }
  const int shard = ShardOf(id);
  Shard& s = *origin_[static_cast<size_t>(shard)];
  const uint32_t slot = SlotOfNoLock(s, id);
  if (slot == EntryStore::kNoSlot) {
    Reject(counters_.rejected_query_ids, "unowned query id", id, now);
    return Interval::Unbounded();
  }
  if (config_.read_lock_mode == ReadLockMode::kSeqlock) {
    Interval visible;
    SnapshotRead read = TryVisibleNoLock(s, id, now, &visible);
    if (read == SnapshotRead::kHit && visible.Width() <= max_width) {
      return visible;
    }
    if (read == SnapshotRead::kTorn) NoteSeqlockRetry(counters_, id, now);
  } else {
    ReaderMutexLock lock(s.mu);
    const ProtocolEntry* entry = s.table.Find(id);
    if (entry != nullptr) {
      Interval visible = entry->approx.AtTime(now);
      if (visible.Width() <= max_width) return visible;
    }
  }
  WriterMutexLock lock(s.mu);
  // Check again under the exclusive lock: a refresh may have landed
  // between the two acquisitions, making the pull (and its Cqr charge)
  // needless.
  const ProtocolEntry* entry = s.table.Find(id);
  if (entry != nullptr) {
    Interval visible = entry->approx.AtTime(now);
    if (visible.Width() <= max_width) return visible;
  }
  Interval result =
      Interval::Exact(PullOriginLocked(s, shard, slot, now, /*skip_edge=*/-1));
  PublishChangesLocked(s, now);
  return result;
}

// -- edge reads ------------------------------------------------------------

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
    Reject(counters_.rejected_constraints, "invalid read constraint", id,
           now);
    return Interval::Unbounded();
  }
  const int shard = ShardOf(id);
  Shard& s = *origin_[static_cast<size_t>(shard)];
  const uint32_t slot = SlotOfNoLock(s, id);
  if (edge < 0 || edge >= config_.num_edges || slot == EntryStore::kNoSlot) {
    Reject(counters_.rejected_reads, "rejected tiered read", id, now);
    return Interval::Unbounded();
  }
  EdgeShard& es =
      *edges_[static_cast<size_t>(edge)][static_cast<size_t>(shard)];

  // Edge-local fast path — the read the protocol optimizes for. In
  // seqlock mode this touches no lock word at all; a torn read simply
  // escalates into the locked path below, which re-checks.
  if (config_.read_lock_mode == ReadLockMode::kSeqlock) {
    Interval visible;
    if (TryVisibleNoLock(es, id, now, &visible) == SnapshotRead::kHit &&
        visible.Width() <= constraint) {
      counters_.edge_hits.fetch_add(1, std::memory_order_relaxed);
      return visible;
    }
  } else {
    ReaderMutexLock lock(es.mu);
    Interval visible = es.table.VisibleInterval(id, now);
    if (visible.Width() <= constraint) {
      counters_.edge_hits.fetch_add(1, std::memory_order_relaxed);
      return visible;
    }
  }

  // Escalation. Lock order is always origin shard before edge shard;
  // holding the origin lock (shared here) excludes fan-outs, so the
  // regional interval read below cannot be overwritten between the read
  // and the derived install — that is what keeps A_edge ⊇ A_regional.
  obs::TraceScope regional_hop(obs::SpanKind::kEscalateRegional, id, now);
  obs::TraceRecorder::Record(obs::TraceEvent::kEscalateRegional, id, now,
                             edge);
  {
    ReaderMutexLock rlock(s.mu);
    {
      // Re-check the edge under its lock: a refresh (or a neighbor's
      // escalation) may have narrowed it since the optimistic miss, in
      // which case nothing is charged.
      ReaderMutexLock elock(es.mu);
      Interval visible = es.table.VisibleInterval(id, now);
      if (visible.Width() <= constraint) {
        counters_.edge_hits.fetch_add(1, std::memory_order_relaxed);
        return visible;
      }
    }
    Interval regional = s.table.VisibleInterval(id, now);
    if (regional.Width() <= constraint) {
      // One LAN Cqr (charged by the derived install) buys the regional
      // interval; the edge receives its derived hull in the reply.
      InstallDerived(s, es, id, regional, RefreshType::kQueryInitiated, now);
      counters_.regional_hits.fetch_add(1, std::memory_order_relaxed);
      return regional;
    }
  }

  // The regional interval is too wide as well: take the origin lock
  // exclusively, re-check (a racing pull may have satisfied the bound, in
  // which case the WAN charge is saved), and pull from the source.
  WriterMutexLock xlock(s.mu);
  Interval regional = s.table.VisibleInterval(id, now);
  Interval answer;
  if (regional.Width() <= constraint) {
    counters_.regional_hits.fetch_add(1, std::memory_order_relaxed);
    answer = regional;
  } else {
    obs::TraceScope source_hop(obs::SpanKind::kEscalateSource, id, now);
    obs::TraceRecorder::Record(obs::TraceEvent::kEscalateSource, id, now,
                               edge);
    // The recentered regional interval cascades to the OTHER edges as LAN
    // pushes; the reading edge gets its derived interval in the reply it
    // already paid for (HierarchicalSystem's skip_edge rule).
    answer = Interval::Exact(PullOriginLocked(s, shard, slot, now, edge));
    counters_.source_pulls.fetch_add(1, std::memory_order_relaxed);
    regional = s.sources[slot].cell().last_shipped().AtTime(now);
    PublishChangesLocked(s, now);
  }
  InstallDerived(s, es, id, regional, RefreshType::kQueryInitiated, now);
  return answer;
}

// -- the subscription host -------------------------------------------------

void TieredEngine::Host::SubscriptionWatch(const std::vector<int>& ids,
                                           bool watched) {
  // Subscriptions attach at the origin tier: only its tables watch ids
  // (edge tables never publish).
  for (int id : ids) {
    Shard& s = *engine_->origin_[static_cast<size_t>(engine_->ShardOf(id))];
    WriterMutexLock lock(s.mu);
    s.table.SetWatched(id, watched);
  }
}

Interval TieredEngine::Host::SubscriptionPull(int id, int64_t now) {
  TieredEngine& engine = *engine_;
  const int shard = engine.ShardOf(id);
  Shard& s = *engine.origin_[static_cast<size_t>(shard)];
  const uint32_t slot = SlotOfNoLock(s, id);
  if (slot == EntryStore::kNoSlot) return Interval::Unbounded();
  // One origin pull recenters the regional interval and fans it out to
  // every edge — a subscription escalation is charged exactly like an
  // escalated read's source hop. The answer is the post-refresh
  // GUARANTEED interval, never the bare exact value, which would go stale
  // silently.
  WriterMutexLock lock(s.mu);
  engine.PullOriginLocked(s, shard, slot, now, /*skip_edge=*/-1);
  engine.counters_.source_pulls.fetch_add(1, std::memory_order_relaxed);
  engine.PublishChangesLocked(s, now);
  return s.table.VisibleInterval(id, now);
}

// -- measurement and observability -----------------------------------------

void TieredEngine::BeginMeasurement(int64_t now) {
  ForEachTable(
      [now](ProtocolTable& table) { table.costs().BeginMeasurement(now); });
}

void TieredEngine::EndMeasurement(int64_t now) {
  ForEachTable(
      [now](ProtocolTable& table) { table.costs().EndMeasurement(now); });
}

EngineCosts TieredEngine::WanCosts() const {
  EngineCosts total;
  for (const auto& s : origin_) {
    ReaderMutexLock lock(s->mu);
    Accumulate(&total, s->table.costs());
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
  for (const auto& s : origin_) {
    ReaderMutexLock lock(s->mu);
    total += s->table.lost_pushes();
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
  const Shard& s = *origin_[static_cast<size_t>(ShardOf(id))];
  ReaderMutexLock lock(s.mu);
  return s.sources[s.table.SlotOf(id)].raw_width();
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
  const Shard& s = *origin_[static_cast<size_t>(ShardOf(id))];
  ReaderMutexLock lock(s.mu);
  return s.sources[s.table.SlotOf(id)].value();
}

size_t TieredEngine::regional_capacity() const {
  size_t total = 0;
  for (const auto& s : origin_) {
    ReaderMutexLock lock(s->mu);
    total += s->table.capacity();
  }
  return total;
}

double TieredEngine::MeanRawWidth() const {
  double sum = 0.0;
  size_t count = 0;
  for (const auto& s : origin_) {
    // Summed per shard, then across shards.
    double shard_sum = 0.0;
    ReaderMutexLock lock(s->mu);
    for (const Source& src : s->sources) shard_sum += src.raw_width();
    sum += shard_sum;
    count += s->sources.size();
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

std::vector<size_t> TieredEngine::ShardSourceCounts() const {
  std::vector<size_t> counts;
  counts.reserve(origin_.size());
  for (const auto& s : origin_) {
    ReaderMutexLock lock(s->mu);
    counts.push_back(s->sources.size());
  }
  return counts;
}

bool TieredEngine::DerivedInvariantHolds(int64_t now) const {
  for (size_t shard = 0; shard < origin_.size(); ++shard) {
    const Shard& s = *origin_[shard];
    // The origin shard lock freezes every mutation of this shard's
    // (regional, edge) state — fan-outs need it exclusively, installs at
    // least shared with the then-current parent — so the check is valid
    // at any instant, not just at quiescence.
    ReaderMutexLock rlock(s.mu);
    for (const Source& src : s.sources) {
      const int id = src.id();
      const ProtocolEntry* regional = s.table.Find(id);
      if (regional == nullptr) continue;  // evicted: nothing to compare
      Interval parent = regional->approx.AtTime(now);
      for (const auto& edge : edges_) {
        const EdgeShard& es = *edge[shard];
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
