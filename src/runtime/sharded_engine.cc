#include "runtime/sharded_engine.h"

#include <cassert>

#include "obs/attribution.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "runtime/runtime_util.h"

namespace apc {

using runtime_internal::MixId;
using runtime_internal::ValidConstraint;

namespace {

// Release builds clamp rather than crash (no-exceptions contract): at
// least one shard, and no more shards than cache capacity so every
// shard's χ slice is non-empty (matching EngineConfig::IsValid). A named
// helper because the bus needs the FINAL shard count in the member-init
// list — one ring per shard, so ring index == shard index.
int ClampedShardCount(const EngineConfig& config) {
  size_t capacity = config.system.cache_capacity;
  int n = config.num_shards < 1 ? 1 : config.num_shards;
  if (capacity > 0 && static_cast<size_t>(n) > capacity) {
    n = static_cast<int>(capacity);
  }
  return n;
}

}  // namespace

ShardedEngine::ShardedEngine(const EngineConfig& config,
                             std::vector<std::unique_ptr<Source>> sources)
    : config_(config),
      bus_(config.bus_capacity < 1 ? 1 : config.bus_capacity,
           static_cast<size_t>(ClampedShardCount(config))),
      subscriptions_(this, config.subscription_hub_capacity) {
  assert(config.IsValid());
  size_t capacity = config.system.cache_capacity;
  int n = ClampedShardCount(config);
  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Partition χ so the slices sum exactly to the total capacity.
    size_t cap_lo = capacity * static_cast<size_t>(i) / static_cast<size_t>(n);
    size_t cap_hi =
        capacity * static_cast<size_t>(i + 1) / static_cast<size_t>(n);
    // Shard 0 inherits the engine seed unmangled so that a single-shard
    // engine draws the same push-loss Bernoulli stream as a CacheSystem
    // constructed with the same seed — the determinism guarantee then
    // holds even with failure injection enabled.
    shards_.push_back(std::make_unique<Shard>(
        i, config.system, cap_hi - cap_lo,
        config.seed ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(i)),
        &counters_, config.read_lock_mode));
  }
  for (auto& src : sources) {
    // Reject malformed sources at construction: null, an invalid policy
    // configuration (would produce NaN widths mid-run), or a duplicate id
    // (rejected by its shard). Count only accepted sources, so
    // num_sources() always equals the sum of ShardSourceCounts().
    if (src == nullptr || src->policy() == nullptr ||
        !src->policy()->IsValidConfig()) {
      counters_.rejected_sources.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (shards_[static_cast<size_t>(ShardOf(src->id()))]->AddSource(
            std::move(src))) {
      ++num_sources_;
    } else {
      counters_.rejected_sources.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Wire the write path into the subscription layer: every shard hands the
  // ids whose cached interval changed to the manager (enqueue-only, under
  // the shard lock), and the manager's notifier does the rest.
  for (auto& shard : shards_) shard->SetChangeSink(&subscriptions_);
  // Observability: one registry per engine, fed by the components' own
  // lock-free tallies (non-owning registration; all members of this).
  counters_.RegisterWith(&metrics_, "engine");
  bus_.RegisterMetrics(&metrics_, "bus");
  subscriptions_.RegisterMetrics(&metrics_);
  obs::TraceRecorder::RegisterMetrics(&metrics_);
}

void ShardedEngine::SetAttribution(obs::AttributionTable* sink) {
  for (auto& shard : shards_) shard->SetAttribution(sink);
}

ShardedEngine::~ShardedEngine() {
  StopUpdatePump();
  // Join the notifier before members die; shards stay alive until after.
  subscriptions_.Shutdown();
}

int ShardedEngine::ShardOf(int id) const {
  return static_cast<int>(MixId(static_cast<uint64_t>(id)) %
                          shards_.size());
}

void ShardedEngine::PopulateInitial(int64_t now) {
  for (auto& shard : shards_) shard->PopulateInitial(now);
}

void ShardedEngine::TickAll(int64_t now) {
  // Root span of the synchronous update path: one lockstep tick across
  // every shard and the refresh cascades it triggers.
  obs::TraceScope span(obs::SpanKind::kTick, /*id=*/-1, now);
  for (auto& shard : shards_) shard->TickAll(now);
}

Interval ShardedEngine::ExecuteQuery(const Query& query, int64_t now) {
  // Root span of an aggregate query (kFull only); the ReaderScope tags any
  // Cqr charge the selection's pulls trigger as query-initiated-by-a-query
  // in the attribution table.
  obs::TraceScope span(obs::SpanKind::kQuery, /*id=*/-1, now);
  obs::ReaderScope reader(obs::ReaderKind::kQuery, /*reader_id=*/-1);
  counters_.queries_executed.fetch_add(1, std::memory_order_relaxed);
  // No answer can meet a NaN or negative constraint: rejected before any
  // lock, where the selection would otherwise pull every item.
  if (!ValidConstraint(query.constraint)) {
    counters_.rejected_constraints.fetch_add(1, std::memory_order_relaxed);
    obs::FlightRecorder::NoteRejectedInput("invalid read constraint",
                                           /*id=*/-1, now);
    return Interval::Unbounded();
  }

  // Per-thread scratch reused across queries: the serving hot path does no
  // steady-state heap allocation (buffers keep their capacity). Safe to
  // share across engines on the same thread — only the first num_shards()
  // group slots are read, and each is cleared before use.
  static thread_local std::vector<QueryItem> items;
  static thread_local std::vector<std::vector<ShardSlot>> groups;
  const size_t nshards = shards_.size();
  if (groups.size() < nshards) groups.resize(nshards);

  // Snapshot the visible intervals, one (shared) lock acquisition per shard
  // touched. Ids no shard owns are malformed input: dropped from the item
  // set and counted, so the aggregate ranges over the known sources only.
  items.clear();
  for (int id : query.source_ids) {
    if (!shards_[static_cast<size_t>(ShardOf(id))]->Owns(id)) {
      counters_.rejected_query_ids.fetch_add(1, std::memory_order_relaxed);
      obs::FlightRecorder::NoteRejectedInput("unowned query id", id, now);
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
    if (!groups[s].empty()) shards_[s]->FillIntervals(groups[s], &items, now);
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
      for (size_t s = 0; s < nshards; ++s) {
        if (!groups[s].empty()) {
          shards_[s]->PullExactMany(groups[s], &items, now);
        }
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
        idx = shards_[static_cast<size_t>(ShardOf(id))]->PullCandidateRun(
            query.kind, query.constraint, idx, &items, now);
      }
      return query.kind == AggregateKind::kMax ? MaxInterval(items)
                                               : MinInterval(items);
    }
  }
  return Interval(0.0, 0.0);
}

Interval ShardedEngine::PointRead(int id, double max_width, int64_t now) {
  obs::ReaderScope reader(obs::ReaderKind::kQuery, /*reader_id=*/id);
  counters_.queries_executed.fetch_add(1, std::memory_order_relaxed);
  return shards_[static_cast<size_t>(ShardOf(id))]->PointRead(id, max_width,
                                                              now);
}

bool ShardedEngine::StartUpdatePump() {
  MutexLock lock(pump_mu_);
  if (pump_running_) return true;
  if (bus_.closed()) return false;  // a closed bus never reopens
  pump_running_ = true;
  pump_ = std::thread([this] { PumpLoop(); });
  return true;
}

void ShardedEngine::StopUpdatePump() {
  MutexLock lock(pump_mu_);
  if (!pump_running_) return;
  bus_.Close();
  pump_.join();
  pump_running_ = false;
}

void ShardedEngine::PumpLoop() {
  constexpr size_t kMaxBatch = 256;
  std::vector<UpdateEvent> batch;
  // The bus has one ring per shard and routes with the engine's own
  // partition function (tick-alls are broadcast into every ring), so a
  // drained burst belongs to exactly one shard: the whole burst applies
  // under ONE lock acquisition, with per-source event order intact.
  size_t ring = 0;
  size_t n = 0;
  while ((n = bus_.PopBatch(&batch, kMaxBatch, &ring)) > 0) {
    shards_[ring]->ApplyEvents(batch.data(), n);
  }
}

void ShardedEngine::BeginMeasurement(int64_t now) {
  for (auto& shard : shards_) shard->BeginMeasurement(now);
}

void ShardedEngine::EndMeasurement(int64_t now) {
  for (auto& shard : shards_) shard->EndMeasurement(now);
}

EngineCosts ShardedEngine::TotalCosts() const {
  EngineCosts total;
  for (const auto& shard : shards_) {
    CostTracker costs = shard->CostsSnapshot();
    total.value_refreshes += costs.value_refreshes();
    total.query_refreshes += costs.query_refreshes();
    total.total_cost += costs.total_cost();
    if (costs.measured_ticks() > total.measured_ticks) {
      total.measured_ticks = costs.measured_ticks();
    }
  }
  return total;
}

int64_t ShardedEngine::lost_pushes() const {
  int64_t total = 0;
  for (const auto& shard : shards_) total += shard->lost_pushes();
  return total;
}

double ShardedEngine::MeanRawWidth() const {
  double sum = 0.0;
  size_t count = 0;
  for (const auto& shard : shards_) {
    auto [shard_sum, shard_count] = shard->RawWidthSum();
    sum += shard_sum;
    count += shard_count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

std::vector<size_t> ShardedEngine::ShardSourceCounts() const {
  std::vector<size_t> counts;
  counts.reserve(shards_.size());
  for (const auto& shard : shards_) counts.push_back(shard->num_sources());
  return counts;
}

double ShardedEngine::ExactValue(int id) const {
  return shards_[static_cast<size_t>(ShardOf(id))]->SourceValue(id);
}

Interval ShardedEngine::SubscriptionSnapshot(int id, int64_t now) const {
  const Shard& shard = *shards_[static_cast<size_t>(ShardOf(id))];
  if (!shard.Owns(id)) return Interval::Unbounded();
  return shard.VisibleInterval(id, now);
}

Interval ShardedEngine::SubscriptionPull(int id, int64_t now) {
  Shard& shard = *shards_[static_cast<size_t>(ShardOf(id))];
  // One query-initiated refresh (Cqr) that re-offers the fresh interval;
  // the post-refresh GUARANTEED interval is the subscription answer
  // material — never the bare exact value, which would go stale silently.
  shard.PullExact(id, now);
  return shard.VisibleInterval(id, now);
}

bool ShardedEngine::SubscriptionOwns(int id) const {
  return shards_[static_cast<size_t>(ShardOf(id))]->Owns(id);
}

void ShardedEngine::SubscriptionWatch(const std::vector<int>& ids,
                                      bool watched) {
  for (int id : ids) {
    shards_[static_cast<size_t>(ShardOf(id))]->SetWatched(id, watched);
  }
}

}  // namespace apc
