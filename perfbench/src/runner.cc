#include "runner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "core/adaptive_policy.h"
#include "obs/metrics.h"
#include "runtime/sharded_engine.h"
#include "runtime/tiered_engine.h"
#include "runtime/workload_driver.h"

namespace perfbench {
namespace {

using apc::AggregateKind;
using apc::Interval;
using apc::Query;
using HistogramSnapshot = apc::obs::HistogramMetric::Snapshot;

/// Cumulative engine tallies, read at quiescent points; a round's per-layer
/// figures are the difference of the snapshots around the measured ticks.
struct Tallies {
  int64_t value_refreshes = 0;
  int64_t query_refreshes = 0;
  int64_t seqlock_retries = 0;
  int64_t shared_fallbacks = 0;
  int64_t edge_hits = 0;
  int64_t regional_hits = 0;
  int64_t source_pulls = 0;
  int64_t derived_pushes = 0;
  int64_t evaluations = 0;
  int64_t escalations = 0;
  int64_t suppressed = 0;
  HistogramSnapshot drain_batch;
};

HistogramSnapshot FindHistogram(const apc::obs::MetricsRegistry& registry,
                                const std::string& name) {
  for (auto& entry : registry.TakeSnapshot().histograms) {
    if (entry.name == name) return entry.data;
  }
  return HistogramSnapshot{};
}

/// Quantile of the samples recorded between two snapshots of one histogram.
double DiffQuantile(const HistogramSnapshot& end,
                    const HistogramSnapshot& begin, double q) {
  HistogramSnapshot diff = end;
  if (begin.counts.size() == end.counts.size()) {
    for (size_t i = 0; i < diff.counts.size(); ++i) {
      diff.counts[i] -= begin.counts[i];
    }
    diff.total -= begin.total;
  }
  return diff.Quantile(q);
}

template <class Engine>
void ReadSubscriptionTallies(const Engine& engine, const char* bus_prefix,
                             Tallies* out) {
  const apc::SubscriptionCounters& subs = engine.subscriptions().counters();
  out->evaluations = subs.evaluations.load();
  out->escalations = subs.escalations.load();
  out->suppressed = subs.suppressed.load();
  out->drain_batch = FindHistogram(
      engine.metrics(), std::string(bus_prefix) + ".drain_batch_size");
}

bool SameCost(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(a));
}

/// ShardedEngine under the benchmark: every source cached, seqlock reads,
/// the paper's default costs (Cvr 1, Cqr 2) and adaptive policy.
class ShardedTarget {
 public:
  ShardedTarget(const WorkloadSpec& spec, const Series& series, uint64_t seed) {
    apc::EngineConfig config;
    config.system.cache_capacity = static_cast<size_t>(spec.num_sources);
    config.num_shards = spec.num_shards;
    config.seed = seed;
    engine_ = std::make_unique<apc::ShardedEngine>(
        config, apc::BuildTraceSources(series.ToTrace(),
                                       apc::AdaptivePolicyParams{}, seed));
    costs_ = config.system.costs;
  }

  apc::ShardedEngine& engine() { return *engine_; }
  int64_t rejected_sources() const {
    return engine_->counters().rejected_sources.load();
  }
  int64_t Applied() const {
    return engine_->counters().updates_applied.load();
  }
  Interval Point(int /*edge*/, int id, double constraint, int64_t now) {
    return engine_->PointRead(id, constraint, now);
  }
  Interval Aggregate(const Query& query, int /*edge*/, int64_t now) {
    return engine_->ExecuteQuery(query, now);
  }
  /// Takes every shard lock once, so a refresh still running behind
  /// updates_applied has finished when this returns.
  void Flush() const { (void)engine_->TotalCosts(); }

  Tallies ReadTallies() const {
    Tallies t;
    const apc::RuntimeCounters& c = engine_->counters();
    t.value_refreshes = c.value_refreshes.load();
    t.query_refreshes = c.query_refreshes.load();
    t.seqlock_retries = c.seqlock_retries.load();
    t.shared_fallbacks = c.shared_fallbacks.load();
    ReadSubscriptionTallies(*engine_, "bus", &t);
    return t;
  }

  double MeanRawWidth() const { return engine_->MeanRawWidth(); }
  bool InvariantHolds(int64_t /*now*/) const { return true; }

  /// Ω over the measured ticks plus the core figures; returns whether
  /// TotalCosts() reconciles with the counters() deltas.
  bool Costs(const Tallies& begin, const Tallies& end, int64_t ticks,
             RoundResult* out) const {
    apc::EngineCosts c = engine_->TotalCosts();
    out->cost_per_tick = c.CostRate();
    double n = static_cast<double>(ticks);
    out->layer["core.value_refreshes_per_tick"] =
        static_cast<double>(c.value_refreshes) / n;
    out->layer["core.query_refreshes_per_tick"] =
        static_cast<double>(c.query_refreshes) / n;
    return c.measured_ticks == ticks &&
           c.value_refreshes == end.value_refreshes - begin.value_refreshes &&
           c.query_refreshes == end.query_refreshes - begin.query_refreshes &&
           SameCost(c.total_cost,
                    costs_.cvr * static_cast<double>(c.value_refreshes) +
                        costs_.cqr * static_cast<double>(c.query_refreshes));
  }

  static constexpr const char* kName = "sharded";

 private:
  std::unique_ptr<apc::ShardedEngine> engine_;
  apc::RefreshCosts costs_;
};

/// TieredEngine under the benchmark: default WAN/LAN costs, the regional
/// tier caching every id, each edge caching `edge_capacity` ids.
class TieredTarget {
 public:
  TieredTarget(const WorkloadSpec& spec, const Series& series, uint64_t seed) {
    config_.num_edges = spec.num_edges;
    config_.num_shards = spec.num_shards;
    config_.edge_capacity = static_cast<size_t>(spec.edge_capacity);
    config_.seed = seed;
    engine_ = std::make_unique<apc::TieredEngine>(
        config_, apc::BuildTraceStreams(series.ToTrace()));
  }

  apc::TieredEngine& engine() { return *engine_; }
  int64_t rejected_sources() const {
    return engine_->counters().rejected_sources.load();
  }
  int64_t Applied() const {
    return engine_->counters().updates_applied.load();
  }
  Interval Point(int edge, int id, double constraint, int64_t now) {
    return engine_->Read(edge, id, constraint, now);
  }

  /// The tiered engine has no aggregate entry point, so a client composes
  /// one from edge reads: SUM splits its constraint evenly over the ids,
  /// AVG/MAX/MIN give every id the full constraint (the result is then no
  /// wider than the widest item, or their mean).
  Interval Aggregate(const Query& query, int edge, int64_t now) {
    const size_t n = query.source_ids.size();
    const double per_item = query.kind == AggregateKind::kSum
                                ? query.constraint / static_cast<double>(n)
                                : query.constraint;
    Interval acc;
    for (size_t i = 0; i < n; ++i) {
      Interval v = engine_->Read(edge, query.source_ids[i], per_item, now);
      if (i == 0 && query.kind != AggregateKind::kSum &&
          query.kind != AggregateKind::kAvg) {
        acc = v;
        continue;
      }
      switch (query.kind) {
        case AggregateKind::kSum:
        case AggregateKind::kAvg: acc = acc + v; break;
        case AggregateKind::kMax: acc = Interval::Max(acc, v); break;
        case AggregateKind::kMin: acc = Interval::Min(acc, v); break;
      }
    }
    if (query.kind == AggregateKind::kAvg) {
      double inv = 1.0 / static_cast<double>(n);
      acc = Interval(acc.lo() * inv, acc.hi() * inv);
    }
    return acc;
  }

  void Flush() const {
    (void)engine_->WanCosts();
    (void)engine_->LanCosts();
  }

  Tallies ReadTallies() const {
    Tallies t;
    const apc::TieredCounters& c = engine_->counters();
    t.edge_hits = c.edge_hits.load();
    t.regional_hits = c.regional_hits.load();
    t.source_pulls = c.source_pulls.load();
    t.derived_pushes = c.derived_pushes.load();
    ReadSubscriptionTallies(*engine_, "tiered.bus", &t);
    return t;
  }

  double MeanRawWidth() const {
    double sum = 0.0;
    int n = static_cast<int>(engine_->num_sources());
    for (int id = 0; id < n; ++id) sum += engine_->regional_raw_width(id);
    return n == 0 ? 0.0 : sum / n;
  }
  bool InvariantHolds(int64_t now) const {
    return engine_->DerivedInvariantHolds(now);
  }

  /// Ω = WAN + LAN cost per tick. Reconciles each link's tracker with the
  /// TieredCounters: every WAN Cqr is a source pull; every LAN Cvr a
  /// derived push; every LAN Cqr an escalated read (regional hit or source
  /// pull), i.e. source pulls minus the subscription escalations.
  bool Costs(const Tallies& begin, const Tallies& end, int64_t ticks,
             RoundResult* out) const {
    apc::EngineCosts wan = engine_->WanCosts();
    apc::EngineCosts lan = engine_->LanCosts();
    out->cost_per_tick = wan.CostRate() + lan.CostRate();
    double n = static_cast<double>(ticks);
    out->layer["core.value_refreshes_per_tick"] =
        static_cast<double>(wan.value_refreshes) / n;
    out->layer["core.query_refreshes_per_tick"] =
        static_cast<double>(wan.query_refreshes) / n;
    out->layer["tiered.wan_cost_per_tick"] = wan.CostRate();
    out->layer["tiered.lan_cost_per_tick"] = lan.CostRate();
    int64_t pulls = end.source_pulls - begin.source_pulls;
    int64_t escalations = end.escalations - begin.escalations;
    return wan.measured_ticks == ticks && lan.measured_ticks == ticks &&
           wan.query_refreshes == pulls &&
           lan.value_refreshes == end.derived_pushes - begin.derived_pushes &&
           lan.query_refreshes ==
               end.regional_hits - begin.regional_hits + pulls - escalations &&
           SameCost(wan.total_cost,
                    config_.wan.cvr * static_cast<double>(wan.value_refreshes) +
                        config_.wan.cqr *
                            static_cast<double>(wan.query_refreshes)) &&
           SameCost(lan.total_cost,
                    config_.lan.cvr * static_cast<double>(lan.value_refreshes) +
                        config_.lan.cqr *
                            static_cast<double>(lan.query_refreshes));
  }

  static constexpr const char* kName = "tiered";

 private:
  apc::TieredConfig config_;
  std::unique_ptr<apc::TieredEngine> engine_;
};

/// The epoch barrier between the producer and the readers.
struct EpochGate {
  std::mutex mu;
  std::condition_variable start_cv;
  std::condition_variable done_cv;
  int64_t generation = 0;
  int64_t tick = 0;
  int phase = 0;
  bool measuring = false;
  bool stop = false;
  int remaining = 0;
};

/// Spans kept per thread in a traced round; the histograms still see every
/// timed read after the cap.
constexpr size_t kSpanCapPerThread = size_t{1} << 16;

struct ReaderState {
  LatencyHistogram point_ns;
  LatencyHistogram sum_avg_ns;
  LatencyHistogram max_min_ns;
  int64_t measured_reads = 0;
  int64_t point_reads = 0;
  int64_t pull_free_point_reads = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  uint64_t op_index = 0;
  SpanLog spans;
};

/// Ticks whose values a read during epoch `t` may legitimately observe:
/// t+1 may already be applied, and the last refresh of tick t may still
/// trail updates_applied.
struct TickWindow {
  int64_t lo;
  int64_t hi;
};
TickWindow WindowAt(const Series& series, int64_t t) {
  return {std::max<int64_t>(0, t - 1),
          std::min<int64_t>(series.num_ticks(), t + 1)};
}

bool WithinConstraint(const Interval& a, double constraint) {
  return a.Width() <= constraint + 1e-9 * (1.0 + std::fabs(constraint));
}

bool Touches(const Interval& a, double lo, double hi) {
  double tol = 1e-9 * (1.0 + std::max(std::fabs(lo), std::fabs(hi)));
  return a.hi() + tol >= lo && a.lo() - tol <= hi;
}

bool PointOk(const Interval& a, double constraint, const Series& series,
             int64_t t, int id) {
  if (!WithinConstraint(a, constraint)) return false;
  TickWindow w = WindowAt(series, t);
  for (int64_t k = w.lo; k <= w.hi; ++k) {
    double v = series.at(k, id);
    if (Touches(a, v, v)) return true;
  }
  return false;
}

/// The exact aggregate over any mix of the window's ticks lies in
/// [lo, hi]; a correct answer must meet that range.
bool AggregateOk(const Interval& a, const Query& q, const Series& series,
                 int64_t t) {
  if (!WithinConstraint(a, q.constraint)) return false;
  TickWindow w = WindowAt(series, t);
  double lo = 0.0;
  double hi = 0.0;
  bool first = true;
  for (int id : q.source_ids) {
    double mn = series.at(w.lo, id);
    double mx = mn;
    for (int64_t k = w.lo + 1; k <= w.hi; ++k) {
      mn = std::min(mn, series.at(k, id));
      mx = std::max(mx, series.at(k, id));
    }
    switch (q.kind) {
      case AggregateKind::kSum:
      case AggregateKind::kAvg: lo += mn; hi += mx; break;
      case AggregateKind::kMax:
        lo = first ? mn : std::max(lo, mn);
        hi = first ? mx : std::max(hi, mx);
        break;
      case AggregateKind::kMin:
        lo = first ? mn : std::min(lo, mn);
        hi = first ? mx : std::min(hi, mx);
        break;
    }
    first = false;
  }
  if (q.kind == AggregateKind::kAvg && !q.source_ids.empty()) {
    lo /= static_cast<double>(q.source_ids.size());
    hi /= static_cast<double>(q.source_ids.size());
  }
  return Touches(a, lo, hi);
}

void ReportFailure(ReaderState* st, const char* what, int64_t t, int id,
                   const Interval& a, double constraint) {
  ++st->failed;
  if (st->failed <= 5) {
    std::fprintf(stderr,
                 "check failed: %s at tick %lld id %d answer [%.6f, %.6f] "
                 "constraint %.6f\n",
                 what, static_cast<long long>(t), id, a.lo(), a.hi(),
                 constraint);
  }
}

template <class Target>
void RunReader(Target& target, const WorkloadSpec& spec, const Series& series,
               const OpTable& table, const RoundOptions& options,
               EpochGate& gate, ReaderState* st) {
  Query mapped;  // tiered aggregates: the query's ranks mapped to ids
  size_t pos = 0;
  int64_t seen = 0;
  for (;;) {
    int64_t t = 0;
    int phase = 0;
    bool measuring = false;
    {
      std::unique_lock<std::mutex> lock(gate.mu);
      gate.start_cv.wait(
          lock, [&] { return gate.stop || gate.generation != seen; });
      if (gate.stop) return;
      seen = gate.generation;
      t = gate.tick;
      phase = gate.phase;
      measuring = gate.measuring;
    }
    for (int i = 0; i < spec.reads_per_reader_per_tick; ++i) {
      const Op& op = table.ops[pos];
      pos = pos + 1 == table.ops.size() ? 0 : pos + 1;
      ++st->attempted;
      if (measuring) ++st->measured_reads;
      if (!op.aggregate) {
        const bool timed =
            measuring &&
            (options.trace ||
             st->op_index % static_cast<uint64_t>(spec.sample_every) == 0);
        ++st->op_index;
        int id = spec.tiered ? TieredId(spec, op.edge, phase, op.id) : op.id;
        int64_t start = timed ? NowNs() : 0;
        Interval a = target.Point(op.edge, id, op.constraint, t);
        if (timed) {
          int64_t end = NowNs();
          st->point_ns.Record(end - start);
          if (options.trace) st->spans.Add(SpanName::kPointRead, t, start, end);
        }
        if (!PointOk(a, op.constraint, series, t, id)) {
          ReportFailure(st, "point read", t, id, a, op.constraint);
        }
        if (measuring) {
          ++st->point_reads;
          if (a.Width() > 0.0) ++st->pull_free_point_reads;
        }
        continue;
      }
      const Query* q = &table.queries[static_cast<size_t>(op.query)];
      if (spec.tiered) {
        mapped.kind = q->kind;
        mapped.constraint = q->constraint;
        mapped.source_ids.clear();
        for (int rank : q->source_ids) {
          mapped.source_ids.push_back(TieredId(spec, op.edge, phase, rank));
        }
        q = &mapped;
      }
      // Every measured aggregate is timed: it costs microseconds, so the
      // clock pair is a small share of it.
      int64_t start = measuring ? NowNs() : 0;
      Interval a = target.Aggregate(*q, op.edge, t);
      if (measuring) {
        int64_t end = NowNs();
        bool sum_avg =
            q->kind == AggregateKind::kSum || q->kind == AggregateKind::kAvg;
        (sum_avg ? st->sum_avg_ns : st->max_min_ns).Record(end - start);
        if (options.trace) {
          st->spans.Add(sum_avg ? SpanName::kAggSumAvg : SpanName::kAggMaxMin,
                        t, start, end);
        }
      }
      if (!AggregateOk(a, *q, series, t)) {
        ReportFailure(st, "aggregate", t, q->source_ids.front(), a,
                      q->constraint);
      }
    }
    {
      std::lock_guard<std::mutex> lock(gate.mu);
      if (--gate.remaining == 0) gate.done_cv.notify_one();
    }
  }
}

struct DrainerState {
  LatencyHistogram lag_ns;
  int64_t pops = 0;
  int64_t popped = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  SpanLog spans;
};

/// Drains the notification hub until it is closed: checks per-subscription
/// epoch order and, for answers computed at a measured tick, records the
/// lag from that tick's push to the drain.
void RunDrainer(apc::NotificationHub& hub,
                const std::vector<std::atomic<int64_t>>& push_ns,
                const std::atomic<bool>& measuring, int64_t first_tick,
                int64_t last_tick, bool trace, DrainerState* st) {
  std::vector<apc::Notification> batch;
  std::unordered_map<int64_t, int64_t> last_epoch;
  for (;;) {
    int64_t wait_start = NowNs();
    size_t n = hub.PopBatch(&batch, 256);
    if (n == 0) return;
    int64_t now = NowNs();
    bool measured = measuring.load(std::memory_order_acquire);
    if (measured) {
      ++st->pops;
      st->popped += static_cast<int64_t>(n);
      if (trace) st->spans.Add(SpanName::kNotifyPop, batch[0].now, wait_start, now);
    }
    for (const apc::Notification& rec : batch) {
      ++st->attempted;
      int64_t& last = last_epoch[rec.sub_id];
      if (rec.epoch <= last) {
        ++st->failed;
        if (st->failed <= 5) {
          std::fprintf(stderr,
                       "check failed: subscription %lld epoch %lld after %lld\n",
                       static_cast<long long>(rec.sub_id),
                       static_cast<long long>(rec.epoch),
                       static_cast<long long>(last));
        }
      }
      last = rec.epoch;
      if (measured && rec.now > first_tick && rec.now <= last_tick) {
        st->lag_ns.Record(
            now - push_ns[static_cast<size_t>(rec.now)].load(
                      std::memory_order_acquire));
      }
    }
  }
}

/// Waits until `target` has counted `goal` applied source updates. Polls
/// with sched_yield: the producer gives its core to any runnable reader,
/// pump or notifier thread, yet never idles its CPU, so noticing the
/// applied tick does not wait for a timer or for the host to wake a halted
/// virtual CPU.
template <class Target>
void WaitApplied(const Target& target, int64_t goal) {
  while (target.Applied() < goal) std::this_thread::yield();
}

template <class Target>
RoundResult RunRoundOn(const WorkloadSpec& spec, const RoundOptions& options) {
  RoundResult result;
  const int64_t setup_start = NowNs();
  const Series series = GenerateSeries(spec, options.seed);
  Target target(spec, series, options.seed);
  auto& engine = target.engine();
  const int64_t n = spec.num_sources;
  if (target.rejected_sources() != 0) ++result.failed;
  ++result.attempted;

  engine.PopulateInitial(0);
  for (const auto& [query, delta] : GenerateSubscriptions(spec, options.seed)) {
    ++result.attempted;
    if (engine.Subscribe(query, delta, 0) < 0) ++result.failed;
  }

  const int64_t first_tick = spec.warmup_ticks;
  const int64_t last_tick = spec.warmup_ticks + spec.measured_ticks;
  std::vector<std::atomic<int64_t>> push_ns(static_cast<size_t>(last_tick + 1));
  std::atomic<bool> drain_measuring{false};
  DrainerState drainer_state;
  drainer_state.spans = SpanLog(options.trace ? kSpanCapPerThread : 0);
  std::thread drainer(RunDrainer, std::ref(engine.notifications()),
                      std::cref(push_ns), std::cref(drain_measuring),
                      first_tick, last_tick, options.trace, &drainer_state);

  std::vector<OpTable> tables;
  std::vector<ReaderState> readers(static_cast<size_t>(options.readers));
  for (int r = 0; r < options.readers; ++r) {
    tables.push_back(GenerateOps(spec, options.seed, r));
    readers[static_cast<size_t>(r)].spans =
        SpanLog(options.trace ? kSpanCapPerThread : 0);
  }
  EpochGate gate;
  std::vector<std::thread> reader_threads;
  for (int r = 0; r < options.readers; ++r) {
    reader_threads.emplace_back([&, r] {
      RunReader(target, spec, series, tables[static_cast<size_t>(r)], options,
                gate, &readers[static_cast<size_t>(r)]);
    });
  }
  engine.StartUpdatePump();
  SpanLog producer_spans(options.trace ? kSpanCapPerThread : 0);

  Tallies begin;
  int64_t measure_start = 0;
  for (int64_t t = 0; t < last_tick; ++t) {
    const bool measuring = t >= first_tick;
    if (t == first_tick) {
      // Quiesce before measuring: every refresh behind updates_applied has
      // finished and the notifier has evaluated every change, so the
      // counters and the cost trackers see the same measured period.
      target.Flush();
      engine.subscriptions().WaitQuiescent();
      engine.BeginMeasurement(first_tick);
      begin = target.ReadTallies();
      drain_measuring.store(true, std::memory_order_release);
      result.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;
      measure_start = NowNs();
    }
    const int64_t epoch_start = NowNs();
    {
      std::lock_guard<std::mutex> lock(gate.mu);
      gate.tick = t;
      gate.phase = measuring ? static_cast<int>((t - first_tick) *
                                                spec.num_phases /
                                                spec.measured_ticks)
                             : 0;
      gate.measuring = measuring;
      gate.remaining = options.readers;
      ++gate.generation;
    }
    gate.start_cv.notify_all();

    apc::UpdateEvent event{t + 1, apc::UpdateEvent::kAllSources};
    const int64_t push_start = NowNs();
    push_ns[static_cast<size_t>(t + 1)].store(push_start,
                                              std::memory_order_release);
    ++result.attempted;
    if (engine.bus().PushBatch(&event, 1) != 1) ++result.failed;
    const int64_t push_end = NowNs();
    WaitApplied(target, (t + 1) * n);
    const int64_t applied = NowNs();
    {
      std::unique_lock<std::mutex> lock(gate.mu);
      gate.done_cv.wait(lock, [&] { return gate.remaining == 0; });
    }
    if (measuring) {
      result.tick_apply_ns.Record(applied - push_start);
      result.push_ns.Record(push_end - push_start);
      if (options.trace) {
        const int64_t epoch_end = NowNs();
        producer_spans.Add(SpanName::kEpoch, t, epoch_start, epoch_end);
        producer_spans.Add(SpanName::kPush, t, push_start, push_end);
        producer_spans.Add(SpanName::kApplyWait, t, push_end, applied);
      }
    }
  }
  const int64_t measure_end = NowNs();
  drain_measuring.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    gate.stop = true;
  }
  gate.start_cv.notify_all();
  for (std::thread& th : reader_threads) th.join();

  target.Flush();
  engine.subscriptions().WaitQuiescent();
  engine.EndMeasurement(last_tick);
  const Tallies end = target.ReadTallies();
  result.attempted += 2;
  if (!target.Costs(begin, end, spec.measured_ticks, &result)) {
    ++result.failed;
    std::fprintf(stderr, "check failed: %s costs do not reconcile with "
                 "the engine counters\n", Target::kName);
  }
  if (!target.InvariantHolds(last_tick)) {
    ++result.failed;
    std::fprintf(stderr, "check failed: derived-precision invariant\n");
  }
  const double mean_raw_width = target.MeanRawWidth();
  engine.StopUpdatePump();
  engine.subscriptions().Shutdown();
  drainer.join();

  // Merge the threads' figures.
  result.measured_s = static_cast<double>(measure_end - measure_start) / 1e9;
  int64_t point_reads = 0;
  int64_t pull_free = 0;
  for (ReaderState& st : readers) {
    result.point_ns.Merge(st.point_ns);
    result.agg_ns.Merge(st.sum_avg_ns);
    result.agg_ns.Merge(st.max_min_ns);
    result.sum_avg_ns.Merge(st.sum_avg_ns);
    result.max_min_ns.Merge(st.max_min_ns);
    result.measured_reads += st.measured_reads;
    result.attempted += st.attempted;
    result.failed += st.failed;
    point_reads += st.point_reads;
    pull_free += st.pull_free_point_reads;
  }
  result.notify_lag_ns.Merge(drainer_state.lag_ns);
  result.attempted += drainer_state.attempted;
  result.failed += drainer_state.failed;

  // Per-layer figures over the measured period.
  const double ticks = static_cast<double>(spec.measured_ticks);
  const double kreads = static_cast<double>(result.measured_reads) / 1000.0;
  auto& layer = result.layer;
  layer["shard.seqlock_retries_per_kread"] =
      static_cast<double>(end.seqlock_retries - begin.seqlock_retries) / kreads;
  layer["shard.shared_fallbacks_per_kread"] =
      static_cast<double>(end.shared_fallbacks - begin.shared_fallbacks) /
      kreads;
  layer["shard.pull_free_read_ratio"] =
      point_reads == 0 ? 0.0
                       : static_cast<double>(pull_free) /
                             static_cast<double>(point_reads);
  layer["core.mean_raw_width"] = mean_raw_width;
  layer["query.sum_avg_p50_ns"] = result.sum_avg_ns.Quantile(0.5);
  layer["query.max_min_p50_ns"] = result.max_min_ns.Quantile(0.5);
  layer["bus.push_us"] = result.push_ns.mean() / 1e3;
  layer["bus.pump_apply_us"] =
      (result.tick_apply_ns.mean() - result.push_ns.mean()) / 1e3;
  layer["bus.drain_batch_p50"] =
      DiffQuantile(end.drain_batch, begin.drain_batch, 0.5);
  if (spec.tiered) {
    const int64_t hits = end.edge_hits - begin.edge_hits;
    const int64_t regional = end.regional_hits - begin.regional_hits;
    const int64_t pulls = (end.source_pulls - begin.source_pulls) -
                          (end.escalations - begin.escalations);
    const double edge_reads = static_cast<double>(hits + regional + pulls);
    layer["tiered.edge_hit_ratio"] =
        edge_reads == 0 ? 0.0 : static_cast<double>(hits) / edge_reads;
    layer["tiered.regional_hits_per_kread"] =
        static_cast<double>(regional) / (edge_reads / 1000.0);
    layer["tiered.source_pulls_per_kread"] =
        static_cast<double>(pulls) / (edge_reads / 1000.0);
    layer["tiered.derived_pushes_per_tick"] =
        static_cast<double>(end.derived_pushes - begin.derived_pushes) / ticks;
  }
  const int64_t evaluations = end.evaluations - begin.evaluations;
  layer["subs.evaluations_per_tick"] = static_cast<double>(evaluations) / ticks;
  layer["subs.notifications_per_pop"] =
      drainer_state.pops == 0 ? 0.0
                              : static_cast<double>(drainer_state.popped) /
                                    static_cast<double>(drainer_state.pops);
  layer["subs.escalations_per_tick"] =
      static_cast<double>(end.escalations - begin.escalations) / ticks;
  layer["subs.suppressed_ratio"] =
      evaluations == 0 ? 0.0
                       : static_cast<double>(end.suppressed - begin.suppressed) /
                             static_cast<double>(evaluations);

  if (options.trace) {
    result.span_logs.push_back(std::move(producer_spans));
    result.span_threads.push_back("producer");
    for (size_t r = 0; r < readers.size(); ++r) {
      result.span_logs.push_back(std::move(readers[r].spans));
      result.span_threads.push_back("reader-" + std::to_string(r));
    }
    result.span_logs.push_back(std::move(drainer_state.spans));
    result.span_threads.push_back("drainer");
  }
  return result;
}

}  // namespace

RoundResult RunRound(const WorkloadSpec& spec, const RoundOptions& options) {
  return spec.tiered ? RunRoundOn<TieredTarget>(spec, options)
                     : RunRoundOn<ShardedTarget>(spec, options);
}

}  // namespace perfbench
