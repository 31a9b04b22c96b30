#include "runtime/workload_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <unordered_map>
#include <unordered_set>

namespace apc {

namespace {

/// Layout shared by every thread's latency histogram so they merge.
Histogram MakeLatencyHistogram() {
  return Histogram::LogSpaced(/*lo=*/0.1, /*hi=*/1e7, /*bins=*/200);
}

/// Precision constraints are satisfied exactly by construction; the
/// tolerance only absorbs floating-point rounding in interval sums.
bool ViolatesConstraint(const Interval& result, double constraint) {
  double tolerance = 1e-9 * (1.0 + std::fabs(constraint));
  return result.Width() > constraint + tolerance;
}

struct ThreadResult {
  Histogram latency_us = MakeLatencyHistogram();
  SummaryStats stats;
  int64_t violations = 0;
};

/// The run's phase schedule: the configured phases, or the single phase the
/// legacy scalar knobs describe.
std::vector<WorkloadPhase> EffectiveSchedule(const DriverConfig& config) {
  if (!config.phases.empty()) return config.phases;
  WorkloadPhase phase;
  phase.queries_per_thread = config.queries_per_thread;
  phase.point_read_fraction = config.point_read_fraction;
  phase.zipf_s = config.workload.zipf_s;
  phase.update_burst = config.update_burst;
  return {phase};
}

/// Pushes one updater burst of tick-all events — the closed-loop
/// discipline both drivers share: the clock only advances past events the
/// bus ACCEPTED, so the tick count, the EndMeasurement clock, and
/// CostRate()'s denominator never include pushes rejected at shutdown.
/// Returns false once the bus is closed (the updater must exit).
bool PushTickBurst(UpdateBus& bus, std::atomic<int64_t>& clock, int burst) {
  // One PushBatch per burst: the burst's tick-alls are one run, applied
  // to each shard under one lock hold instead of `burst` acquisitions. The
  // scratch is thread_local so the steady-state updater allocates nothing.
  static thread_local std::vector<UpdateEvent> events;
  events.clear();
  int64_t t = clock.load(std::memory_order_relaxed);
  for (int i = 1; i <= burst; ++i) {
    events.push_back({t + i, UpdateEvent::kAllSources});
  }
  size_t accepted = bus.PushBatch(events.data(), events.size());
  if (accepted > 0) {
    clock.store(t + static_cast<int64_t>(accepted),
                std::memory_order_relaxed);
  }
  return accepted == events.size();
}

/// The drivers' progress gate: a worker with a fixed query quota starts
/// only once the updater has finished its first burst (accepted, or cut
/// short by a closed bus), so the quota can never run out before the
/// updater was ever scheduled — an updating run whose bus stays open
/// always applies at least one tick.
void AwaitFirstBurst(const std::atomic<bool>& first_burst_done) {
  while (!first_burst_done.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
}

/// Times one read call into `local` and checks its width against
/// `constraint` — every query of both workloads goes through here.
template <class ReadCall>
void TimedRead(ThreadResult& local, double constraint, ReadCall read) {
  auto t0 = std::chrono::steady_clock::now();
  Interval result = read();
  auto t1 = std::chrono::steady_clock::now();
  double us = std::chrono::duration<double, std::micro>(t1 - t0).count();
  local.latency_us.Add(us);
  local.stats.Add(us);
  if (ViolatesConstraint(result, constraint)) ++local.violations;
}

/// The closed loop both drivers share. Populates the engine and begins
/// measurement; with `run_updates`, starts the update path and an updater
/// that pushes `burst()` tick-alls at a time (0 pauses it); runs
/// `num_threads` workers, each of which waits for the updater's first
/// burst and then runs `worker(ti, clock, local)`, issuing its reads
/// through TimedRead; joins them; stops the update path, closing the bus;
/// ends measurement at the last accepted tick; and fills the fields both
/// report types share for a run of `queries` reads.
template <class Report, class Burst, class Worker>
void RunClosedLoop(TieredEngine& engine, int num_threads, int64_t queries,
                   bool run_updates, Burst burst, Worker worker,
                   Report* report) {
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  std::atomic<int64_t> clock{0};
  std::atomic<bool> stop_updates{false};
  std::thread updater;
  // StartUpdatePump fails when the engine's bus was already closed by a
  // previous updating run; the workload then runs against static values.
  const bool updates_running = run_updates && engine.StartUpdatePump();
  // Gated only when the run starts updating: a paused first phase never
  // pushes a burst.
  std::atomic<bool> first_burst_done{!updates_running || burst() == 0};
  if (updates_running) {
    // The updater streams tick-all events through the bus, applying each
    // burst itself before the next, so the apply cost throttles it (tick
    // discipline: see PushTickBurst).
    updater = std::thread([&] {
      while (!stop_updates.load(std::memory_order_relaxed)) {
        const int n = burst();
        if (n == 0) {
          // Updates paused (a pure-read regime): sleep rather than spin so
          // the pause doesn't steal cycles from the query workers it is
          // supposed to leave unperturbed.
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          continue;
        }
        bool open = PushTickBurst(engine.bus(), clock, n);
        first_burst_done.store(true, std::memory_order_release);
        if (!open) return;
        std::this_thread::yield();
      }
    });
  }

  std::vector<ThreadResult> results(static_cast<size_t>(num_threads));
  std::vector<std::thread> workers;
  workers.reserve(results.size());
  auto wall_start = std::chrono::steady_clock::now();
  for (int ti = 0; ti < num_threads; ++ti) {
    workers.emplace_back([&, ti] {
      AwaitFirstBurst(first_burst_done);
      worker(ti, clock, results[static_cast<size_t>(ti)]);
    });
  }
  for (auto& thread : workers) thread.join();
  auto wall_end = std::chrono::steady_clock::now();

  if (updates_running) {
    stop_updates.store(true, std::memory_order_relaxed);
    updater.join();
    engine.StopUpdatePump();  // closes the bus
  }

  // With no updates the measured period is 0 ticks; CostRate() then
  // reports 0 rather than pretending the whole run was one tick.
  report->ticks = clock.load(std::memory_order_relaxed);
  engine.EndMeasurement(report->ticks);

  // The per-thread histograms merge exactly: every thread uses the one
  // shared layout.
  Histogram merged = MakeLatencyHistogram();
  SummaryStats stats;
  for (const ThreadResult& local : results) {
    merged.Merge(local.latency_us);
    stats.Merge(local.stats);
    report->violations += local.violations;
  }
  report->queries = queries;
  report->wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  report->queries_per_second =
      report->wall_seconds > 0.0
          ? static_cast<double>(queries) / report->wall_seconds
          : 0.0;
  report->latency_mean_us = stats.mean();
  report->latency_max_us = stats.max();
  report->latency_p50_us = merged.Quantile(0.50);
  report->latency_p95_us = merged.Quantile(0.95);
  report->latency_p99_us = merged.Quantile(0.99);
}

}  // namespace

std::vector<std::unique_ptr<Source>> BuildRandomWalkSources(
    int n, const RandomWalkParams& walk, const AdaptivePolicyParams& policy,
    uint64_t seed) {
  Rng master(seed);
  std::vector<std::unique_ptr<Source>> sources;
  sources.reserve(static_cast<size_t>(n));
  for (int id = 0; id < n; ++id) {
    uint64_t stream_seed = master.NextUint64();
    uint64_t policy_seed = master.NextUint64();
    sources.push_back(std::make_unique<Source>(
        id, std::make_unique<RandomWalkStream>(walk, stream_seed),
        std::make_unique<AdaptivePolicy>(policy, policy_seed)));
  }
  return sources;
}

std::vector<std::unique_ptr<UpdateStream>> BuildRandomWalkStreams(
    int n, const RandomWalkParams& walk, uint64_t seed) {
  Rng master(seed);
  std::vector<std::unique_ptr<UpdateStream>> streams;
  streams.reserve(static_cast<size_t>(n));
  for (int id = 0; id < n; ++id) {
    streams.push_back(
        std::make_unique<RandomWalkStream>(walk, master.NextUint64()));
  }
  return streams;
}

std::vector<std::unique_ptr<Source>> BuildTraceSources(
    const Trace& trace, const AdaptivePolicyParams& policy, uint64_t seed) {
  Rng master(seed);
  std::vector<std::unique_ptr<Source>> sources;
  sources.reserve(trace.hosts.size());
  for (size_t id = 0; id < trace.hosts.size(); ++id) {
    // Draw (and discard) the stream-seed slot so the policy seeds come out
    // identical to BuildRandomWalkSources(n, ..., seed) — replaying a
    // recorded trace reproduces the original per-source policy decisions.
    (void)master.NextUint64();
    uint64_t policy_seed = master.NextUint64();
    sources.push_back(std::make_unique<Source>(
        static_cast<int>(id), std::make_unique<SeriesStream>(trace.hosts[id]),
        std::make_unique<AdaptivePolicy>(policy, policy_seed)));
  }
  return sources;
}

std::vector<std::unique_ptr<UpdateStream>> BuildTraceStreams(
    const Trace& trace) {
  std::vector<std::unique_ptr<UpdateStream>> streams;
  streams.reserve(trace.hosts.size());
  for (const std::vector<double>& series : trace.hosts) {
    streams.push_back(std::make_unique<SeriesStream>(series));
  }
  return streams;
}

DriverReport RunWorkload(ShardedEngine& engine, const DriverConfig& config) {
  if (!config.IsValid()) return DriverReport{};
  const std::vector<WorkloadPhase> schedule = EffectiveSchedule(config);
  const size_t num_threads = static_cast<size_t>(config.num_threads);

  // Phase each worker is currently in; the updater follows the slowest
  // worker so the update:query regime flips system-wide at the boundary.
  std::vector<std::atomic<int>> thread_phase(num_threads);
  for (auto& phase : thread_phase) phase.store(0, std::memory_order_relaxed);
  auto burst = [&] {
    int slowest = static_cast<int>(schedule.size()) - 1;
    for (const auto& phase : thread_phase) {
      slowest = std::min(slowest, phase.load(std::memory_order_relaxed));
    }
    return schedule[static_cast<size_t>(slowest)].update_burst;
  };
  auto worker = [&](int ti, const std::atomic<int64_t>& clock,
                    ThreadResult& local) {
    uint64_t t = static_cast<uint64_t>(ti);
    Rng rng(config.seed ^ (0xD517ULL + 0xBF58476DULL * t));
    for (size_t p = 0; p < schedule.size(); ++p) {
      const WorkloadPhase& phase = schedule[p];
      thread_phase[static_cast<size_t>(ti)].store(static_cast<int>(p),
                                                  std::memory_order_relaxed);
      QueryWorkloadParams workload = config.workload;
      workload.zipf_s = phase.zipf_s;
      QueryGenerator gen(workload, config.seed ^ (0xA11CEULL +
                                                  0x9E3779B9ULL * t +
                                                  0x51CEB00BULL * p));
      // Hoisted and reused: Next(&query) recycles source_ids capacity,
      // so the steady-state query loop performs no heap allocation.
      Query query;
      for (int64_t q = 0; q < phase.queries_per_thread; ++q) {
        gen.Next(&query);
        int64_t now = clock.load(std::memory_order_relaxed);
        bool point_read = phase.point_read_fraction > 0.0 &&
                          rng.Bernoulli(phase.point_read_fraction);
        TimedRead(local, query.constraint, [&] {
          return point_read ? engine.PointRead(query.source_ids.front(),
                                               query.constraint, now)
                            : engine.ExecuteQuery(query, now);
        });
      }
    }
  };
  int64_t queries_per_thread = 0;
  for (const WorkloadPhase& phase : schedule) {
    queries_per_thread += phase.queries_per_thread;
  }
  DriverReport report;
  RunClosedLoop(engine, config.num_threads,
                config.num_threads * queries_per_thread, config.run_updates,
                burst, worker, &report);
  report.costs = engine.TotalCosts();
  report.rejected_updates =
      engine.counters().rejected_updates.load(std::memory_order_relaxed);
  report.rejected_query_ids =
      engine.counters().rejected_query_ids.load(std::memory_order_relaxed);
  return report;
}

TieredDriverReport RunTieredWorkload(TieredEngine& engine,
                                     const TieredWorkloadConfig& config) {
  if (!config.IsValid()) return TieredDriverReport{};
  // A misconfigured id space is a caller error, not a protocol failure:
  // reads of ids the engine does not own would return the unbounded
  // interval and masquerade as precision violations — the signal the
  // benches and tests gate on. Refuse to run instead.
  for (int id = 0; id < config.num_sources; ++id) {
    if (!engine.Owns(id)) return TieredDriverReport{};
  }
  const int num_edges = engine.num_edges();
  const int num_sources = config.num_sources;

  auto worker = [&](int ti, const std::atomic<int64_t>& clock,
                    ThreadResult& local) {
    uint64_t t = static_cast<uint64_t>(ti);
    // A single-id "SUM" workload reuses the query generator's Zipf draw
    // and constraint distribution for point reads: rank 0 is the hottest
    // key before the per-edge rotation below.
    QueryWorkloadParams workload;
    workload.num_sources = num_sources;
    workload.group_size = 1;
    workload.zipf_s = config.zipf_s;
    workload.constraints = config.constraints;
    QueryGenerator gen(workload,
                       config.seed ^ (0xA11CEULL + 0x9E3779B9ULL * t));
    int64_t issued = 0;
    for (int p = 0; p < config.num_phases; ++p) {
      // Phase p: this thread's home edge rotates by one, so every hotspot
      // lands on a different edge than the phase before.
      int edge = (ti + p) % num_edges;
      int hot_base = edge * num_sources / num_edges;
      int64_t budget = config.queries_per_thread / config.num_phases;
      if (p == config.num_phases - 1) {
        budget = config.queries_per_thread - issued;
      }
      Query query;
      for (int64_t q = 0; q < budget; ++q, ++issued) {
        gen.Next(&query);
        int id = (hot_base + query.source_ids.front()) % num_sources;
        int64_t now = clock.load(std::memory_order_relaxed);
        TimedRead(local, query.constraint, [&] {
          return engine.Read(edge, id, query.constraint, now);
        });
      }
    }
  };
  TieredDriverReport report;
  RunClosedLoop(engine, config.num_threads,
                config.num_threads * config.queries_per_thread,
                config.run_updates && config.update_burst > 0,
                [&] { return config.update_burst; }, worker, &report);
  const TieredCounters& counters = engine.counters();
  report.edge_hits = counters.edge_hits.load(std::memory_order_relaxed);
  report.regional_hits =
      counters.regional_hits.load(std::memory_order_relaxed);
  report.source_pulls = counters.source_pulls.load(std::memory_order_relaxed);
  report.derived_pushes =
      counters.derived_pushes.load(std::memory_order_relaxed);
  report.lost_wan_pushes = engine.lost_wan_pushes();
  report.lost_lan_pushes = engine.lost_lan_pushes();
  report.wan = engine.WanCosts();
  report.lan = engine.LanCosts();
  return report;
}

namespace {

/// One standing-query specification of the subscription workload.
struct SubSpec {
  Query query;
  double delta = 0.0;
};

/// Draws the `index`-th standing query: a point subscription with
/// probability `point_fraction`, otherwise a group_size-id aggregate
/// rotating through SUM/MAX/MIN/AVG. Deterministic given the generators.
SubSpec DrawSubSpec(int index, const SubscriptionWorkloadConfig& config,
                    Rng& rng, ConstraintGenerator& deltas) {
  SubSpec spec;
  spec.delta = deltas.Next();
  spec.query.constraint = spec.delta;
  if (rng.Bernoulli(config.point_fraction)) {
    spec.query.kind = AggregateKind::kSum;  // a 1-id SUM is a point read
    spec.query.source_ids = {static_cast<int>(
        rng.UniformInt(0, config.num_sources - 1))};
    return spec;
  }
  constexpr AggregateKind kKinds[] = {AggregateKind::kSum,
                                      AggregateKind::kMax,
                                      AggregateKind::kMin,
                                      AggregateKind::kAvg};
  spec.query.kind = kKinds[index % 4];
  std::unordered_set<int> chosen;
  while (static_cast<int>(chosen.size()) < config.group_size) {
    chosen.insert(static_cast<int>(rng.UniformInt(0, config.num_sources - 1)));
  }
  spec.query.source_ids.assign(chosen.begin(), chosen.end());
  std::sort(spec.query.source_ids.begin(), spec.query.source_ids.end());
  return spec;
}

/// Counter snapshot used to confine the report to the measured period.
struct SubCounterSnapshot {
  int64_t notifications = 0;
  int64_t escalations = 0;
  int64_t evaluations = 0;
  int64_t suppressed = 0;
};

SubCounterSnapshot SnapshotSubCounters(const SubscriptionManager& subs) {
  const SubscriptionCounters& c = subs.counters();
  SubCounterSnapshot snap;
  snap.notifications = c.notifications.load(std::memory_order_relaxed);
  snap.escalations = c.escalations.load(std::memory_order_relaxed);
  snap.evaluations = c.evaluations.load(std::memory_order_relaxed);
  snap.suppressed = c.suppressed.load(std::memory_order_relaxed);
  return snap;
}

}  // namespace

SubscriptionDriverReport RunSubscriptionWorkload(
    const SubscriptionWorkloadConfig& config) {
  if (!config.IsValid()) return SubscriptionDriverReport{};

  ShardedEngine engine(
      config.engine,
      BuildRandomWalkSources(config.num_sources, config.walk, config.policy,
                             config.seed));
  engine.PopulateInitial(0);

  // Register the standing-query population; the registration answers
  // (epoch 1) are queued — and their escalations charged — before
  // measurement begins, the usual warm-up discipline.
  Rng spec_rng(config.seed ^ 0x5ABB0ULL);
  ConstraintGenerator delta_gen(config.deltas, config.seed ^ 0xDE17A);
  std::vector<SubSpec> specs;
  std::vector<int64_t> sub_ids;
  specs.reserve(static_cast<size_t>(config.num_subscribers));
  for (int i = 0; i < config.num_subscribers; ++i) {
    specs.push_back(DrawSubSpec(i, config, spec_rng, delta_gen));
    sub_ids.push_back(
        engine.Subscribe(specs.back().query, specs.back().delta, 0));
  }
  // The point subscriptions the concurrent checker probes: (sub_id,
  // source_id) value pairs, so the checker thread shares nothing mutable.
  std::vector<std::pair<int64_t, int>> probes;
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].query.source_ids.size() == 1 && sub_ids[i] > 0) {
      probes.push_back({sub_ids[i], specs[i].query.source_ids.front()});
    }
  }

  SubCounterSnapshot warmup = SnapshotSubCounters(engine.subscriptions());
  engine.BeginMeasurement(0);

  std::atomic<int64_t> clock{0};
  std::atomic<bool> stop_checker{false};
  std::atomic<int64_t> delivered{0};
  std::atomic<int64_t> order_regressions{0};
  std::atomic<int64_t> checker_probes{0};
  std::atomic<int64_t> missed_violations{0};
  std::atomic<int64_t> churn_done{0};
  std::atomic<int64_t> reprecision_done{0};

  auto wall_start = std::chrono::steady_clock::now();

  // Subscriber threads drain the hub for the whole run; they exit when the
  // hub closes at shutdown. Lag percentiles come from the registry's
  // delivery-lag histogram and the mean from per-thread stats merged at the
  // end; registration answers (epoch 1) are not change deliveries and stay
  // out of the lag statistics.
  const size_t num_consumers = static_cast<size_t>(config.subscriber_threads);
  std::vector<SummaryStats> lag_stats(num_consumers);
  std::vector<std::thread> consumers;
  for (size_t ci = 0; ci < num_consumers; ++ci) {
    consumers.emplace_back([&, ci] {
      std::vector<Notification> batch;
      // Per-subscription epoch ordering is only observable with a single
      // consumer (two consumers race on processing order by design).
      std::unordered_map<int64_t, int64_t> last_epoch;
      while (engine.notifications().PopBatch(&batch, 64) > 0) {
        delivered.fetch_add(static_cast<int64_t>(batch.size()),
                            std::memory_order_relaxed);
        for (const Notification& record : batch) {
          if (num_consumers == 1) {
            int64_t& prev = last_epoch[record.sub_id];
            if (record.epoch <= prev) {
              order_regressions.fetch_add(1, std::memory_order_relaxed);
            }
            prev = record.epoch;
          }
          if (record.epoch > 1) {
            double ticks_late = static_cast<double>(
                clock.load(std::memory_order_relaxed) - record.now);
            if (ticks_late < 0.0) ticks_late = 0.0;
            lag_stats[ci].Add(ticks_late);
            engine.subscriptions().RecordDeliveryLag(ticks_late);
          }
        }
      }
    });
  }

  // The updater streams exactly `ticks` tick-all events, then stops; it
  // applies each burst as it pushes it, each application publishing its
  // interval changes to the subscription layer.
  bool updates_running = engine.StartUpdatePump();
  std::thread updater([&] {
    if (!updates_running) return;
    int64_t pushed = 0;
    while (pushed < config.ticks) {
      int burst = static_cast<int>(
          std::min<int64_t>(config.update_burst, config.ticks - pushed));
      if (!PushTickBurst(engine.bus(), clock, burst)) return;
      pushed += burst;
      std::this_thread::yield();
    }
  });

  // Control thread: churn (unsubscribe + fresh registration) and live
  // Reprecision, interleaved, until the quotas are spent. The run waits
  // for them, so the report counts exactly the configured operations
  // however quickly the updater applies the ticks.
  std::thread control;
  if (config.churn_ops > 0 || config.reprecision_ops > 0) {
    control = std::thread([&] {
      Rng churn_rng(config.seed ^ 0xC0117);
      ConstraintGenerator churn_deltas(config.deltas, config.seed ^ 0x11F2);
      std::vector<int64_t> live = sub_ids;
      int spec_index = config.num_subscribers;
      while (true) {
        bool more = false;
        if (churn_done.load(std::memory_order_relaxed) < config.churn_ops) {
          size_t i = static_cast<size_t>(
              churn_rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
          engine.Unsubscribe(live[i]);
          SubSpec spec =
              DrawSubSpec(spec_index++, config, churn_rng, churn_deltas);
          live[i] = engine.Subscribe(
              spec.query, spec.delta, clock.load(std::memory_order_relaxed));
          churn_done.fetch_add(1, std::memory_order_relaxed);
          more = true;
        }
        if (reprecision_done.load(std::memory_order_relaxed) <
            config.reprecision_ops) {
          size_t i = static_cast<size_t>(
              churn_rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
          engine.Reprecision(live[i], churn_deltas.Next(),
                             clock.load(std::memory_order_relaxed));
          reprecision_done.fetch_add(1, std::memory_order_relaxed);
          more = true;
        }
        if (!more) break;  // both quotas spent
        std::this_thread::yield();
      }
    });
  }

  // The concurrent no-missed-violation checker. A probe is judged only
  // when no change is in flight before AND after reading the true value,
  // and the latest-queued epoch did not move — any interleaving that could
  // explain a mismatch benignly is skipped, so a counted violation is a
  // real missed notification. The epoch is re-read after the second
  // in-flight check: the notifier ships before it stops counting a change
  // in flight, so an evaluation completing between the two reads still
  // shows up as a new epoch.
  std::thread checker;
  if (config.run_violation_checker && !probes.empty()) {
    checker = std::thread([&] {
      Rng probe_rng(config.seed ^ 0xCCCC7);
      const SubscriptionManager& subs = engine.subscriptions();
      while (!stop_checker.load(std::memory_order_relaxed)) {
        const auto& [sid, source_id] = probes[static_cast<size_t>(
            probe_rng.UniformInt(0, static_cast<int64_t>(probes.size()) - 1))];
        Interval answer;
        int64_t epoch = 0;
        if (!subs.LatestAnswer(sid, &answer, &epoch)) continue;
        if (subs.in_flight() != 0) {
          std::this_thread::yield();
          continue;
        }
        double truth = engine.ExactValue(source_id);
        Interval answer_after;
        int64_t epoch_after = 0;
        if (subs.in_flight() != 0 ||
            !subs.LatestAnswer(sid, &answer_after, &epoch_after) ||
            epoch_after != epoch) {
          continue;
        }
        checker_probes.fetch_add(1, std::memory_order_relaxed);
        if (!answer.Contains(truth)) {
          missed_violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  updater.join();
  if (control.joinable()) control.join();  // quotas spent
  if (updates_running) engine.StopUpdatePump();  // closes the bus
  engine.subscriptions().WaitQuiescent();  // every change fully evaluated
  stop_checker.store(true, std::memory_order_relaxed);
  if (checker.joinable()) checker.join();

  int64_t final_tick = clock.load(std::memory_order_relaxed);
  engine.EndMeasurement(final_tick);
  auto wall_end = std::chrono::steady_clock::now();
  SubCounterSnapshot measured = SnapshotSubCounters(engine.subscriptions());

  // Close the hub so subscriber threads drain the tail and exit.
  engine.subscriptions().Shutdown();
  for (auto& consumer : consumers) consumer.join();

  SubscriptionDriverReport report;
  report.subscriptions = config.num_subscribers;
  report.notifications = measured.notifications - warmup.notifications;
  report.delivered = delivered.load(std::memory_order_relaxed);
  report.escalations = measured.escalations - warmup.escalations;
  report.evaluations = measured.evaluations - warmup.evaluations;
  report.suppressed = measured.suppressed - warmup.suppressed;
  report.churn_ops = churn_done.load(std::memory_order_relaxed);
  report.reprecision_ops = reprecision_done.load(std::memory_order_relaxed);
  report.checker_probes = checker_probes.load(std::memory_order_relaxed);
  report.missed_violations = missed_violations.load(std::memory_order_relaxed);
  report.order_regressions = order_regressions.load(std::memory_order_relaxed);
  report.ticks = final_tick;
  report.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  report.notifications_per_second =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.notifications) / report.wall_seconds
          : 0.0;
  SummaryStats merged_stats;
  for (const SummaryStats& stats : lag_stats) merged_stats.Merge(stats);
  report.delivery_lag_ticks_mean = merged_stats.mean();
  obs::HistogramMetric::Snapshot lag =
      engine.subscriptions().delivery_lag_histogram().TakeSnapshot();
  report.delivery_lag_ticks_p50 = lag.Quantile(0.50);
  report.delivery_lag_ticks_p90 = lag.Quantile(0.90);
  report.delivery_lag_ticks_p99 = lag.Quantile(0.99);
  report.costs = engine.TotalCosts();
  const RefreshCosts& link = config.engine.system.costs;
  report.client_push_cost =
      static_cast<double>(report.notifications) * link.cvr;
  report.subscription_total_cost =
      report.costs.total_cost + report.client_push_cost;

  // The measured polling equivalent: the registration-time standing set,
  // polled once per subscription per tick in lockstep against a
  // seed-identical fresh engine (identical walks, identical policies). One
  // warm-up poll round mirrors the Subscribe-time evaluations, then the
  // measured period covers the same `ticks` updates the subscription run
  // streamed. Churn/Reprecision are not replayed: the baseline is the
  // polling cost of the standing set as registered.
  if (config.run_polling_equivalent) {
    ShardedEngine poll_engine(
        config.engine,
        BuildRandomWalkSources(config.num_sources, config.walk,
                               config.policy, config.seed));
    poll_engine.PopulateInitial(0);
    for (const SubSpec& spec : specs) {
      poll_engine.ExecuteQuery(spec.query, 0);
    }
    poll_engine.BeginMeasurement(0);
    for (int64_t t = 1; t <= config.ticks; ++t) {
      poll_engine.TickAll(t);
      for (const SubSpec& spec : specs) {
        poll_engine.ExecuteQuery(spec.query, t);
        ++report.polls;
      }
    }
    poll_engine.EndMeasurement(config.ticks);
    report.polling_costs = poll_engine.TotalCosts();
    report.polling_client_cost =
        static_cast<double>(report.polls) * link.cqr;
    report.polling_equivalent_cost =
        report.polling_costs.total_cost + report.polling_client_cost;
  }
  return report;
}

}  // namespace apc
