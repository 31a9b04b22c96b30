// Live dashboard demo: the subscriber-driven inversion of the polling
// pattern in concurrent_server.cpp.
//
// The same fleet of 64 "sensors" feeds a 4-shard runtime engine — but
// instead of client threads re-issuing precision-bounded queries to learn
// that an answer changed, the dashboard registers STANDING queries once
// (a fleet-wide SUM, a hottest-sensor MAX, and a handful of per-sensor
// point watches) and the engine pushes fresh answers through the
// NotificationHub only when a guaranteed interval escapes the answer the
// dashboard already holds or widens past its bound. One refresh is
// amortized across every subscriber of a value, and mid-run the dashboard
// tightens its SUM bound with Reprecision — live, without
// re-registration.
//
// Build & run:  ./build/examples/live_dashboard [export.json]
// With a path argument, the final apcache-obs-v1 document (attribution
// section included) is also written to that file — scripts/check.sh --obs
// uses this to validate a real export against the schema.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/adaptive_policy.h"
#include "obs/attribution.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "runtime/sharded_engine.h"
#include "runtime/workload_driver.h"

int main(int argc, char** argv) {
  using namespace apc;

  // 1. The environment and the runtime: identical to concurrent_server —
  //    64 random-walk sensors, 4 shards, adaptive per-value widths.
  constexpr int kSensors = 64;
  AdaptivePolicyParams policy;
  policy.alpha = 1.0;
  EngineConfig config;
  config.num_shards = 4;
  // Headroom over the hash partition's imbalance: capacity is sliced
  // evenly across shards, so a tight 64/64 fit would evict on whichever
  // shard drew the most sensors and the fleet aggregates would go
  // unbounded.
  config.system.cache_capacity = 96;
  config.seed = 42;
  ShardedEngine engine(
      config, BuildRandomWalkSources(kSensors, RandomWalkParams{}, policy,
                                     /*seed=*/42));
  // Attribution rides along from the first charge: every refresh the run
  // pays lands in a per-sensor slot, split Cvr/Cqr and by reader.
  obs::AttributionTable attribution;
  engine.SetAttribution(&attribution);
  engine.PopulateInitial(0);

  // 2. Subscribe: the dashboard's standing queries, registered ONCE — a
  //    SUM over the first rack of 8 sensors, a fleet-wide hottest-sensor
  //    MAX, and four per-sensor watches.
  Query rack_sum;
  rack_sum.kind = AggregateKind::kSum;
  for (int id = 0; id < 8; ++id) rack_sum.source_ids.push_back(id);
  int64_t sum_sub = engine.Subscribe(rack_sum, /*delta=*/50.0, 0);

  Query hottest;
  hottest.kind = AggregateKind::kMax;
  for (int id = 0; id < kSensors; ++id) hottest.source_ids.push_back(id);
  int64_t max_sub = engine.Subscribe(hottest, /*delta=*/5.0, 0);

  std::unordered_map<int64_t, const char*> label = {
      {sum_sub, "rack SUM"}, {max_sub, "hottest MAX"}};
  for (int id = 0; id < 4; ++id) {
    Query watch;
    watch.kind = AggregateKind::kSum;
    watch.source_ids = {id};
    label[engine.Subscribe(watch, /*delta=*/2.0, 0)] = "sensor watch";
  }
  std::printf("registered %zu standing queries\n",
              engine.subscriptions().num_subscriptions());
  engine.BeginMeasurement(0);  // registration answers are warm-up

  // 3. The dashboard thread: drains the hub until it closes. No polling —
  //    every record it sees is an answer that actually changed. Each drain
  //    feeds the registry's delivery-lag histogram (wall tick at drain
  //    minus the answer's compute tick), so the ops sidebar's lag
  //    quantiles are live numbers, not placeholders.
  std::atomic<int64_t> wall_tick{0};
  std::thread dashboard([&] {
    std::vector<Notification> batch;
    std::unordered_map<int64_t, int64_t> updates_of;
    while (engine.notifications().PopBatch(&batch, 32) > 0) {
      for (const Notification& record : batch) {
        ++updates_of[record.sub_id];
        int64_t lag = wall_tick.load(std::memory_order_relaxed) - record.now;
        engine.subscriptions().RecordDeliveryLag(
            lag > 0 ? static_cast<double>(lag) : 0.0);
        // Print the interesting feeds; per-sensor watches just count.
        if (record.sub_id == sum_sub || record.sub_id == max_sub) {
          std::printf("  t=%3lld  %-11s epoch %3lld  answer %s (width %.3g)\n",
                      static_cast<long long>(record.now),
                      label[record.sub_id],
                      static_cast<long long>(record.epoch),
                      record.answer.ToString().c_str(),
                      record.answer.Width());
        }
      }
    }
    std::printf("\ndashboard: notifications per standing query\n");
    for (const auto& [sub_id, n] : updates_of) {
      std::printf("  sub %lld (%s): %lld updates\n",
                  static_cast<long long>(sub_id), label[sub_id],
                  static_cast<long long>(n));
    }
  });

  // 4. The world moves: 40 update ticks, each fully evaluated before the
  //    next (WaitQuiescent — the lockstep discipline, so the demo's output
  //    is deterministic). Notifications flow only when a guaranteed
  //    interval escapes a held answer or a bound is re-met.
  //    Every 10 ticks the ops sidebar of the dashboard renders a metrics
  //    snapshot straight from the engine's registry — the same consistent
  //    view the JSON exporter serializes, read here without touching any
  //    engine lock.
  auto ops_sidebar = [&](int64_t t) {
    obs::MetricsRegistry::Snapshot snap = engine.metrics().TakeSnapshot();
    std::printf(
        "  t=%3lld  [ops] evals %lld  escalations %lld  suppressed %lld  "
        "hub depth %lld  lag p50/p99 %.1f/%.1f ticks\n",
        static_cast<long long>(t),
        static_cast<long long>(snap.CounterValue("subs.evaluations")),
        static_cast<long long>(snap.CounterValue("subs.escalations")),
        static_cast<long long>(snap.CounterValue("subs.suppressed")),
        static_cast<long long>(snap.GaugeValue("subs.hub.queue_depth")),
        snap.HistogramQuantile("subs.delivery_lag_ticks", 0.50),
        snap.HistogramQuantile("subs.delivery_lag_ticks", 0.99));
  };

  for (int64_t t = 1; t <= 40; ++t) {
    wall_tick.store(t, std::memory_order_relaxed);
    engine.TickAll(t);
    engine.subscriptions().WaitQuiescent();
    if (t % 10 == 0) ops_sidebar(t);
    if (t == 20) {
      // Mid-run re-precisioning: the dashboard zooms in on the hottest
      // sensor — same subscription, a much tighter bound, effective
      // immediately (no re-registration). The tightening evaluates at
      // once: the too-wide answer is escalated and a bound-meeting answer
      // is pushed as soon as one exists.
      std::printf("  t= 20  >>> Reprecision: hottest MAX bound 5 -> 1.5\n");
      engine.Reprecision(max_sub, 1.5, t);
    }
  }
  engine.subscriptions().WaitQuiescent();
  engine.EndMeasurement(40);

  // 5. What it cost: escalations (charged query refreshes) versus the
  //    evaluations that rode shared refreshes or were suppressed.
  const SubscriptionCounters& c = engine.subscriptions().counters();
  std::printf("\nevaluations %lld  escalations %lld  suppressed %lld\n",
              static_cast<long long>(c.evaluations.load()),
              static_cast<long long>(c.escalations.load()),
              static_cast<long long>(c.suppressed.load()));
  std::printf("engine refreshes: %lld value-initiated, %lld query-initiated "
              "(cost %.0f)\n",
              static_cast<long long>(engine.TotalCosts().value_refreshes),
              static_cast<long long>(engine.TotalCosts().query_refreshes),
              engine.TotalCosts().total_cost);

  // 6. WHO cost that: the attribution table names the sensors driving the
  //    bill — refresh counts split value- vs query-initiated, the Cqr side
  //    further split by reader (ad-hoc query vs standing subscription),
  //    and the latest shipped bound width.
  std::vector<obs::AttributionTable::SourceStats> by_cost =
      attribution.Snapshot();
  std::sort(by_cost.begin(), by_cost.end(),
            [](const obs::AttributionTable::SourceStats& a,
               const obs::AttributionTable::SourceStats& b) {
              return a.value_cost + a.query_cost >
                     b.value_cost + b.query_cost;
            });
  std::printf("\ntop refreshers (cost = Cvr + Cqr side):\n");
  for (size_t i = 0; i < by_cost.size() && i < 5; ++i) {
    const obs::AttributionTable::SourceStats& s = by_cost[i];
    std::printf(
        "  sensor %2d  cost %6.1f  (%lld pushes, %lld pulls: %lld query / "
        "%lld sub)  width %.3g\n",
        s.id, s.value_cost + s.query_cost,
        static_cast<long long>(s.value_refreshes),
        static_cast<long long>(s.query_refreshes),
        static_cast<long long>(s.query_reader_refreshes),
        static_cast<long long>(s.subscription_reader_refreshes),
        s.last_width);
  }

  // 7. The run's full registry snapshot — attribution section included —
  //    serialized the way a scrape endpoint would hand it out.
  obs::SnapshotExporter exporter(&engine.metrics());
  exporter.AttachAttribution(&attribution);
  std::printf("\nfinal metrics export:\n%s\n", exporter.ToJson().c_str());
  if (argc > 1) {
    bool ok = exporter.WriteFile(argv[1]);
    std::printf("export %s to %s\n", ok ? "written" : "FAILED", argv[1]);
  }

  engine.subscriptions().Shutdown();  // closes the hub; dashboard drains out
  dashboard.join();
  return 0;
}
