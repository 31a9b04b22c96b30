// Tests for the observability layer (src/obs/): exact counter merging
// under concurrency, trace-ring wraparound ordering, exporter snapshot
// consistency under a racing workload, and the engine registries agreeing
// with the engines' own accessor surfaces.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/exporter.h"
#include "obs/trace.h"
#include "runtime/sharded_engine.h"
#include "runtime/tiered_engine.h"
#include "runtime/workload_driver.h"

namespace apc {
namespace {

constexpr uint64_t kSeed = 4242;

std::vector<std::unique_ptr<Source>> MakeSources(int n) {
  return BuildRandomWalkSources(n, RandomWalkParams{}, AdaptivePolicyParams{},
                                kSeed);
}

// -- counters ----------------------------------------------------------

// The striped counter's acceptance bar: concurrent increments merge
// EXACTLY once the writers are joined (run under TSan by check.sh --tsan).
TEST(ObsMetricsTest, ConcurrentIncrementsMergeExactly) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  obs::Counter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.load(), int64_t{kThreads} * kPerThread);
}

TEST(ObsMetricsTest, GaugeLastWriterWins) {
  obs::Gauge gauge;
  gauge.Set(41);
  gauge.Add(1);
  EXPECT_EQ(gauge.Value(), 42);
}

// -- histogram ---------------------------------------------------------

TEST(ObsHistogramTest, SnapshotTotalEqualsBinSum) {
  obs::HistogramMetric hist(1.0, 1000.0, 16);
  const double samples[] = {0.0, 0.5, 1.0, 7.0, 99.0, 999.0, 5000.0, -3.0};
  for (double x : samples) hist.Record(x);
  obs::HistogramMetric::Snapshot snap = hist.TakeSnapshot();
  int64_t sum = 0;
  for (int64_t c : snap.counts) sum += c;
  EXPECT_EQ(snap.total, sum);
  EXPECT_EQ(snap.total, 8);
  ASSERT_EQ(snap.edges.size(), snap.counts.size() + 1);
  EXPECT_EQ(hist.Count(), 8);
}

TEST(ObsHistogramTest, QuantilesBracketTheData) {
  obs::HistogramMetric hist(1.0, 4096.0, 48);
  for (int i = 1; i <= 1000; ++i) hist.Record(static_cast<double>(i));
  // Log-spaced bins with linear interpolation: coarse, but the median of
  // 1..1000 must land within its containing bin's neighborhood.
  double p50 = hist.Quantile(0.50);
  EXPECT_GT(p50, 250.0);
  EXPECT_LT(p50, 1000.0);
  double p99 = hist.Quantile(0.99);
  EXPECT_GE(p99, p50);
  EXPECT_LE(hist.Quantile(0.0), hist.Quantile(1.0));
  // Zero-lag samples land in the explicit [0, lo) underflow bin and
  // participate in quantiles (same-tick deliveries are the common case).
  obs::HistogramMetric zeros(1.0, 4096.0, 48);
  for (int i = 0; i < 100; ++i) zeros.Record(0.0);
  EXPECT_LT(zeros.Quantile(0.99), 1.0);
}

// -- trace recorder ----------------------------------------------------

TEST(ObsTraceTest, RingWraparoundKeepsNewestInOrder) {
  obs::TraceRecorder::Enable(/*ring_capacity=*/16);
  for (int i = 0; i < 100; ++i) {
    obs::TraceRecorder::Record(obs::TraceEvent::kReadStart, /*id=*/i,
                               /*now=*/i, /*arg=*/i);
  }
  obs::TraceRecorder::Disable();
  std::vector<obs::TraceRecord> dump = obs::TraceRecorder::DumpTrace();
  ASSERT_EQ(dump.size(), 16u);
  // Newest 16 of the 100, oldest first, seq strictly increasing.
  EXPECT_EQ(dump.front().arg, 84);
  EXPECT_EQ(dump.back().arg, 99);
  for (size_t i = 1; i < dump.size(); ++i) {
    EXPECT_LT(dump[i - 1].seq, dump[i].seq);
  }
  obs::TraceRecorder::Reset();
}

TEST(ObsTraceTest, DumpStitchesThreadsIntoOneOrderedStream) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  obs::TraceRecorder::Enable(/*ring_capacity=*/4096);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::TraceRecorder::Record(obs::TraceEvent::kBusEnqueue, /*id=*/t,
                                   /*now=*/i);
      }
    });
  }
  for (auto& t : threads) t.join();
  obs::TraceRecorder::Disable();
  std::vector<obs::TraceRecord> dump = obs::TraceRecorder::DumpTrace();
  ASSERT_EQ(dump.size(), static_cast<size_t>(kThreads * kPerThread));
  for (size_t i = 1; i < dump.size(); ++i) {
    EXPECT_LT(dump[i - 1].seq, dump[i].seq);  // one total order
  }
  // Within each recording thread, `now` must be nondecreasing along the
  // stitched stream — per-thread program order survives the merge.
  std::vector<int64_t> last_now(kThreads, -1);
  for (const obs::TraceRecord& r : dump) {
    ASSERT_GE(r.id, 0);
    ASSERT_LT(r.id, kThreads);
    EXPECT_GE(r.now, last_now[static_cast<size_t>(r.id)]);
    last_now[static_cast<size_t>(r.id)] = r.now;
  }
  obs::TraceRecorder::Reset();
}

TEST(ObsTraceTest, DisabledRecorderKeepsNothing) {
  obs::TraceRecorder::Reset();
  EXPECT_FALSE(obs::TraceRecorder::enabled());
  obs::TraceRecorder::Record(obs::TraceEvent::kReadStart, 1, 1);
  EXPECT_TRUE(obs::TraceRecorder::DumpTrace().empty());
  EXPECT_STREQ(obs::TraceEventName(obs::TraceEvent::kSeqlockRetry),
               "seqlock_retry");
}

// -- exporter ----------------------------------------------------------

// Every snapshot taken WHILE writers race must be internally consistent:
// the histogram total equals the sum of its bins, and counter values never
// go backwards across snapshots.
TEST(ObsExporterTest, SnapshotsConsistentUnderRacingWorkload) {
  obs::MetricsRegistry registry;
  obs::Counter counter;
  obs::HistogramMetric hist(1.0, 1000.0, 16);
  registry.RegisterCounter("race.counter", &counter);
  registry.RegisterHistogram("race.hist", &hist);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        counter.fetch_add(1, std::memory_order_relaxed);
        hist.Record(static_cast<double>(i++ % 1200));
      }
    });
  }
  int64_t last_counter = 0;
  for (int round = 0; round < 50; ++round) {
    obs::MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
    int64_t counter_now = snap.CounterValue("race.counter");
    EXPECT_GE(counter_now, last_counter);
    last_counter = counter_now;
    for (const auto& entry : snap.histograms) {
      int64_t sum = 0;
      for (int64_t c : entry.data.counts) sum += c;
      EXPECT_EQ(entry.data.total, sum) << entry.name;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();

  obs::SnapshotExporter exporter(&registry);
  std::string json = exporter.ToJson();
  EXPECT_NE(json.find("\"schema\": \"apcache-obs-v1\""), std::string::npos);
  // Quiesced: the document carries the exact final total.
  EXPECT_NE(json.find("\"race.counter\": " +
                      std::to_string(counter.load())),
            std::string::npos);
  EXPECT_NE(json.find("\"race.hist\""), std::string::npos);
}

TEST(ObsExporterTest, BackgroundExportWritesFile) {
  obs::MetricsRegistry registry;
  obs::Counter counter;
  registry.RegisterCounter("bg.counter", &counter);
  counter.fetch_add(7);

  std::string path = testing::TempDir() + "apcache_obs_export_test.json";
  obs::SnapshotExporter exporter(&registry);
  exporter.StartBackground(path, /*interval_ms=*/2);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  exporter.Stop();
  EXPECT_GE(exporter.exports_written(), 1);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {0};
  ASSERT_GT(std::fread(buf, 1, sizeof(buf) - 1, f), 0u);
  std::fclose(f);
  EXPECT_NE(std::string(buf).find("apcache-obs-v1"), std::string::npos);
  std::remove(path.c_str());
}

// -- engine registries -------------------------------------------------

// The registry view and the engines' own accessor surfaces are two reads
// of the SAME tallies: at quiescence they agree exactly.
TEST(ObsEngineTest, ShardedRegistryMatchesAccessors) {
  EngineConfig config;
  config.num_shards = 4;
  config.system.cache_capacity = 24;
  config.seed = kSeed;
  ShardedEngine engine(config, MakeSources(32));
  engine.PopulateInitial(0);
  for (int64_t now = 1; now <= 50; ++now) engine.TickAll(now);
  for (int id = 0; id < 32; ++id) engine.PointRead(id, 0.0, 51);

  const RuntimeCounters& counters = engine.counters();
  EXPECT_GT(counters.updates_applied.load(), 0);
  EXPECT_GT(counters.query_refreshes.load(), 0);

  obs::MetricsRegistry::Snapshot snap = engine.metrics().TakeSnapshot();
  EXPECT_EQ(snap.CounterValue("engine.updates_applied"),
            counters.updates_applied.load());
  EXPECT_EQ(snap.CounterValue("engine.value_refreshes"),
            counters.value_refreshes.load());
  EXPECT_EQ(snap.CounterValue("engine.query_refreshes"),
            counters.query_refreshes.load());
  EXPECT_EQ(snap.CounterValue("engine.lost_pushes"),
            counters.lost_pushes.load());
  EXPECT_EQ(snap.CounterValue("read.seqlock_retries"),
            counters.seqlock_retries.load());
}

TEST(ObsEngineTest, TieredRegistryMatchesLockSummedLossAccessors) {
  TieredConfig config;
  config.num_edges = 2;
  config.num_shards = 2;
  config.seed = kSeed;
  config.wan_push_loss = 0.5;
  config.lan_push_loss = 0.5;
  TieredEngine engine(config,
                      BuildRandomWalkStreams(24, RandomWalkParams{}, kSeed));
  engine.PopulateInitial(0);
  for (int64_t now = 1; now <= 80; ++now) engine.TickAll(now);
  for (int id = 0; id < 24; ++id) engine.Read(0, id, 0.0, 81);

  // The exact (lock-summed) accessors must see losses at these rates.
  EXPECT_GT(engine.lost_wan_pushes() + engine.lost_lan_pushes(), 0);
  // The lock-free registry tallies observe the same events one by one; at
  // quiescence the two views agree exactly.
  EXPECT_EQ(engine.counters().lost_wan_pushes.load(),
            engine.lost_wan_pushes());
  EXPECT_EQ(engine.counters().lost_lan_pushes.load(),
            engine.lost_lan_pushes());
  obs::MetricsRegistry::Snapshot snap = engine.metrics().TakeSnapshot();
  EXPECT_EQ(snap.CounterValue("tiered.reads"),
            engine.counters().reads.load());
  EXPECT_EQ(snap.CounterValue("tiered.lost_wan_pushes"),
            engine.lost_wan_pushes());
  EXPECT_EQ(snap.CounterValue("tiered.lost_lan_pushes"),
            engine.lost_lan_pushes());
}

// The bus's registry metrics count what was pushed and applied.
TEST(ObsEngineTest, BusMetricsMatchTraffic) {
  EngineConfig config;
  config.num_shards = 2;
  config.system.cache_capacity = 16;
  config.seed = kSeed;
  ShardedEngine engine(config, MakeSources(16));
  engine.PopulateInitial(0);
  ASSERT_TRUE(engine.StartUpdatePump());
  for (int64_t now = 1; now <= 64; ++now) {
    ASSERT_TRUE(engine.bus().Push({now, UpdateEvent::kAllSources}));
  }
  engine.StopUpdatePump();

  obs::MetricsRegistry::Snapshot snap = engine.metrics().TakeSnapshot();
  EXPECT_EQ(snap.CounterValue("bus.enqueued"), 64);
  // A tick-all broadcast is applied on every shard, one run per shard-lock
  // hold: enqueued counts accepted events once, drained counts per-shard
  // applications.
  EXPECT_EQ(snap.CounterValue("bus.drained"),
            64 * static_cast<int64_t>(engine.num_shards()));
  EXPECT_GT(snap.CounterValue("bus.drain_batches"), 0);
  EXPECT_EQ(snap.HistogramCount("bus.drain_batch_size"),
            snap.CounterValue("bus.drain_batches"));
}

TEST(ObsEngineTest, DeliveryLagHistogramFedByConsumers) {
  EngineConfig config;
  config.num_shards = 1;
  config.system.cache_capacity = 8;
  config.seed = kSeed;
  ShardedEngine engine(config, MakeSources(8));
  engine.PopulateInitial(0);
  engine.subscriptions().RecordDeliveryLag(0.0);
  engine.subscriptions().RecordDeliveryLag(3.0);
  engine.subscriptions().RecordDeliveryLag(200.0);
  obs::MetricsRegistry::Snapshot snap = engine.metrics().TakeSnapshot();
  EXPECT_EQ(snap.HistogramCount("subs.delivery_lag_ticks"), 3);
  EXPECT_GT(snap.HistogramQuantile("subs.delivery_lag_ticks", 0.99), 1.0);
}

}  // namespace
}  // namespace apc
