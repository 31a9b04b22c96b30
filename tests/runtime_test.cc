#include "runtime/sharded_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "cache/system.h"
#include "core/adaptive_policy.h"
#include "loud_instruments.h"
#include "query/query_gen.h"
#include "runtime/workload_driver.h"
#include "tick_batches.h"

namespace apc {
namespace {

constexpr uint64_t kSeed = 2001;

std::vector<std::unique_ptr<Source>> MakeSources(
    int n, const AdaptivePolicyParams& policy = AdaptivePolicyParams{}) {
  RandomWalkParams walk;
  return BuildRandomWalkSources(n, walk, policy, kSeed);
}

QueryWorkloadParams MakeWorkload(int num_sources) {
  QueryWorkloadParams params;
  params.num_sources = num_sources;
  params.group_size = 10;
  params.max_fraction = 0.25;
  params.min_fraction = 0.25;
  params.avg_fraction = 0.25;
  params.constraints.avg = 20.0;
  params.constraints.rho = 1.0;
  return params;
}

TEST(ShardedEngineTest, PartitionCoversEverySourceExactlyOnce) {
  EngineConfig config;
  config.num_shards = 4;
  config.system.cache_capacity = 30;
  ShardedEngine engine(config, MakeSources(64));
  EXPECT_EQ(engine.num_sources(), 64u);
  std::vector<size_t> counts = engine.ShardSourceCounts();
  ASSERT_EQ(counts.size(), 4u);
  size_t total = 0;
  for (int s = 0; s < engine.num_shards(); ++s) {
    total += counts[static_cast<size_t>(s)];
  }
  EXPECT_EQ(total, 64u);
  // Capacity slices sum exactly to χ.
  EXPECT_EQ(engine.regional_capacity(), 30u);
  // Every id is owned, by the shard ShardOf names: each shard hosts
  // exactly the ids routed to it.
  std::vector<size_t> routed(counts.size(), 0);
  for (int id = 0; id < 64; ++id) {
    EXPECT_TRUE(engine.Owns(id));
    ++routed[static_cast<size_t>(engine.ShardOf(id))];
  }
  EXPECT_EQ(routed, counts);
}

// The acceptance bar for the runtime: a single-shard engine driven in
// lockstep from one thread reproduces the sequential CacheSystem's cost
// accounting and query results tick for tick.
TEST(ShardedEngineTest, SingleShardMatchesCacheSystemExactly) {
  constexpr int kSources = 40;
  constexpr int64_t kTicks = 400;

  SystemConfig sys_config;
  sys_config.cache_capacity = 25;  // forces evictions and unbounded reads

  CacheSystem sequential(sys_config, MakeSources(kSources));
  sequential.PopulateInitial(0);
  sequential.costs().BeginMeasurement(0);

  EngineConfig engine_config;
  engine_config.system = sys_config;
  engine_config.num_shards = 1;
  ShardedEngine engine(engine_config, MakeSources(kSources));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  QueryGenerator sequential_queries(MakeWorkload(kSources), kSeed ^ 0x71);
  QueryGenerator engine_queries(MakeWorkload(kSources), kSeed ^ 0x71);

  for (int64_t t = 1; t <= kTicks; ++t) {
    sequential.Tick(t);
    engine.TickAll(t);
    Interval expected = sequential.ExecuteQuery(sequential_queries.Next(), t);
    Interval actual = engine.ExecuteQuery(engine_queries.Next(), t);
    ASSERT_EQ(actual, expected) << "diverged at tick " << t;
  }
  sequential.costs().EndMeasurement(kTicks);
  engine.EndMeasurement(kTicks);

  EngineCosts costs = engine.TotalCosts();
  EXPECT_EQ(costs.value_refreshes, sequential.costs().value_refreshes());
  EXPECT_EQ(costs.query_refreshes, sequential.costs().query_refreshes());
  EXPECT_DOUBLE_EQ(costs.total_cost, sequential.costs().total_cost());
  EXPECT_EQ(costs.measured_ticks, sequential.costs().measured_ticks());
  EXPECT_DOUBLE_EQ(costs.CostRate(), sequential.costs().CostRate());
  EXPECT_DOUBLE_EQ(engine.MeanRawWidth(), sequential.MeanRawWidth());
}

// What one engine run answered and charged: the quiet and loud passes of a
// harness must agree on all of it bit for bit.
struct EngineRun {
  std::vector<Interval> answers;
  EngineCosts costs;
  int64_t lost_pushes = 0;
  double mean_raw_width = 0.0;
};

void ExpectSameRun(const EngineRun& quiet, const EngineRun& loud) {
  EXPECT_EQ(quiet.answers, loud.answers);
  EXPECT_EQ(quiet.costs.value_refreshes, loud.costs.value_refreshes);
  EXPECT_EQ(quiet.costs.query_refreshes, loud.costs.query_refreshes);
  EXPECT_EQ(quiet.costs.total_cost, loud.costs.total_cost);
  EXPECT_EQ(quiet.costs.measured_ticks, loud.costs.measured_ticks);
  EXPECT_EQ(quiet.lost_pushes, loud.lost_pushes);
  EXPECT_EQ(quiet.mean_raw_width, loud.mean_raw_width);
}

// Lockstep parity harness shared by the drift-detection tests below: a
// single-shard engine and the sequential CacheSystem, built from identical
// source populations and driven tick-for-tick, must return the same
// intervals and account the same costs, since both sides drive the same
// ProtocolTable and a 1-thread optimistic read can never tear. Each call
// runs twice, quiet and then loud (every obs instrument live, see
// loud_instruments.h), and the two engine runs must also match each other
// bit for bit.
void ExpectLockstepParity(const SystemConfig& sys_config,
                          const AdaptivePolicyParams& policy,
                          const QueryWorkloadParams& workload,
                          int num_sources, int64_t ticks, uint64_t query_seed) {
  EngineRun runs[2];
  for (bool loud : {false, true}) {
    SCOPED_TRACE(loud ? "loud" : "quiet");
    CacheSystem sequential(sys_config, MakeSources(num_sources, policy),
                           kSeed);
    sequential.PopulateInitial(0);
    sequential.costs().BeginMeasurement(0);

    EngineConfig engine_config;
    engine_config.system = sys_config;
    engine_config.num_shards = 1;
    engine_config.seed = kSeed;
    ShardedEngine engine(engine_config, MakeSources(num_sources, policy));
    std::optional<LoudInstruments> instruments;
    if (loud) {
      instruments.emplace(engine,
                          ::testing::TempDir() + "apc_runtime_loud.json");
    }
    engine.PopulateInitial(0);
    engine.BeginMeasurement(0);

    EngineRun& run = runs[loud ? 1 : 0];
    QueryGenerator sequential_queries(workload, query_seed);
    QueryGenerator engine_queries(workload, query_seed);
    for (int64_t t = 1; t <= ticks; ++t) {
      sequential.Tick(t);
      engine.TickAll(t);
      Interval expected =
          sequential.ExecuteQuery(sequential_queries.Next(), t);
      Interval actual = engine.ExecuteQuery(engine_queries.Next(), t);
      ASSERT_EQ(actual, expected) << "diverged at tick " << t;
      run.answers.push_back(actual);
    }
    sequential.costs().EndMeasurement(ticks);
    engine.EndMeasurement(ticks);

    EXPECT_EQ(engine.lost_pushes(), sequential.lost_pushes());
    EngineCosts costs = engine.TotalCosts();
    EXPECT_EQ(costs.value_refreshes, sequential.costs().value_refreshes());
    EXPECT_EQ(costs.query_refreshes, sequential.costs().query_refreshes());
    EXPECT_DOUBLE_EQ(costs.total_cost, sequential.costs().total_cost());
    EXPECT_DOUBLE_EQ(engine.MeanRawWidth(), sequential.MeanRawWidth());
    run.costs = costs;
    run.lost_pushes = engine.lost_pushes();
    run.mean_raw_width = engine.MeanRawWidth();
    if (instruments) instruments->ExpectObserved();
  }
  ExpectSameRun(runs[0], runs[1]);
}

// Satellite: the parity net must catch drift in the delta0/delta1
// threshold-snapping path — raw widths retained while effective widths
// snap to 0 (exact copies) or infinity (effectively uncached) — because
// that is where a shared-core regression would hide: pulls of unbounded
// entries and pushes of exact copies dominate the charging.
TEST(ShardedEngineTest, LockstepParityWithThresholdSnapping) {
  SystemConfig sys_config;
  sys_config.cache_capacity = 20;

  // theta = 1: deterministic width moves, so lockstep raw widths walk the
  // powers of two in [1, 16] under this workload — both thresholds sit
  // inside that range and genuinely fire (asserted below).
  AdaptivePolicyParams policy;
  policy.delta0 = 1.5;   // widths below ship as exact copies
  policy.delta1 = 12.0;  // widths at/above ship as unbounded

  QueryWorkloadParams workload = MakeWorkload(30);
  workload.constraints.avg = 10.0;  // tight enough that pulls shrink widths
  ExpectLockstepParity(sys_config, policy, workload, /*num_sources=*/30,
                       /*ticks=*/300, kSeed ^ 0x5A);

  // The thresholds genuinely fired: drive one system again and observe
  // both snapped-to-zero and snapped-to-infinity shipments.
  CacheSystem probe(sys_config, MakeSources(30, policy), kSeed);
  probe.PopulateInitial(0);
  QueryGenerator queries(workload, kSeed ^ 0x5A);
  bool snapped_exact = false;
  bool snapped_unbounded = false;
  for (int64_t t = 1; t <= 300; ++t) {
    probe.Tick(t);
    probe.ExecuteQuery(queries.Next(), t);
    for (int id = 0; id < 30; ++id) {
      double effective = probe.source(id)->cell().EffectiveWidth();
      snapped_exact = snapped_exact || effective == 0.0;
      snapped_unbounded = snapped_unbounded || effective == kInfinity;
    }
  }
  EXPECT_TRUE(snapped_exact) << "delta0 never snapped: weak test setup";
  EXPECT_TRUE(snapped_unbounded) << "delta1 never snapped: weak test setup";
}

// Satellite: MAX/MIN candidate elimination under push-loss injection —
// lost pushes leave stale cached intervals, so the elimination order (and
// which shard-side runs it batches) is stressed far harder than under
// reliable delivery. The engine must still match the sequential system
// pull-for-pull.
TEST(ShardedEngineTest, LockstepParityMaxMinUnderPushLoss) {
  SystemConfig sys_config;
  sys_config.cache_capacity = 18;
  sys_config.push_loss_probability = 0.25;

  QueryWorkloadParams workload = MakeWorkload(24);
  workload.max_fraction = 0.45;
  workload.min_fraction = 0.45;
  workload.avg_fraction = 0.0;

  ExpectLockstepParity(sys_config, AdaptivePolicyParams{}, workload,
                       /*num_sources=*/24, /*ticks=*/300, kSeed ^ 0x5B);
}

// The guarantee extends to failure injection: shard 0 inherits the engine
// seed unmangled, so a seed-matched single-shard engine draws the same
// push-loss Bernoulli stream as the CacheSystem and loses the same pushes.
TEST(ShardedEngineTest, SingleShardMatchesCacheSystemUnderPushLoss) {
  constexpr int kSources = 30;
  constexpr int64_t kTicks = 300;

  SystemConfig sys_config;
  sys_config.cache_capacity = 20;
  sys_config.push_loss_probability = 0.2;

  CacheSystem sequential(sys_config, MakeSources(kSources), kSeed);
  sequential.PopulateInitial(0);
  sequential.costs().BeginMeasurement(0);

  EngineConfig engine_config;
  engine_config.system = sys_config;
  engine_config.num_shards = 1;
  engine_config.seed = kSeed;
  ShardedEngine engine(engine_config, MakeSources(kSources));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  QueryGenerator sequential_queries(MakeWorkload(kSources), kSeed ^ 0x72);
  QueryGenerator engine_queries(MakeWorkload(kSources), kSeed ^ 0x72);
  for (int64_t t = 1; t <= kTicks; ++t) {
    sequential.Tick(t);
    engine.TickAll(t);
    Interval expected = sequential.ExecuteQuery(sequential_queries.Next(), t);
    Interval actual = engine.ExecuteQuery(engine_queries.Next(), t);
    ASSERT_EQ(actual, expected) << "diverged at tick " << t;
  }
  sequential.costs().EndMeasurement(kTicks);
  engine.EndMeasurement(kTicks);

  EXPECT_GT(engine.lost_pushes(), 0) << "injection never fired";
  EXPECT_EQ(engine.lost_pushes(), sequential.lost_pushes());
  EngineCosts costs = engine.TotalCosts();
  EXPECT_EQ(costs.value_refreshes, sequential.costs().value_refreshes());
  EXPECT_EQ(costs.query_refreshes, sequential.costs().query_refreshes());
  EXPECT_DOUBLE_EQ(costs.total_cost, sequential.costs().total_cost());
}

// Updates delivered through the bus (both the batched tick-all form and
// per-source events, one tick's ids per PushBatch, which the bus splits
// into same-shard runs) must land exactly like synchronous lockstep
// ticks.
TEST(ShardedEngineTest, UpdateBusMatchesSynchronousTicks) {
  constexpr int kSources = 24;
  constexpr int64_t kTicks = 120;
  EngineConfig config;
  config.num_shards = 3;
  config.system.cache_capacity = 18;

  ShardedEngine lockstep(config, MakeSources(kSources));
  lockstep.PopulateInitial(0);
  lockstep.BeginMeasurement(0);
  for (int64_t t = 1; t <= kTicks; ++t) lockstep.TickAll(t);
  lockstep.EndMeasurement(kTicks);

  ShardedEngine via_tick_all(config, MakeSources(kSources));
  via_tick_all.PopulateInitial(0);
  via_tick_all.BeginMeasurement(0);
  via_tick_all.StartUpdatePump();
  for (int64_t t = 1; t <= kTicks; ++t) {
    ASSERT_TRUE(via_tick_all.bus().Push({t, UpdateEvent::kAllSources}));
  }
  via_tick_all.StopUpdatePump();
  via_tick_all.EndMeasurement(kTicks);

  ShardedEngine via_per_source(config, MakeSources(kSources));
  via_per_source.PopulateInitial(0);
  via_per_source.BeginMeasurement(0);
  via_per_source.StartUpdatePump();
  std::vector<UpdateEvent> tick(kSources);
  for (int64_t t = 1; t <= kTicks; ++t) {
    for (int id = 0; id < kSources; ++id) {
      tick[static_cast<size_t>(id)] = {t, id};
    }
    ASSERT_EQ(via_per_source.bus().PushBatch(tick.data(), tick.size()),
              tick.size());
  }
  via_per_source.StopUpdatePump();
  via_per_source.EndMeasurement(kTicks);

  EngineCosts expected = lockstep.TotalCosts();
  for (ShardedEngine* engine : {&via_tick_all, &via_per_source}) {
    EngineCosts actual = engine->TotalCosts();
    EXPECT_EQ(actual.value_refreshes, expected.value_refreshes);
    EXPECT_DOUBLE_EQ(actual.total_cost, expected.total_cost);
    EXPECT_DOUBLE_EQ(engine->MeanRawWidth(), lockstep.MeanRawWidth());
  }
  EXPECT_EQ(via_per_source.counters().updates_applied.load(),
            kSources * kTicks);
}

// A pushed run is applied event by event under one shard hold. Each
// PushBatch below carries two multi-event runs: two tick-alls, which reach
// every shard as one run, then single-id ticks of ids that share a shard,
// one id twice. With evictions and push loss on, every offer and loss
// draw must land as in the same sequence applied synchronously. A small
// alpha keeps widths from outgrowing the walk, so refreshes stay frequent
// through the run.
TEST(ShardedEngineTest, MultiEventBurstsMatchSynchronousTicks) {
  constexpr int kSources = 24;
  constexpr int64_t kTicks = 40;
  EngineConfig config;
  config.num_shards = 3;
  config.system.cache_capacity = 18;
  config.system.push_loss_probability = 0.2;
  AdaptivePolicyParams policy;
  policy.alpha = 0.1;

  ShardedEngine lockstep(config, MakeSources(kSources, policy));
  const std::vector<int> kSingles = OneShardSingles(lockstep);
  const std::vector<std::vector<UpdateEvent>> batches =
      TickPairBatches(kTicks, kSingles);
  lockstep.PopulateInitial(0);
  lockstep.BeginMeasurement(0);
  TickInLockstep(lockstep, batches);
  lockstep.EndMeasurement(kTicks);

  ShardedEngine bursts(config, MakeSources(kSources, policy));
  bursts.PopulateInitial(0);
  bursts.BeginMeasurement(0);
  for (const std::vector<UpdateEvent>& batch : batches) {
    ASSERT_EQ(bursts.bus().PushBatch(batch.data(), batch.size()),
              batch.size());
  }
  bursts.EndMeasurement(kTicks);

  EngineCosts expected = lockstep.TotalCosts();
  EngineCosts actual = bursts.TotalCosts();
  EXPECT_EQ(actual.value_refreshes, expected.value_refreshes);
  EXPECT_EQ(actual.query_refreshes, expected.query_refreshes);
  EXPECT_EQ(actual.total_cost, expected.total_cost);
  EXPECT_EQ(bursts.lost_pushes(), lockstep.lost_pushes());
  EXPECT_GT(lockstep.lost_pushes(), 0) << "loss draws must be exercised";
  EXPECT_EQ(bursts.MeanRawWidth(), lockstep.MeanRawWidth());
  for (int id = 0; id < kSources; ++id) {
    EXPECT_EQ(bursts.regional_interval(id, kTicks),
              lockstep.regional_interval(id, kTicks))
        << "id " << id;
    EXPECT_EQ(bursts.ExactValue(id), lockstep.ExactValue(id)) << "id " << id;
  }
  EXPECT_EQ(bursts.counters().updates_applied.load(),
            kTicks * static_cast<int64_t>(kSources + kSingles.size()));
}

// Several producers on a 3-shard engine: four threads push single-id
// ticks for disjoint id sets, each push applying its own event before it
// returns. Once they join — before any Stop — every event is applied, and
// without loss or eviction the result matches a synchronous TickSource
// replay bit for bit.
TEST(ShardedEngineTest, ConcurrentProducersMatchSynchronousTicks) {
  constexpr int kSources = 24;
  constexpr int kProducers = 4;
  constexpr int64_t kTicks = 100;
  EngineConfig config;
  config.num_shards = 3;

  ShardedEngine lockstep(config, MakeSources(kSources));
  lockstep.PopulateInitial(0);
  lockstep.BeginMeasurement(0);
  for (int64_t t = 1; t <= kTicks; ++t) {
    for (int id = 0; id < kSources; ++id) lockstep.TickSource(id, t);
  }
  lockstep.EndMeasurement(kTicks);

  ShardedEngine pushed(config, MakeSources(kSources));
  pushed.PopulateInitial(0);
  pushed.BeginMeasurement(0);
  ASSERT_TRUE(pushed.StartUpdatePump());
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pushed, p] {
      for (int64_t t = 1; t <= kTicks; ++t) {
        for (int id = p; id < kSources; id += kProducers) {
          ASSERT_TRUE(pushed.bus().Push({t, id}));
        }
      }
    });
  }
  for (auto& producer : producers) producer.join();
  EXPECT_EQ(pushed.counters().updates_applied.load(), kSources * kTicks)
      << "an event waited for a later push";
  pushed.EndMeasurement(kTicks);

  EngineCosts expected = lockstep.TotalCosts();
  EngineCosts actual = pushed.TotalCosts();
  EXPECT_EQ(actual.value_refreshes, expected.value_refreshes);
  EXPECT_EQ(actual.query_refreshes, expected.query_refreshes);
  EXPECT_EQ(actual.total_cost, expected.total_cost);
  for (int id = 0; id < kSources; ++id) {
    EXPECT_EQ(pushed.regional_interval(id, kTicks),
              lockstep.regional_interval(id, kTicks))
        << "id " << id;
    EXPECT_EQ(pushed.regional_raw_width(id), lockstep.regional_raw_width(id))
        << "id " << id;
    EXPECT_EQ(pushed.ExactValue(id), lockstep.ExactValue(id)) << "id " << id;
  }
  pushed.StopUpdatePump();
}

// A push needs no StartUpdatePump: the pushing thread applies it before
// PushBatch returns, exactly as the same ticks applied synchronously.
TEST(ShardedEngineTest, PushBeforeStartUpdatePumpIsAppliedOnReturn) {
  constexpr int kSources = 12;
  EngineConfig config;
  config.num_shards = 3;
  config.system.cache_capacity = kSources;
  ShardedEngine lockstep(config, MakeSources(kSources));
  lockstep.PopulateInitial(0);
  lockstep.TickAll(1);
  lockstep.TickSource(4, 1);

  ShardedEngine engine(config, MakeSources(kSources));
  engine.PopulateInitial(0);
  const UpdateEvent events[2] = {{1, UpdateEvent::kAllSources}, {1, 4}};
  ASSERT_EQ(engine.bus().PushBatch(events, 2), 2u);
  EXPECT_EQ(engine.counters().updates_applied.load(), kSources + 1);
  for (int id = 0; id < kSources; ++id) {
    EXPECT_EQ(engine.regional_interval(id, 1),
              lockstep.regional_interval(id, 1))
        << "id " << id;
    EXPECT_EQ(engine.ExactValue(id), lockstep.ExactValue(id)) << "id " << id;
  }
}

TEST(ShardedEngineTest, PumpCannotRestartAfterStop) {
  EngineConfig config;
  config.system.cache_capacity = 8;
  ShardedEngine engine(config, MakeSources(12));
  engine.PopulateInitial(0);
  EXPECT_TRUE(engine.StartUpdatePump());
  EXPECT_TRUE(engine.StartUpdatePump());  // already running
  engine.StopUpdatePump();
  EXPECT_FALSE(engine.StartUpdatePump())
      << "a closed bus must not reopen";

  // A driver run against the consumed engine still completes; it just sees
  // static values (no ticks).
  DriverConfig driver;
  driver.num_threads = 1;
  driver.queries_per_thread = 10;
  driver.workload = MakeWorkload(12);
  driver.run_updates = true;
  DriverReport report = RunWorkload(engine, driver);
  EXPECT_EQ(report.queries, 10);
  EXPECT_EQ(report.ticks, 0);
  EXPECT_EQ(report.violations, 0);
}

TEST(ShardedEngineTest, PointReadPullsOnlyWhenTooWide) {
  EngineConfig config;
  config.num_shards = 2;
  config.system.cache_capacity = 8;
  ShardedEngine engine(config, MakeSources(8));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  // Initial approximations have width 1 (AdaptivePolicyParams default).
  Interval loose = engine.PointRead(3, /*max_width=*/2.0, /*now=*/0);
  EXPECT_LE(loose.Width(), 2.0);
  EXPECT_EQ(engine.TotalCosts().query_refreshes, 0)
      << "a wide-enough bound must be served from the cache";

  Interval tight = engine.PointRead(3, /*max_width=*/0.0, /*now=*/0);
  EXPECT_TRUE(tight.IsExact());
  EXPECT_EQ(engine.TotalCosts().query_refreshes, 1);
  EXPECT_EQ(engine.counters().queries_executed.load(), 2);
}

// Concurrency smoke: many query threads race the update path; every result
// must still satisfy its precision constraint, and the atomic counters must
// agree with the mutex-guarded cost trackers once quiescent.
TEST(ShardedEngineTest, ConcurrentQueriesRespectPrecisionConstraints) {
  constexpr int kSources = 64;
  EngineConfig config;
  config.num_shards = 4;
  config.system.cache_capacity = 48;
  ShardedEngine engine(config, MakeSources(kSources));

  DriverConfig driver;
  driver.num_threads = 4;
  driver.queries_per_thread = 300;
  driver.workload = MakeWorkload(kSources);
  driver.run_updates = true;
  driver.point_read_fraction = 0.2;
  driver.seed = kSeed;
  DriverReport report = RunWorkload(engine, driver);

  EXPECT_EQ(report.queries, 4 * 300);
  EXPECT_EQ(report.violations, 0)
      << "a returned interval exceeded its precision constraint";
  EXPECT_GT(report.ticks, 0) << "updater made no progress";
  EXPECT_GT(report.queries_per_second, 0.0);
  EXPECT_EQ(engine.counters().queries_executed.load(), report.queries);

  EngineCosts costs = engine.TotalCosts();
  EXPECT_EQ(engine.counters().value_refreshes.load(), costs.value_refreshes);
  EXPECT_EQ(engine.counters().query_refreshes.load(), costs.query_refreshes);
  EXPECT_GT(costs.query_refreshes, 0);
  EXPECT_GT(costs.value_refreshes, 0);
}

// An UpdateEvent carrying an id no shard owns once threw out of an id-map
// lookup on the thread applying it and terminated the process. It must be
// skipped and counted instead.
TEST(ShardedEngineTest, UnknownSourceIdUpdatesAreSkippedAndCounted) {
  constexpr int kSources = 12;
  EngineConfig config;
  config.num_shards = 2;
  config.system.cache_capacity = 8;
  ShardedEngine engine(config, MakeSources(kSources));
  engine.PopulateInitial(0);

  ASSERT_TRUE(engine.StartUpdatePump());
  ASSERT_TRUE(engine.bus().Push({1, 500}));   // not a registered id
  ASSERT_TRUE(engine.bus().Push({1, 3}));     // valid
  ASSERT_TRUE(engine.bus().Push({2, -99}));   // negative, not kAllSources
  engine.StopUpdatePump();  // the applying thread must survive

  EXPECT_EQ(engine.counters().rejected_updates.load(), 2);
  EXPECT_EQ(engine.counters().updates_applied.load(), 1);

  // The synchronous single-source path takes the same guard.
  engine.TickSource(777, 3);
  EXPECT_EQ(engine.counters().rejected_updates.load(), 3);
}

// Satellite fix: duplicate-id sources used to be silently dropped by the
// shard while the engine still counted them, so num_sources() disagreed
// with the sum of ShardSourceCounts().
TEST(ShardedEngineTest, DuplicateSourceIdsRejectedAndNotCounted) {
  std::vector<std::unique_ptr<Source>> sources = MakeSources(10);
  for (auto& dup : MakeSources(5)) {  // ids 0..4 again
    sources.push_back(std::move(dup));
  }
  sources.push_back(nullptr);

  EngineConfig config;
  config.num_shards = 4;
  config.system.cache_capacity = 8;
  ShardedEngine engine(config, std::move(sources));

  EXPECT_EQ(engine.num_sources(), 10u);
  size_t hosted = 0;
  for (size_t count : engine.ShardSourceCounts()) hosted += count;
  EXPECT_EQ(hosted, engine.num_sources());

  // The engine remains fully usable after rejecting the duplicates.
  engine.PopulateInitial(0);
  EXPECT_TRUE(engine.PointRead(3, 0.0, 0).IsExact());
}

// Satellite fix: a source id occurring twice in one query used to be
// pulled — and charged Cqr — once per occurrence.
TEST(ShardedEngineTest, DuplicateIdsInOneQueryChargeOnce) {
  EngineConfig config;
  config.num_shards = 2;
  config.system.cache_capacity = 8;
  ShardedEngine engine(config, MakeSources(8));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  Query sum;
  sum.kind = AggregateKind::kSum;
  sum.source_ids = {3, 3, 7};
  sum.constraint = 0.0;  // forces every distinct id exact
  Interval sum_result = engine.ExecuteQuery(sum, 0);
  EXPECT_TRUE(sum_result.IsExact());
  EXPECT_EQ(engine.TotalCosts().query_refreshes, 2)
      << "duplicate id 3 must be charged once";

  Query max;
  max.kind = AggregateKind::kMax;
  max.source_ids = {5, 5};
  max.constraint = 0.0;
  Interval max_result = engine.ExecuteQuery(max, 0);
  EXPECT_TRUE(max_result.IsExact());
  EXPECT_EQ(engine.TotalCosts().query_refreshes, 3)
      << "MAX elimination must not re-select the twin of a pulled id";
}

// Malformed query ids (no owning shard) are dropped and counted, never
// fatal: the aggregate ranges over the known sources, a point read sees
// the unbounded interval, and nothing is charged for the unknown id.
TEST(ShardedEngineTest, UnknownQueryIdsAreDroppedNotFatal) {
  EngineConfig config;
  config.num_shards = 2;
  config.system.cache_capacity = 8;
  ShardedEngine engine(config, MakeSources(8));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  Query sum;
  sum.kind = AggregateKind::kSum;
  sum.source_ids = {2, 999};
  sum.constraint = 0.0;
  Interval result = engine.ExecuteQuery(sum, 0);
  EXPECT_TRUE(result.IsExact()) << "the known id must still be aggregated";
  EXPECT_EQ(engine.TotalCosts().query_refreshes, 1);
  EXPECT_EQ(engine.counters().rejected_query_ids.load(), 1);

  Interval unbounded = engine.PointRead(999, 1e12, 0);
  EXPECT_EQ(unbounded.Width(), kInfinity);
  EXPECT_EQ(engine.TotalCosts().query_refreshes, 1) << "no charge";
  EXPECT_EQ(engine.counters().rejected_query_ids.load(), 2);
}

// A NaN or negative constraint can never be met, so each such read would
// pull (Cqr) under the exclusive shard lock. Both read entry points answer
// it with the unbounded interval instead, charge-free, and count it; +inf
// stays a valid constraint that a cached interval meets.
TEST(ShardedEngineTest, InvalidConstraintsAreRejectedChargeFree) {
  constexpr int kSources = 8;
  EngineConfig config;
  config.num_shards = 2;
  config.system.cache_capacity = kSources;
  ShardedEngine engine(config, MakeSources(kSources));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  int64_t rejected = 0;
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    EXPECT_TRUE(engine.PointRead(3, bad, 0).IsUnbounded());
    for (AggregateKind kind : {AggregateKind::kSum, AggregateKind::kAvg,
                               AggregateKind::kMax, AggregateKind::kMin}) {
      Query query;
      query.kind = kind;
      query.source_ids = {0, 1, 2, 3, 4, 5, 6, 7};
      query.constraint = bad;
      EXPECT_TRUE(engine.ExecuteQuery(query, 0).IsUnbounded());
    }
    rejected += 5;
    EXPECT_EQ(engine.counters().rejected_constraints.load(), rejected);
  }
  EXPECT_EQ(engine.counters().query_refreshes.load(), 0);
  EngineCosts costs = engine.TotalCosts();
  EXPECT_EQ(costs.query_refreshes, 0);
  EXPECT_EQ(costs.total_cost, 0.0);

  Interval loose = engine.PointRead(3, kInfinity, 0);
  EXPECT_FALSE(loose.IsUnbounded()) << "+inf is met by the cached interval";
  EXPECT_EQ(engine.counters().rejected_constraints.load(), rejected);
  EXPECT_EQ(engine.TotalCosts().query_refreshes, 0);
}

// Tentpole property: snapshot readers (FillIntervals via ExecuteQuery,
// plus the observability snapshots) keep making progress while a writer
// cycles TickAll. With every value cached and constraints far wider than
// any interval, no query ever upgrades to an exclusive pull — the whole
// read side runs on shared locks and must finish with zero refcharges.
TEST(ShardedEngineTest, ConcurrentReadersProgressWhileWriterCycles) {
  constexpr int kSources = 64;
  EngineConfig config;
  config.num_shards = 4;
  // χ is partitioned across shards; 4× the source count guarantees every
  // shard's slice covers the sources hashed to it, so everything stays
  // cached and no read ever sees the unbounded interval.
  config.system.cache_capacity = kSources * 4;
  ShardedEngine engine(config, MakeSources(kSources));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  QueryWorkloadParams workload = MakeWorkload(kSources);
  workload.constraints.avg = 1e7;  // far wider than any cached interval
  workload.constraints.rho = 0.5;

  std::atomic<bool> stop{false};
  std::atomic<int64_t> ticks{0};
  std::thread writer([&] {
    for (int64_t t = 1; !stop.load(std::memory_order_relaxed); ++t) {
      engine.TickAll(t);
      ticks.store(t, std::memory_order_relaxed);
    }
  });
  std::vector<std::thread> readers;
  std::atomic<int64_t> completed{0};
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      // The quota side starts after the writer's first tick, so the
      // readers can never finish before the writer was scheduled.
      while (ticks.load(std::memory_order_relaxed) == 0) {
        std::this_thread::yield();
      }
      QueryGenerator gen(workload, kSeed + 100 + static_cast<uint64_t>(r));
      for (int q = 0; q < 500; ++q) {
        int64_t now = ticks.load(std::memory_order_relaxed);
        Interval result = engine.ExecuteQuery(gen.Next(), now);
        ASSERT_LT(result.Width(), 1e7);
        engine.TotalCosts();
        engine.MeanRawWidth();
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& reader : readers) reader.join();
  stop.store(true);
  writer.join();

  EXPECT_EQ(completed.load(), 4 * 500);
  EXPECT_GT(ticks.load(), 0) << "writer made no progress";
  EXPECT_EQ(engine.TotalCosts().query_refreshes, 0)
      << "a loose-constraint read took the exclusive pull path";
}

// Direct (driver-less) races: raw ExecuteQuery and PointRead callers
// against raw TickAll callers, exercising the snapshot path (seqlock
// validation, the shared-lock settle of a torn aggregate read, the
// exclusive re-check of a torn point read) without any bus in between.
TEST(ShardedEngineTest, RawConcurrentAccessKeepsGuarantee) {
  constexpr int kSources = 32;
  EngineConfig config;
  config.num_shards = 2;
  config.system.cache_capacity = 24;
  ShardedEngine engine(config, MakeSources(kSources));
  engine.PopulateInitial(0);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> violations{0};
  std::thread ticker([&] {
    for (int64_t t = 1; !stop.load(std::memory_order_relaxed); ++t) {
      engine.TickAll(t);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      QueryGenerator gen(MakeWorkload(kSources),
                         kSeed + static_cast<uint64_t>(r));
      for (int q = 0; q < 200; ++q) {
        Query query = gen.Next();
        Interval result = (q % 4 == 3)
                              ? engine.PointRead(query.source_ids.front(),
                                                 query.constraint, q)
                              : engine.ExecuteQuery(query, q);
        if (result.Width() > query.constraint + 1e-9) ++violations;
      }
    });
  }
  for (auto& reader : readers) reader.join();
  stop.store(true);
  ticker.join();
  EXPECT_EQ(violations.load(), 0) << "constraint violated";
}

// Satellite: EngineConfig is validated in full — more shards than cache
// capacity would leave some shard with a zero-entry χ slice.
TEST(ShardedEngineTest, EngineConfigValidationRejectsBadConfigs) {
  EngineConfig config;
  config.system.cache_capacity = 8;
  config.num_shards = 4;
  EXPECT_TRUE(config.IsValid());

  EngineConfig too_many_shards = config;
  too_many_shards.num_shards = 9;  // > cache_capacity
  EXPECT_FALSE(too_many_shards.IsValid());

  EngineConfig bad_loss = config;
  bad_loss.system.push_loss_probability = 1.5;
  EXPECT_FALSE(bad_loss.IsValid());

  EngineConfig bad_costs = config;
  bad_costs.system.costs.cvr = 0.0;
  EXPECT_FALSE(bad_costs.IsValid());
}

// Satellite: a source carrying an invalid AdaptivePolicyParams set is
// rejected at engine construction — counted, not allowed to poison widths
// mid-run.
TEST(ShardedEngineTest, InvalidPolicySourcesRejectedAtConstruction) {
  std::vector<std::unique_ptr<Source>> sources = MakeSources(6);

  AdaptivePolicyParams bad;
  bad.alpha = -0.5;  // outside the documented domain
  ASSERT_FALSE(bad.IsValid());
  sources.push_back(std::make_unique<Source>(
      100, std::make_unique<RandomWalkStream>(RandomWalkParams{}, 1),
      std::make_unique<AdaptivePolicy>(bad, 1)));

  EngineConfig config;
  config.num_shards = 2;
  config.system.cache_capacity = 8;
  ShardedEngine engine(config, std::move(sources));

  EXPECT_EQ(engine.num_sources(), 6u) << "the bad source must be dropped";
  EXPECT_EQ(engine.counters().rejected_sources.load(), 1);
  EXPECT_FALSE(engine.Owns(100));
}

// Satellite: the malformed-input tallies reach the DriverReport (and from
// there the bench JSON), so rejection rates land in the committed
// trajectory instead of dying with the process.
TEST(ShardedEngineTest, DriverReportSurfacesRejectedCounts) {
  EngineConfig config;
  config.num_shards = 2;
  config.system.cache_capacity = 8;
  ShardedEngine engine(config, MakeSources(12));
  engine.PopulateInitial(0);

  Query bad_sum;
  bad_sum.kind = AggregateKind::kSum;
  bad_sum.source_ids = {1, 999};
  bad_sum.constraint = 1e6;
  engine.ExecuteQuery(bad_sum, 0);        // 999 -> rejected_query_ids
  engine.TickSource(777, 0);              // 777 -> rejected_updates

  DriverConfig driver;
  driver.num_threads = 1;
  driver.queries_per_thread = 20;
  driver.workload = MakeWorkload(12);
  driver.run_updates = true;
  DriverReport report = RunWorkload(engine, driver);
  EXPECT_EQ(report.rejected_query_ids, 1);
  EXPECT_EQ(report.rejected_updates, 1);
  EXPECT_EQ(report.violations, 0);
}

}  // namespace
}  // namespace apc
