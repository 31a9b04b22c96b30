#include "runtime/workload_driver.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

namespace apc {
namespace {

constexpr uint64_t kSeed = 31;
constexpr int kSources = 16;

std::vector<std::unique_ptr<Source>> MakeSources(int n) {
  return BuildRandomWalkSources(n, RandomWalkParams{},
                                AdaptivePolicyParams{}, kSeed);
}

QueryWorkloadParams MakeWorkload(int num_sources) {
  QueryWorkloadParams params;
  params.num_sources = num_sources;
  params.group_size = 4;
  params.max_fraction = 0.25;
  params.min_fraction = 0.25;
  params.constraints.avg = 20.0;
  params.constraints.rho = 1.0;
  return params;
}

ShardedEngine MakeEngine(int shards) {
  EngineConfig config;
  config.num_shards = shards;
  config.system.cache_capacity = kSources * 3 / 4;
  return ShardedEngine(config, MakeSources(kSources));
}

// Satellite fix: report.ticks (and the EndMeasurement clock feeding
// CostRate()) must count only updates the bus ACCEPTED. Closing the bus
// mid-run — legal through the public API — used to leave the clock
// advanced past a rejected push. The invariant below holds for every
// interleaving: each accepted tick-all event applies exactly one update
// per source, so updates_applied == ticks * num_sources.
TEST(WorkloadDriverTest, TickCountOnlyCountsAcceptedPushes) {
  ShardedEngine engine = MakeEngine(2);

  DriverConfig config;
  config.num_threads = 2;
  config.queries_per_thread = 4000;
  config.workload = MakeWorkload(kSources);
  config.run_updates = true;
  config.update_burst = 64;
  config.seed = kSeed;

  DriverReport report;
  std::thread runner(
      [&] { report = RunWorkload(engine, config); });
  // Close the bus while the updater is streaming; the burst it refuses
  // must not count.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  engine.bus().Close();
  runner.join();

  EXPECT_EQ(report.queries, 2 * 4000);
  EXPECT_EQ(engine.counters().updates_applied.load(),
            report.ticks * kSources);
  EXPECT_EQ(report.costs.measured_ticks, report.ticks);
}

// The invariant also holds for a run that shuts down normally.
TEST(WorkloadDriverTest, TickAccountingConsistentOnCleanShutdown) {
  ShardedEngine engine = MakeEngine(2);

  DriverConfig config;
  config.num_threads = 2;
  config.queries_per_thread = 500;
  config.workload = MakeWorkload(kSources);
  config.run_updates = true;
  config.seed = kSeed;

  DriverReport report = RunWorkload(engine, config);
  EXPECT_GT(report.ticks, 0);
  EXPECT_EQ(engine.counters().updates_applied.load(),
            report.ticks * kSources);
  EXPECT_EQ(report.costs.measured_ticks, report.ticks);
  EXPECT_EQ(report.violations, 0);
}

TEST(WorkloadDriverTest, PhaseScheduleRunsEveryPhase) {
  ShardedEngine engine = MakeEngine(4);

  DriverConfig config;
  config.num_threads = 3;
  config.workload = MakeWorkload(kSources);
  config.run_updates = true;
  config.seed = kSeed;
  config.phases.resize(3);
  config.phases[0] = {/*queries_per_thread=*/200,
                      /*point_read_fraction=*/0.9, /*zipf_s=*/1.2,
                      /*update_burst=*/4};
  config.phases[1] = {/*queries_per_thread=*/100,
                      /*point_read_fraction=*/0.1, /*zipf_s=*/0.0,
                      /*update_burst=*/32};
  config.phases[2] = {/*queries_per_thread=*/150,
                      /*point_read_fraction=*/1.0, /*zipf_s=*/0.6,
                      /*update_burst=*/8};

  DriverReport report = RunWorkload(engine, config);
  EXPECT_EQ(report.queries, 3 * (200 + 100 + 150));
  EXPECT_EQ(engine.counters().queries_executed.load(), report.queries);
  EXPECT_EQ(report.violations, 0)
      << "phase shifts must not break the precision guarantee";
  EXPECT_EQ(engine.counters().updates_applied.load(),
            report.ticks * kSources);
}

// update_burst == 0 pauses the updater for the phase: a run whose only
// phase is paused streams no ticks even though run_updates is on.
TEST(WorkloadDriverTest, PausedUpdatePhaseStreamsNoTicks) {
  ShardedEngine engine = MakeEngine(2);

  DriverConfig config;
  config.num_threads = 2;
  config.workload = MakeWorkload(kSources);
  config.run_updates = true;
  config.seed = kSeed;
  config.phases.resize(1);
  config.phases[0] = {/*queries_per_thread=*/300,
                      /*point_read_fraction=*/0.5, /*zipf_s=*/0.0,
                      /*update_burst=*/0};

  DriverReport report = RunWorkload(engine, config);
  EXPECT_EQ(report.queries, 2 * 300);
  EXPECT_EQ(report.ticks, 0);
  EXPECT_EQ(engine.counters().updates_applied.load(), 0);
  EXPECT_EQ(report.violations, 0);
}

TEST(WorkloadDriverTest, InvalidPhaseYieldsZeroReport) {
  ShardedEngine engine = MakeEngine(1);

  DriverConfig config;
  config.num_threads = 1;
  config.workload = MakeWorkload(kSources);
  config.phases.resize(1);
  config.phases[0] = {/*queries_per_thread=*/0,  // invalid
                      /*point_read_fraction=*/0.5, /*zipf_s=*/0.0,
                      /*update_burst=*/8};

  DriverReport report = RunWorkload(engine, config);
  EXPECT_EQ(report.queries, 0);
  EXPECT_EQ(engine.counters().queries_executed.load(), 0)
      << "an invalid config must not touch the engine";
}

TEST(WorkloadDriverTest, ZipfSkewedRunKeepsPrecisionGuarantee) {
  ShardedEngine engine = MakeEngine(4);

  DriverConfig config;
  config.num_threads = 4;
  config.queries_per_thread = 400;
  config.workload = MakeWorkload(kSources);
  config.workload.zipf_s = 1.3;  // hot-key contention
  config.run_updates = true;
  config.point_read_fraction = 0.9;
  config.seed = kSeed;

  DriverReport report = RunWorkload(engine, config);
  EXPECT_EQ(report.queries, 4 * 400);
  EXPECT_EQ(report.violations, 0);
  EXPECT_EQ(engine.counters().queries_executed.load(), report.queries);
}

TEST(WorkloadDriverTest, InvalidSubscriptionConfigYieldsZeroReport) {
  SubscriptionWorkloadConfig config;
  config.num_subscribers = 0;  // invalid
  SubscriptionDriverReport report = RunSubscriptionWorkload(config);
  EXPECT_EQ(report.subscriptions, 0);
  EXPECT_EQ(report.notifications, 0);
  EXPECT_EQ(report.polls, 0);
}

// The subscription phase end to end: subscriber count × churn × δ_sub
// distribution, with the mid-run no-missed-violation checker and the
// polling-equivalent replay — the savings inequality the benches gate on
// is asserted here, at the source of the numbers.
TEST(WorkloadDriverTest, SubscriptionWorkloadBeatsPollingEquivalent) {
  SubscriptionWorkloadConfig config;
  config.engine.num_shards = 2;
  config.engine.system.cache_capacity = 24;
  config.engine.seed = kSeed;
  config.engine.subscription_hub_capacity = 1 << 14;
  config.num_sources = 24;
  config.num_subscribers = 16;
  config.subscriber_threads = 1;  // ordering checkable
  config.point_fraction = 0.75;
  config.group_size = 6;
  config.deltas = {6.0, 0.5};
  config.ticks = 200;
  config.churn_ops = 4;
  config.reprecision_ops = 4;
  config.seed = kSeed;

  SubscriptionDriverReport report = RunSubscriptionWorkload(config);
  EXPECT_EQ(report.subscriptions, 16);
  EXPECT_EQ(report.ticks, 200);
  EXPECT_GT(report.notifications, 0);
  EXPECT_GE(report.delivered, report.notifications);
  EXPECT_EQ(report.order_regressions, 0);
  EXPECT_EQ(report.missed_violations, 0);
  EXPECT_EQ(report.churn_ops, 4);
  EXPECT_EQ(report.reprecision_ops, 4);
  // The measured polling equivalent: one poll per subscription per tick.
  EXPECT_EQ(report.polls, 200 * 16);
  EXPECT_GT(report.polling_equivalent_cost, 0.0);
  // The headline inequality: standing queries never cost more than the
  // polling workload they replace.
  EXPECT_LE(report.subscription_total_cost, report.polling_equivalent_cost);
  // And the push traffic is far below one message per poll.
  EXPECT_LT(report.notifications, report.polls);
}

}  // namespace
}  // namespace apc
