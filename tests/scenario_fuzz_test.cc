// Randomized lockstep fuzz: the single-shard engine against the
// sequential CacheSystem under GenerateFuzzOps sequences
// (scenario_fuzz_common.h). Both sides are built from seed-identical
// source populations and fed the identical op stream with a unique
// logical time per op; every read must return the same interval bit for
// bit and the run must account the same charges, across seeds. A point
// read on the engine mirrors as a single-id SUM on the sequential side
// (the same refresh decision by construction), so the fuzz also pins the
// PointRead/ExecuteQuery equivalence.
#include <gtest/gtest.h>

#include <vector>

#include "cache/system.h"
#include "query/aggregate.h"
#include "runtime/sharded_engine.h"
#include "runtime/workload_driver.h"
#include "scenario_fuzz_common.h"

namespace apc {
namespace {

constexpr int kSources = 10;
constexpr int kOps = 400;

void RunFuzzLockstep(uint64_t seed) {
  std::vector<FuzzOp> ops = GenerateFuzzOps(kOps, kSources, seed);

  SystemConfig sys_config;
  sys_config.cache_capacity = kSources;
  AdaptivePolicyParams policy;
  RandomWalkParams walk;

  CacheSystem sequential(
      sys_config, BuildRandomWalkSources(kSources, walk, policy, seed), seed);
  sequential.PopulateInitial(0);
  sequential.costs().BeginMeasurement(0);

  EngineConfig engine_config;
  engine_config.system = sys_config;
  engine_config.num_shards = 1;
  engine_config.seed = seed;
  ShardedEngine engine(engine_config,
                       BuildRandomWalkSources(kSources, walk, policy, seed));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  int64_t now = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const FuzzOp& op = ops[i];
    ++now;  // unique logical time per op
    switch (op.kind) {
      case FuzzOp::kTick:
        sequential.Tick(now);
        engine.TickAll(now);
        break;
      case FuzzOp::kAggRead: {
        Interval expected = sequential.ExecuteQuery(op.query, now);
        Interval actual = engine.ExecuteQuery(op.query, now);
        ASSERT_EQ(actual, expected)
            << "aggregate diverged at op " << i << " seed " << seed;
        ASSERT_LE(actual.Width(),
                  op.query.constraint + 1e-9 * (1.0 + op.query.constraint));
        break;
      }
      case FuzzOp::kPointRead: {
        Query mirror;
        mirror.kind = AggregateKind::kSum;
        mirror.source_ids = {op.id};
        mirror.constraint = op.width;
        Interval expected = sequential.ExecuteQuery(mirror, now);
        Interval actual = engine.PointRead(op.id, op.width, now);
        ASSERT_EQ(actual, expected)
            << "point read diverged at op " << i << " seed " << seed;
        break;
      }
    }
  }
  sequential.costs().EndMeasurement(now);
  engine.EndMeasurement(now);

  EngineCosts costs = engine.TotalCosts();
  EXPECT_EQ(costs.value_refreshes, sequential.costs().value_refreshes());
  EXPECT_EQ(costs.query_refreshes, sequential.costs().query_refreshes());
  EXPECT_DOUBLE_EQ(costs.total_cost, sequential.costs().total_cost());
  EXPECT_DOUBLE_EQ(engine.MeanRawWidth(), sequential.MeanRawWidth());
  // The fuzz must have exercised the protocol, not ticked in place.
  EXPECT_GT(sequential.costs().query_refreshes() +
                sequential.costs().value_refreshes(),
            0);
}

TEST(ScenarioFuzzTest, LockstepParityAcrossSeeds) {
  for (uint64_t seed : {11u, 29u, 137u, 503u, 8191u}) {
    RunFuzzLockstep(seed);
  }
}

}  // namespace
}  // namespace apc
