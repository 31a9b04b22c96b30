// Cost & precision attribution (obs/attribution.h): the reconciliation
// contract is the whole point — an AttributionTable attached from
// construction, with measurement started at tick 0, mirrors the engines'
// CostTracker tallies BIT FOR BIT, splits Cqr charges by the ambient
// reader, and keeps a bounded per-source width history.
#include "obs/attribution.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "runtime/sharded_engine.h"
#include "runtime/tiered_engine.h"
#include "runtime/workload_driver.h"

namespace apc {
namespace {

constexpr uint64_t kSeed = 2026;

obs::AttributionTable::Totals BucketChecked(
    const obs::AttributionTable& table) {
  obs::AttributionTable::Totals totals = table.TotalsSnapshot();
  // The reader split partitions the Cqr side exactly.
  EXPECT_EQ(totals.query_reader_refreshes +
                totals.subscription_reader_refreshes +
                totals.unattributed_query_refreshes,
            totals.query_refreshes);
  return totals;
}

// Per-source tallies must sum to the totals, and the width history must be
// a bounded, time-ordered series.
void CheckSnapshotInvariants(const obs::AttributionTable& table,
                             int64_t final_tick) {
  obs::AttributionTable::Totals totals = table.TotalsSnapshot();
  obs::AttributionTable::Totals summed;
  int last_id = -1;
  for (const obs::AttributionTable::SourceStats& s : table.Snapshot()) {
    EXPECT_GT(s.id, last_id);  // id-ascending
    last_id = s.id;
    summed.value_refreshes += s.value_refreshes;
    summed.query_refreshes += s.query_refreshes;
    summed.query_reader_refreshes += s.query_reader_refreshes;
    summed.subscription_reader_refreshes += s.subscription_reader_refreshes;
    summed.unattributed_query_refreshes += s.unattributed_query_refreshes;
    summed.value_cost += s.value_cost;
    summed.query_cost += s.query_cost;
    EXPECT_LE(s.width_history.size(), obs::AttributionTable::kHistory);
    EXPECT_FALSE(s.width_history.empty());
    int64_t last_now = -1;
    for (const obs::AttributionTable::WidthPoint& p : s.width_history) {
      EXPECT_GE(p.now, last_now);  // oldest first
      EXPECT_GE(p.width, 0.0);
      last_now = p.now;
    }
    EXPECT_EQ(s.width_history.back().width, s.last_width);
    EXPECT_EQ(s.width_history.back().now, s.last_now);
    EXPECT_LE(s.last_now, final_tick);
  }
  EXPECT_EQ(summed.value_refreshes, totals.value_refreshes);
  EXPECT_EQ(summed.query_refreshes, totals.query_refreshes);
  EXPECT_EQ(summed.value_cost, totals.value_cost);
  EXPECT_EQ(summed.query_cost, totals.query_cost);
}

TEST(ReaderScopeTest, NestsAndRestores) {
  EXPECT_EQ(obs::ReaderScope::current_kind(), obs::ReaderKind::kNone);
  {
    obs::ReaderScope outer(obs::ReaderKind::kQuery, 11);
    EXPECT_EQ(obs::ReaderScope::current_kind(), obs::ReaderKind::kQuery);
    EXPECT_EQ(obs::ReaderScope::current_id(), 11);
    {
      obs::ReaderScope inner(obs::ReaderKind::kSubscription, 5);
      EXPECT_EQ(obs::ReaderScope::current_kind(),
                obs::ReaderKind::kSubscription);
      EXPECT_EQ(obs::ReaderScope::current_id(), 5);
    }
    EXPECT_EQ(obs::ReaderScope::current_kind(), obs::ReaderKind::kQuery);
    EXPECT_EQ(obs::ReaderScope::current_id(), 11);
  }
  EXPECT_EQ(obs::ReaderScope::current_kind(), obs::ReaderKind::kNone);
}

// The flat engine: its pull paths (a point read's exclusive pull, an
// aggregate's batched pulls) must route their charges through the same
// attribution sites.
TEST(AttributionTest, ShardedReconcilesWithCostTracker) {
  obs::AttributionTable attribution;
  EngineConfig config;
  config.num_shards = 4;
  config.system.cache_capacity = 24;
  config.seed = kSeed;
  ShardedEngine engine(
      config, BuildRandomWalkSources(32, RandomWalkParams{},
                                     AdaptivePolicyParams{}, kSeed));
  engine.SetAttribution(&attribution);  // before the first charge
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);
  for (int64_t now = 1; now <= 60; ++now) {
    engine.TickAll(now);
    if (now % 5 == 0) {
      for (int id = 0; id < 32; id += 3) {
        engine.PointRead(id, 0.0, now);  // exact: forces a Cqr pull
      }
      Query query;
      query.kind = AggregateKind::kSum;
      for (int id : {1, 2, 4, 8, 16}) query.source_ids.push_back(id);
      query.constraint = 0.0;
      engine.ExecuteQuery(query, now);
    }
  }
  engine.EndMeasurement(61);
  EngineCosts costs = engine.TotalCosts();
  ASSERT_GT(costs.value_refreshes, 0);
  ASSERT_GT(costs.query_refreshes, 0);

  obs::AttributionTable::Totals totals = BucketChecked(attribution);
  // Bit-for-bit: same counts, and the same cvr/cqr doubles summed.
  EXPECT_EQ(totals.value_refreshes, costs.value_refreshes);
  EXPECT_EQ(totals.query_refreshes, costs.query_refreshes);
  EXPECT_EQ(totals.value_cost + totals.query_cost, costs.total_cost);
  // No subscriptions and every read tagged: all Cqr is query-reader.
  EXPECT_EQ(totals.query_reader_refreshes, totals.query_refreshes);
  EXPECT_EQ(totals.subscription_reader_refreshes, 0);
  EXPECT_EQ(totals.unattributed_query_refreshes, 0);
  CheckSnapshotInvariants(attribution, 60);
}

// Standing queries escalate through SubscriptionPull under the manager's
// ambient kSubscription tag: their Cqr charges land in the subscription
// bucket, and the grand totals still reconcile exactly.
TEST(AttributionTest, SubscriptionEscalationsLandInSubscriptionBucket) {
  obs::AttributionTable attribution;
  EngineConfig config;
  config.num_shards = 1;  // lockstep: deterministic escalation schedule
  config.system.cache_capacity = 16;
  config.seed = kSeed;
  ShardedEngine engine(
      config, BuildRandomWalkSources(16, RandomWalkParams{},
                                     AdaptivePolicyParams{}, kSeed));
  engine.SetAttribution(&attribution);
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  Query standing;
  standing.kind = AggregateKind::kSum;
  for (int id : {0, 1, 2, 3}) standing.source_ids.push_back(id);
  standing.constraint = 0.0;
  ASSERT_GE(engine.Subscribe(standing, /*delta=*/0.0, 0), 0);
  for (int64_t now = 1; now <= 40; ++now) {
    engine.TickAll(now);
    engine.subscriptions().WaitQuiescent();
  }
  engine.EndMeasurement(41);
  EngineCosts costs = engine.TotalCosts();
  ASSERT_GT(costs.value_refreshes, 0);  // the workload really refreshed

  obs::AttributionTable::Totals totals = BucketChecked(attribution);
  EXPECT_GT(totals.subscription_reader_refreshes, 0);
  EXPECT_EQ(totals.query_reader_refreshes, 0);  // no ad-hoc reads issued
  EXPECT_EQ(totals.value_refreshes, costs.value_refreshes);
  EXPECT_EQ(totals.query_refreshes, costs.query_refreshes);
  EXPECT_EQ(totals.value_cost + totals.query_cost, costs.total_cost);
}

// The tiered engine merges WAN and LAN charges of one id into the same
// slot; the totals reconcile against BOTH links' trackers combined —
// including runs where charged pushes are lost in transit (charges land
// before the loss draw, same as the trackers).
TEST(AttributionTest, TieredReconcilesAcrossWanAndLanWithLoss) {
  obs::AttributionTable attribution;
  TieredConfig config;
  config.num_edges = 2;
  config.num_shards = 2;
  config.seed = kSeed;
  config.wan_push_loss = 0.25;
  config.lan_push_loss = 0.25;
  TieredEngine engine(config,
                      BuildRandomWalkStreams(24, RandomWalkParams{}, kSeed));
  engine.SetAttribution(&attribution);
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);
  for (int64_t now = 1; now <= 60; ++now) {
    engine.TickAll(now);
    if (now % 4 == 0) {
      for (int id = 0; id < 24; id += 5) {
        engine.Read(id % config.num_edges, id, 0.0, now);
      }
    }
  }
  engine.EndMeasurement(61);
  EngineCosts wan = engine.WanCosts();
  EngineCosts lan = engine.LanCosts();
  ASSERT_GT(wan.value_refreshes + lan.value_refreshes, 0);
  ASSERT_GT(wan.query_refreshes + lan.query_refreshes, 0);

  obs::AttributionTable::Totals totals = BucketChecked(attribution);
  EXPECT_EQ(totals.value_refreshes,
            wan.value_refreshes + lan.value_refreshes);
  EXPECT_EQ(totals.query_refreshes,
            wan.query_refreshes + lan.query_refreshes);
  EXPECT_EQ(totals.value_cost + totals.query_cost,
            wan.total_cost + lan.total_cost);
  EXPECT_EQ(totals.query_reader_refreshes, totals.query_refreshes);
  CheckSnapshotInvariants(attribution, 60);
}

}  // namespace
}  // namespace apc
