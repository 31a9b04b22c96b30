#include "runtime/tiered_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/adaptive_policy.h"
#include "data/random_walk.h"
#include "hierarchy/hierarchy.h"
#include "loud_instruments.h"
#include "query/query_gen.h"
#include "runtime/sharded_engine.h"
#include "runtime/workload_driver.h"
#include "tick_batches.h"
#include "util/rng.h"

namespace apc {
namespace {

constexpr uint64_t kSeed = 4001;

HierarchyConfig SequentialConfig(int sources, int edges) {
  HierarchyConfig config;
  config.num_sources = sources;
  config.num_edges = edges;
  config.wan = {4.0, 8.0};
  config.lan = {1.0, 2.0};
  config.regional_policy.alpha = 1.0;
  config.regional_policy.initial_width = 4.0;
  config.edge_policy.alpha = 1.0;
  config.edge_policy.initial_width = 8.0;
  return config;
}

TieredConfig TieredFrom(const HierarchyConfig& sequential, int num_shards,
                        uint64_t seed) {
  TieredConfig config;
  config.num_edges = sequential.num_edges;
  config.num_shards = num_shards;
  config.wan = sequential.wan;
  config.lan = sequential.lan;
  config.regional_policy = sequential.regional_policy;
  config.edge_policy = sequential.edge_policy;
  config.seed = seed;
  return config;
}

std::vector<std::unique_ptr<UpdateStream>> WalkStreams(int n,
                                                       uint64_t seed) {
  return BuildRandomWalkStreams(n, RandomWalkParams{}, seed);
}

TEST(TieredConfigTest, Validation) {
  TieredConfig config;
  EXPECT_TRUE(config.IsValid());

  TieredConfig bad = config;
  bad.num_edges = 0;
  EXPECT_FALSE(bad.IsValid());

  bad = config;
  bad.num_shards = 0;
  EXPECT_FALSE(bad.IsValid());

  bad = config;
  bad.wan.cvr = 0.0;
  EXPECT_FALSE(bad.IsValid());

  bad = config;
  bad.lan_push_loss = 1.5;
  EXPECT_FALSE(bad.IsValid());

  bad = config;
  bad.edge_policy.alpha = -1.0;
  EXPECT_FALSE(bad.IsValid());
}

/// The acceptance bar of the tiered runtime: a TieredEngine driven in
/// lockstep from one thread reproduces the sequential HierarchicalSystem's
/// answers, intervals, raw widths, and per-link charges exactly. Policy
/// RNG streams are per-entity (one policy instance per regional value and
/// per (edge, value)), so the guarantee holds for ANY edge and shard
/// count; the 1-edge/1-shard case is the pinned acceptance criterion.
/// Each call runs twice, quiet and then loud (every obs instrument live,
/// see loud_instruments.h), and the two engine runs must also match each
/// other bit for bit.
void ExpectTieredLockstepParity(int num_sources, int num_edges,
                                int num_shards, int64_t ticks,
                                uint64_t stream_seed) {
  struct Run {
    std::vector<Interval> answers;
    EngineCosts wan;
    EngineCosts lan;
    double mean_raw_width = 0.0;
  } runs[2];
  for (bool loud : {false, true}) {
    SCOPED_TRACE(loud ? "loud" : "quiet");
    HierarchyConfig seq_config = SequentialConfig(num_sources, num_edges);
    HierarchicalSystem sequential(
        seq_config, WalkStreams(num_sources, stream_seed), kSeed);
    sequential.BeginMeasurement(0);

    TieredConfig tiered_config = TieredFrom(seq_config, num_shards, kSeed);
    TieredEngine tiered(tiered_config, WalkStreams(num_sources, stream_seed));
    std::optional<LoudInstruments> instruments;
    if (loud) {
      instruments.emplace(tiered,
                          ::testing::TempDir() + "apc_tiered_loud.json");
    }
    tiered.PopulateInitial(0);
    tiered.BeginMeasurement(0);

    Run& run = runs[loud ? 1 : 0];

    Rng seq_reads(kSeed ^ 0xF00D);
    Rng tiered_reads(kSeed ^ 0xF00D);
    for (int64_t t = 1; t <= ticks; ++t) {
      sequential.Tick(t);
      tiered.TickAll(t);
      // Two reads per tick from identical draw streams.
      for (int r = 0; r < 2; ++r) {
        int edge = static_cast<int>(
            seq_reads.UniformInt(0, num_edges - 1));
        int id = static_cast<int>(seq_reads.UniformInt(0, num_sources - 1));
        double constraint = seq_reads.Uniform(0.0, 30.0);
        ASSERT_EQ(tiered_reads.UniformInt(0, num_edges - 1), edge);
        ASSERT_EQ(tiered_reads.UniformInt(0, num_sources - 1), id);
        ASSERT_EQ(tiered_reads.Uniform(0.0, 30.0), constraint);

        Interval expected = sequential.Read(edge, id, constraint, t);
        Interval actual = tiered.Read(edge, id, constraint, t);
        ASSERT_EQ(actual, expected)
            << "answer diverged at tick " << t << " (edge " << edge << ", id "
            << id << ", constraint " << constraint << ")";
        run.answers.push_back(actual);
      }
      for (int id = 0; id < num_sources; ++id) {
        ASSERT_EQ(tiered.regional_interval(id, t),
                  sequential.regional_interval(id))
            << "regional interval diverged at tick " << t << ", id " << id;
        ASSERT_EQ(tiered.regional_raw_width(id),
                  sequential.regional_raw_width(id));
        ASSERT_EQ(tiered.exact_value(id), sequential.exact_value(id));
        for (int e = 0; e < num_edges; ++e) {
          ASSERT_EQ(tiered.edge_interval(e, id, t),
                    sequential.edge_interval(e, id))
              << "edge interval diverged at tick " << t << ", edge " << e
              << ", id " << id;
          ASSERT_EQ(tiered.edge_raw_width(e, id),
                    sequential.edge_raw_width(e, id));
        }
      }
    }
    sequential.EndMeasurement(ticks);
    tiered.EndMeasurement(ticks);

    EngineCosts wan = tiered.WanCosts();
    EngineCosts lan = tiered.LanCosts();
    EXPECT_EQ(wan.value_refreshes, sequential.wan_costs().value_refreshes());
    EXPECT_EQ(wan.query_refreshes, sequential.wan_costs().query_refreshes());
    EXPECT_DOUBLE_EQ(wan.total_cost, sequential.wan_costs().total_cost());
    EXPECT_EQ(lan.value_refreshes, sequential.lan_costs().value_refreshes());
    EXPECT_EQ(lan.query_refreshes, sequential.lan_costs().query_refreshes());
    EXPECT_DOUBLE_EQ(lan.total_cost, sequential.lan_costs().total_cost());
    EXPECT_DOUBLE_EQ(tiered.TotalCostRate(), sequential.TotalCostRate());
    // The workload genuinely exercised every hop.
    EXPECT_GT(wan.value_refreshes, 0) << "weak setup: no WAN pushes";
    EXPECT_GT(wan.query_refreshes, 0) << "weak setup: no source escalations";
    EXPECT_GT(lan.value_refreshes, 0) << "weak setup: no derived fan-out";
    EXPECT_GT(lan.query_refreshes, 0) << "weak setup: no edge escalations";
    run.wan = wan;
    run.lan = lan;
    run.mean_raw_width = tiered.MeanRawWidth();
    if (instruments) instruments->ExpectObserved();
  }
  const Run& quiet = runs[0];
  const Run& loud = runs[1];
  EXPECT_EQ(quiet.answers, loud.answers);
  EXPECT_EQ(quiet.wan.value_refreshes, loud.wan.value_refreshes);
  EXPECT_EQ(quiet.wan.query_refreshes, loud.wan.query_refreshes);
  EXPECT_EQ(quiet.wan.total_cost, loud.wan.total_cost);
  EXPECT_EQ(quiet.lan.value_refreshes, loud.lan.value_refreshes);
  EXPECT_EQ(quiet.lan.query_refreshes, loud.lan.query_refreshes);
  EXPECT_EQ(quiet.lan.total_cost, loud.lan.total_cost);
  EXPECT_EQ(quiet.mean_raw_width, loud.mean_raw_width);
}

// The pinned acceptance criterion: 1 edge / 1 shard / 1 thread.
TEST(TieredEngineTest, LockstepParityOneEdgeOneShard) {
  ExpectTieredLockstepParity(/*num_sources=*/6, /*num_edges=*/1,
                             /*num_shards=*/1, /*ticks=*/400, kSeed ^ 0x11);
}

// Per-entity policy RNG streams make the guarantee independent of the
// edge count and even of the shard partition (lockstep, one thread).
TEST(TieredEngineTest, LockstepParityMultiEdgeMultiShard) {
  ExpectTieredLockstepParity(/*num_sources=*/8, /*num_edges=*/3,
                             /*num_shards=*/1, /*ticks=*/300, kSeed ^ 0x22);
  ExpectTieredLockstepParity(/*num_sources=*/8, /*num_edges=*/3,
                             /*num_shards=*/3, /*ticks=*/300, kSeed ^ 0x22);
}

// Updates delivered through the bus (tick-all events, and per-source
// events one tick's ids per PushBatch, which the bus splits into
// same-shard runs) must land exactly like synchronous lockstep ticks,
// fan-out included.
TEST(TieredEngineTest, UpdateBusMatchesSynchronousTicks) {
  constexpr int kSources = 10;
  constexpr int64_t kTicks = 150;
  HierarchyConfig seq_config = SequentialConfig(kSources, 2);
  TieredConfig config = TieredFrom(seq_config, 2, kSeed);

  TieredEngine lockstep(config, WalkStreams(kSources, kSeed ^ 0x33));
  lockstep.PopulateInitial(0);
  lockstep.BeginMeasurement(0);
  for (int64_t t = 1; t <= kTicks; ++t) lockstep.TickAll(t);
  lockstep.EndMeasurement(kTicks);

  TieredEngine via_bus(config, WalkStreams(kSources, kSeed ^ 0x33));
  via_bus.PopulateInitial(0);
  via_bus.BeginMeasurement(0);
  ASSERT_TRUE(via_bus.StartUpdatePump());
  for (int64_t t = 1; t <= kTicks; ++t) {
    ASSERT_TRUE(via_bus.bus().Push({t, UpdateEvent::kAllSources}));
  }
  via_bus.StopUpdatePump();
  via_bus.EndMeasurement(kTicks);

  TieredEngine via_per_source(config, WalkStreams(kSources, kSeed ^ 0x33));
  via_per_source.PopulateInitial(0);
  via_per_source.BeginMeasurement(0);
  ASSERT_TRUE(via_per_source.StartUpdatePump());
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

  EngineCosts expected_wan = lockstep.WanCosts();
  EngineCosts expected_lan = lockstep.LanCosts();
  for (TieredEngine* engine : {&via_bus, &via_per_source}) {
    EngineCosts wan = engine->WanCosts();
    EngineCosts lan = engine->LanCosts();
    EXPECT_EQ(wan.value_refreshes, expected_wan.value_refreshes);
    EXPECT_DOUBLE_EQ(wan.total_cost, expected_wan.total_cost);
    EXPECT_EQ(lan.value_refreshes, expected_lan.value_refreshes);
    EXPECT_DOUBLE_EQ(lan.total_cost, expected_lan.total_cost);
    for (int id = 0; id < kSources; ++id) {
      EXPECT_EQ(engine->regional_interval(id, kTicks),
                lockstep.regional_interval(id, kTicks));
      for (int e = 0; e < 2; ++e) {
        EXPECT_EQ(engine->edge_interval(e, id, kTicks),
                  lockstep.edge_interval(e, id, kTicks));
      }
    }
  }
  EXPECT_EQ(via_per_source.counters().updates_applied.load(),
            kSources * kTicks);
}

// A pushed run is applied event by event under one regional hold, and a
// tick-all's fan-out must ship before the run's next event. Each
// PushBatch below carries two multi-event runs: two tick-alls, which reach
// every shard as one run, then single-id ticks of ids that share a shard,
// one id twice. With WAN loss and edge evictions on, every table must see
// the same offers in the same order as the same sequence applied
// synchronously. A small alpha keeps widths from outgrowing the walk, so
// an id often refreshes in a tick-all and again in a single-id tick of
// the same batch. LAN pushes stay reliable, so the derived invariant holds
// on both.
TEST(TieredEngineTest, MultiEventBurstsMatchSynchronousTicks) {
  constexpr int kSources = 12;
  constexpr int kEdges = 3;
  constexpr int64_t kTicks = 40;
  HierarchyConfig seq_config = SequentialConfig(kSources, kEdges);
  seq_config.regional_policy.alpha = 0.1;
  seq_config.edge_policy.alpha = 0.1;
  TieredConfig config = TieredFrom(seq_config, 2, kSeed);
  config.edge_capacity = 8;
  config.wan_push_loss = 0.2;

  TieredEngine lockstep(config, WalkStreams(kSources, kSeed ^ 0x55));
  const std::vector<int> kSingles = OneShardSingles(lockstep);
  const std::vector<std::vector<UpdateEvent>> batches =
      TickPairBatches(kTicks, kSingles);
  lockstep.PopulateInitial(0);
  lockstep.BeginMeasurement(0);
  TickInLockstep(lockstep, batches);
  lockstep.EndMeasurement(kTicks);

  TieredEngine bursts(config, WalkStreams(kSources, kSeed ^ 0x55));
  bursts.PopulateInitial(0);
  bursts.BeginMeasurement(0);
  for (const std::vector<UpdateEvent>& batch : batches) {
    ASSERT_EQ(bursts.bus().PushBatch(batch.data(), batch.size()),
              batch.size());
  }
  bursts.EndMeasurement(kTicks);

  for (auto [actual, expected] :
       {std::pair{bursts.WanCosts(), lockstep.WanCosts()},
        std::pair{bursts.LanCosts(), lockstep.LanCosts()}}) {
    EXPECT_EQ(actual.value_refreshes, expected.value_refreshes);
    EXPECT_EQ(actual.query_refreshes, expected.query_refreshes);
    EXPECT_EQ(actual.total_cost, expected.total_cost);
  }
  EXPECT_EQ(bursts.lost_wan_pushes(), lockstep.lost_wan_pushes());
  EXPECT_GT(lockstep.lost_wan_pushes(), 0) << "loss draws must be exercised";
  EXPECT_EQ(bursts.counters().derived_pushes.load(),
            lockstep.counters().derived_pushes.load());
  for (int id = 0; id < kSources; ++id) {
    EXPECT_EQ(bursts.regional_interval(id, kTicks),
              lockstep.regional_interval(id, kTicks))
        << "id " << id;
    EXPECT_EQ(bursts.regional_raw_width(id), lockstep.regional_raw_width(id))
        << "id " << id;
    for (int e = 0; e < kEdges; ++e) {
      EXPECT_EQ(bursts.edge_interval(e, id, kTicks),
                lockstep.edge_interval(e, id, kTicks))
          << "edge " << e << " id " << id;
      EXPECT_EQ(bursts.edge_raw_width(e, id), lockstep.edge_raw_width(e, id))
          << "edge " << e << " id " << id;
    }
  }
  EXPECT_TRUE(lockstep.DerivedInvariantHolds(kTicks));
  EXPECT_TRUE(bursts.DerivedInvariantHolds(kTicks));
  EXPECT_EQ(bursts.counters().updates_applied.load(),
            kTicks * static_cast<int64_t>(kSources + kSingles.size()));
}

// Satellite: escalation charging under push loss. A lost WAN push is
// charged (the source paid for the message) but never reaches the
// regional cache, so it must not cascade LAN pushes; a lost LAN push is
// charged on the LAN link and leaves only that edge stale.
TEST(TieredEngineTest, EscalationChargingUnderWanPushLoss) {
  constexpr int kSources = 8;
  HierarchyConfig seq_config = SequentialConfig(kSources, 2);
  TieredConfig config = TieredFrom(seq_config, 1, kSeed);
  config.wan_push_loss = 1.0;  // every WAN push is lost in transit
  TieredEngine engine(config, WalkStreams(kSources, kSeed ^ 0x44));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  Rng rng(kSeed);
  for (int64_t t = 1; t <= 300; ++t) {
    engine.TickAll(t);
    // Loose reads only: value-initiated traffic dominates.
    engine.Read(static_cast<int>(rng.UniformInt(0, 1)),
                static_cast<int>(rng.UniformInt(0, kSources - 1)), 1e6, t);
  }
  engine.EndMeasurement(300);

  EngineCosts wan = engine.WanCosts();
  EngineCosts lan = engine.LanCosts();
  EXPECT_GT(wan.value_refreshes, 0) << "weak setup: no WAN pushes";
  // Charged-but-lost: every WAN push was charged AND lost.
  EXPECT_EQ(engine.lost_wan_pushes(), wan.value_refreshes);
  // An undelivered regional interval must not fan out LAN pushes.
  EXPECT_EQ(lan.value_refreshes, 0);
  EXPECT_EQ(engine.counters().derived_pushes.load(), 0);
  EXPECT_EQ(engine.lost_lan_pushes(), 0);
  // The invariant survives WAN loss: edges still contain the (stale)
  // regional interval.
  EXPECT_TRUE(engine.DerivedInvariantHolds(300));
}

TEST(TieredEngineTest, EscalationChargingUnderLanPushLoss) {
  constexpr int kSources = 8;
  HierarchyConfig seq_config = SequentialConfig(kSources, 3);
  TieredConfig config = TieredFrom(seq_config, 1, kSeed);
  config.lan_push_loss = 0.5;
  TieredEngine engine(config, WalkStreams(kSources, kSeed ^ 0x55));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  Rng rng(kSeed + 1);
  int64_t violations = 0;
  for (int64_t t = 1; t <= 400; ++t) {
    engine.TickAll(t);
    int edge = static_cast<int>(rng.UniformInt(0, 2));
    int id = static_cast<int>(rng.UniformInt(0, kSources - 1));
    double constraint = rng.Uniform(0.0, 20.0);
    Interval answer = engine.Read(edge, id, constraint, t);
    if (answer.Width() > constraint + 1e-9) ++violations;
  }
  engine.EndMeasurement(400);

  EngineCosts lan = engine.LanCosts();
  // Every derived push was charged, delivered or not (charged-but-lost),
  // and the injection genuinely fired.
  EXPECT_GT(engine.lost_lan_pushes(), 0) << "injection never fired";
  EXPECT_EQ(lan.value_refreshes, engine.counters().derived_pushes.load());
  EXPECT_GT(lan.value_refreshes, engine.lost_lan_pushes())
      << "weak setup: every push lost";
  // The WIDTH guarantee is loss-proof: escalation re-reads authoritative
  // tiers, so a stale edge can only cost extra hops, never a wide answer.
  EXPECT_EQ(violations, 0);
}

// Tentpole concurrency property: derived-refresh fan-out races concurrent
// edge reads. Every result must satisfy its constraint, and the derived-
// precision invariant must hold at ANY sampled instant (all mutations of
// an id's tier pair happen under its regional shard lock), not just at
// quiescence. Run under TSan by scripts/check.sh --tsan.
TEST(TieredEngineTest, FanOutCorrectUnderConcurrentEdgeReads) {
  constexpr int kSources = 24;
  constexpr int kEdges = 3;
  HierarchyConfig seq_config = SequentialConfig(kSources, kEdges);
  TieredConfig config = TieredFrom(seq_config, 2, kSeed);
  TieredEngine engine(config, WalkStreams(kSources, kSeed ^ 0x66));
  engine.PopulateInitial(0);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> ticks{0};
  std::thread ticker([&] {
    for (int64_t t = 1; !stop.load(std::memory_order_relaxed); ++t) {
      engine.TickAll(t);
      ticks.store(t, std::memory_order_relaxed);
    }
  });
  std::thread checker([&] {
    // The invariant is checked mid-run, racing the ticker's fan-outs.
    while (!stop.load(std::memory_order_relaxed)) {
      int64_t now = ticks.load(std::memory_order_relaxed);
      ASSERT_TRUE(engine.DerivedInvariantHolds(now))
          << "A_edge ⊉ A_regional observed mid-run";
    }
  });
  std::vector<std::thread> readers;
  std::atomic<int64_t> violations{0};
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      // The quota side starts after the ticker's first tick, so the
      // readers can never finish before the ticker was scheduled.
      while (ticks.load(std::memory_order_relaxed) == 0) {
        std::this_thread::yield();
      }
      Rng rng(kSeed + 10 + static_cast<uint64_t>(r));
      for (int q = 0; q < 400; ++q) {
        int edge = static_cast<int>(rng.UniformInt(0, kEdges - 1));
        int id = static_cast<int>(rng.UniformInt(0, kSources - 1));
        double constraint = rng.Uniform(0.0, 25.0);
        int64_t now = ticks.load(std::memory_order_relaxed);
        Interval answer = engine.Read(edge, id, constraint, now);
        if (answer.Width() > constraint + 1e-9) ++violations;
      }
    });
  }
  for (auto& reader : readers) reader.join();
  stop.store(true);
  checker.join();
  ticker.join();

  EXPECT_EQ(violations.load(), 0) << "constraint violated";
  EXPECT_GT(ticks.load(), 0) << "ticker made no progress";
  EXPECT_TRUE(engine.DerivedInvariantHolds(ticks.load()));
  EXPECT_EQ(engine.counters().reads.load(), 3 * 400);
}

// Every read lands in exactly one outcome bucket, and loose reads are
// free while tight reads escalate and charge.
TEST(TieredEngineTest, ReadOutcomeCountersPartitionReads) {
  constexpr int kSources = 10;
  HierarchyConfig seq_config = SequentialConfig(kSources, 2);
  TieredEngine engine(TieredFrom(seq_config, 1, kSeed),
                      WalkStreams(kSources, kSeed ^ 0x77));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  // Edge initial width 8 >= regional initial width 4.
  Interval loose = engine.Read(0, 0, /*constraint=*/100.0, 0);
  EXPECT_LE(loose.Width(), 100.0);
  EXPECT_EQ(engine.counters().edge_hits.load(), 1);
  EXPECT_DOUBLE_EQ(engine.LanCosts().total_cost, 0.0) << "local reads are free";

  Interval medium = engine.Read(0, 0, /*constraint=*/5.0, 0);
  EXPECT_LE(medium.Width(), 5.0);
  EXPECT_EQ(engine.counters().regional_hits.load(), 1);
  EXPECT_EQ(engine.LanCosts().query_refreshes, 1);
  EXPECT_EQ(engine.WanCosts().query_refreshes, 0);

  Interval tight = engine.Read(1, 0, /*constraint=*/0.0, 0);
  EXPECT_TRUE(tight.IsExact());
  EXPECT_EQ(engine.counters().source_pulls.load(), 1);
  EXPECT_EQ(engine.WanCosts().query_refreshes, 1);

  // Unknown edge / id: rejected, charge-free, unbounded.
  EXPECT_TRUE(engine.Read(7, 0, 1.0, 0).IsUnbounded());
  EXPECT_TRUE(engine.Read(0, 999, 1.0, 0).IsUnbounded());
  EXPECT_EQ(engine.counters().rejected_reads.load(), 2);

  const TieredCounters& counters = engine.counters();
  EXPECT_EQ(counters.reads.load(),
            counters.edge_hits.load() + counters.regional_hits.load() +
                counters.source_pulls.load() +
                counters.rejected_reads.load());

  // Unknown update ids are rejected, not fatal.
  engine.TickSource(999, 1);
  EXPECT_EQ(counters.rejected_updates.load(), 1);
}

// A NaN or negative constraint can never be met, so each such read would
// escalate to the source (one WAN Cqr) under the exclusive regional lock.
// The read is answered with the unbounded interval instead, charge-free,
// and counted; +inf stays a valid constraint that the edge interval meets.
TEST(TieredEngineTest, InvalidConstraintsAreRejectedChargeFree) {
  constexpr int kSources = 8;
  TieredConfig config = TieredFrom(SequentialConfig(kSources, 2), 2, kSeed);
  TieredEngine engine(config, WalkStreams(kSources, kSeed ^ 0x66));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  const TieredCounters& counters = engine.counters();
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    EXPECT_TRUE(engine.Read(0, 3, bad, 0).IsUnbounded());
  }
  EXPECT_EQ(counters.rejected_constraints.load(), 2);
  EXPECT_EQ(counters.source_pulls.load(), 0);
  EXPECT_EQ(counters.regional_hits.load(), 0);
  EXPECT_EQ(engine.WanCosts().total_cost, 0.0);
  EXPECT_EQ(engine.LanCosts().total_cost, 0.0);

  EXPECT_FALSE(engine.Read(1, 3, kInfinity, 0).IsUnbounded())
      << "+inf is met by the edge interval";
  EXPECT_EQ(counters.edge_hits.load(), 1);
  EXPECT_EQ(counters.rejected_constraints.load(), 2);
  EXPECT_EQ(counters.reads.load(),
            counters.edge_hits.load() + counters.rejected_constraints.load());
}

/// Shared flags of a ParkingStream: once `armed`, the stream's next
/// Next() reports `parked` and spins until `released`.
struct ParkingGate {
  std::atomic<bool> armed{false};
  std::atomic<bool> parked{false};
  std::atomic<bool> released{false};
};

/// A stream whose armed Next() parks the ticking thread — inside a
/// TickAll's exclusive origin hold, since the stream-advance pass runs
/// under it.
class ParkingStream : public UpdateStream {
 public:
  explicit ParkingStream(ParkingGate* gate) : gate_(gate) {}
  double Next() override {
    if (gate_->armed.load()) {
      gate_->parked.store(true);
      while (!gate_->released.load()) std::this_thread::yield();
    }
    return value_ += 1.0;
  }
  double current() const override { return value_; }

 private:
  ParkingGate* gate_;
  double value_ = 0.0;
};

// Reads that no interval can serve — an unowned id or edge, or a NaN or
// negative constraint — are rejected before any lock, so a stream of bad
// reads never queues behind an update's apply on a shard's exclusive
// lock. Every entry point must return while a TickAll holds the origin
// shard, charge-free, counting each rejection.
TEST(TieredEngineTest, RejectedReadsDoNotWaitForTheShardLock) {
  constexpr int kSources = 8;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ParkingGate gate;
  auto streams = WalkStreams(kSources, kSeed ^ 0xAA);
  streams[0] = std::make_unique<ParkingStream>(&gate);
  TieredConfig config = TieredFrom(SequentialConfig(kSources, 2),
                                   /*num_shards=*/1, kSeed);
  TieredEngine engine(config, std::move(streams));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  // One shard: every id, owned or not, routes to the parked shard.
  gate.armed.store(true);
  std::thread ticker([&] { engine.TickAll(1); });
  while (!gate.parked.load()) std::this_thread::yield();
  Query bad_query;
  bad_query.kind = AggregateKind::kSum;
  bad_query.source_ids = {1, 2};
  bad_query.constraint = nan;
  std::future<bool> reads = std::async(std::launch::async, [&] {
    return engine.PointRead(/*id=*/999, /*max_width=*/1e12, 1).IsUnbounded() &&
           engine.PointRead(0, nan, 1).IsUnbounded() &&
           engine.PointRead(0, -1.0, 1).IsUnbounded() &&
           engine.ExecuteQuery(bad_query, 1).IsUnbounded() &&
           engine.Read(/*edge=*/7, 0, 1e12, 1).IsUnbounded() &&
           engine.Read(0, /*id=*/999, 1e12, 1).IsUnbounded() &&
           engine.Read(0, 0, nan, 1).IsUnbounded();
  });
  bool returned =
      reads.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  gate.released.store(true);
  ticker.join();

  ASSERT_TRUE(returned) << "a rejected read waited for the shard lock";
  EXPECT_TRUE(reads.get());
  const RuntimeCounters& counters = engine.counters();
  EXPECT_EQ(counters.rejected_query_ids.load(), 1);
  EXPECT_EQ(counters.rejected_constraints.load(), 4);
  EXPECT_EQ(counters.rejected_reads.load(), 2);
  EXPECT_EQ(counters.query_refreshes.load(), 0);
  EXPECT_EQ(engine.WanCosts().query_refreshes, 0) << "no charge";
  EXPECT_EQ(engine.LanCosts().query_refreshes, 0) << "no charge";
}

// Several producers: four threads push single-id ticks for disjoint id
// sets into a 2-shard engine. Each push applies its own event before it
// returns, so once the producers join — before any Stop — every event is
// applied. Without loss or eviction each id's outcome depends only on its
// own event order, so intervals, raw widths and costs match a synchronous
// TickSource replay bit for bit.
TEST(TieredEngineTest, ConcurrentProducersMatchSynchronousTicks) {
  constexpr int kSources = 16;
  constexpr int kProducers = 4;
  constexpr int kEdges = 2;
  constexpr int64_t kTicks = 100;
  TieredConfig config =
      TieredFrom(SequentialConfig(kSources, kEdges), /*num_shards=*/2, kSeed);

  TieredEngine lockstep(config, WalkStreams(kSources, kSeed ^ 0x77));
  lockstep.PopulateInitial(0);
  lockstep.BeginMeasurement(0);
  for (int64_t t = 1; t <= kTicks; ++t) {
    for (int id = 0; id < kSources; ++id) lockstep.TickSource(id, t);
  }
  lockstep.EndMeasurement(kTicks);

  TieredEngine pushed(config, WalkStreams(kSources, kSeed ^ 0x77));
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

  for (auto [actual, expected] :
       {std::pair{pushed.WanCosts(), lockstep.WanCosts()},
        std::pair{pushed.LanCosts(), lockstep.LanCosts()}}) {
    EXPECT_EQ(actual.value_refreshes, expected.value_refreshes);
    EXPECT_EQ(actual.query_refreshes, expected.query_refreshes);
    EXPECT_EQ(actual.total_cost, expected.total_cost);
  }
  for (int id = 0; id < kSources; ++id) {
    EXPECT_EQ(pushed.regional_interval(id, kTicks),
              lockstep.regional_interval(id, kTicks))
        << "id " << id;
    EXPECT_EQ(pushed.regional_raw_width(id), lockstep.regional_raw_width(id))
        << "id " << id;
    for (int e = 0; e < kEdges; ++e) {
      EXPECT_EQ(pushed.edge_interval(e, id, kTicks),
                lockstep.edge_interval(e, id, kTicks))
          << "edge " << e << " id " << id;
      EXPECT_EQ(pushed.edge_raw_width(e, id), lockstep.edge_raw_width(e, id))
          << "edge " << e << " id " << id;
    }
  }
  pushed.StopUpdatePump();
}

// A producer whose shard lock is held — here by another producer's apply,
// parked inside the origin hold — waits for it, and its push returns only
// once its own event is applied.
TEST(TieredEngineTest, ConcurrentProducerWaitsBehindAHeldShardLock) {
  constexpr int kSources = 4;
  ParkingGate gate;
  auto streams = WalkStreams(kSources, kSeed ^ 0xCC);
  streams[0] = std::make_unique<ParkingStream>(&gate);
  TieredEngine engine(TieredFrom(SequentialConfig(kSources, 1),
                                 /*num_shards=*/1, kSeed),
                      std::move(streams));
  engine.PopulateInitial(0);
  ASSERT_TRUE(engine.StartUpdatePump());

  gate.armed.store(true);
  std::thread first([&] { EXPECT_TRUE(engine.bus().Push({1, 0})); });
  while (!gate.parked.load()) std::this_thread::yield();
  std::future<int64_t> second = std::async(std::launch::async, [&] {
    EXPECT_TRUE(engine.bus().Push({1, 1}));
    return engine.counters().updates_applied.load();
  });
  EXPECT_EQ(second.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout)
      << "the second push returned while the shard lock was held";
  EXPECT_EQ(engine.counters().updates_applied.load(), 0);
  gate.released.store(true);
  first.join();
  EXPECT_EQ(second.get(), 2) << "the second push returned before its event "
                             << "was applied";
  engine.StopUpdatePump();
}

// The regional tier of a tiered topology answers the paper's aggregates
// with its own refresh selection: it must behave exactly like a zero-edge
// ShardedEngine over the same sources, policies, costs and capacity. The
// edges only receive the fan-out of the regional tier's pulls.
TEST(TieredEngineTest, RegionalTierMatchesZeroEdgeShardedEngine) {
  constexpr int kSources = 24;
  constexpr int kShards = 3;
  constexpr size_t kCapacity = 18;  // evictions at the regional tier
  constexpr int64_t kTicks = 200;
  TieredConfig config = TieredFrom(SequentialConfig(kSources, 2), kShards,
                                   kSeed);
  config.regional_capacity = kCapacity;
  // Narrow edges track the regional width, so a recentering pull escapes
  // them and must fan out.
  config.edge_policy.initial_width = 0.5;
  ASSERT_TRUE(config.IsValid());
  TieredEngine tiered(config, WalkStreams(kSources, kSeed ^ 0xBB));

  // The twin's sources: the same walks, each carrying the regional tier's
  // WAN-bound policy, seeded in the tiered engine's order (the regional
  // policies come first, in id order).
  const AdaptivePolicyParams policy =
      BindTierCosts(config.regional_policy, config.wan);
  Rng seeder(kSeed);
  auto streams = WalkStreams(kSources, kSeed ^ 0xBB);
  std::vector<std::unique_ptr<Source>> sources;
  for (int id = 0; id < kSources; ++id) {
    sources.push_back(std::make_unique<Source>(
        id, std::move(streams[static_cast<size_t>(id)]),
        std::make_unique<AdaptivePolicy>(policy, seeder.NextUint64())));
  }
  EngineConfig twin_config;
  twin_config.system.costs = config.wan;
  twin_config.system.cache_capacity = kCapacity;
  twin_config.num_shards = kShards;
  twin_config.seed = kSeed;
  ShardedEngine twin(twin_config, std::move(sources));

  tiered.PopulateInitial(0);
  tiered.BeginMeasurement(0);
  twin.PopulateInitial(0);
  twin.BeginMeasurement(0);

  QueryWorkloadParams workload;
  workload.num_sources = kSources;
  workload.group_size = 6;
  workload.max_fraction = 0.25;
  workload.min_fraction = 0.25;
  workload.avg_fraction = 0.25;
  QueryGenerator queries(workload, kSeed ^ 0xCC);
  Rng point_reads(kSeed ^ 0xDD);
  // Derived pushes shipped while the reads ran: only the regional pulls'
  // fan-out produces them.
  int64_t pull_fan_out = 0;
  for (int64_t t = 1; t <= kTicks; ++t) {
    tiered.TickAll(t);
    twin.TickAll(t);
    const int64_t pushes_before = tiered.counters().derived_pushes.load();
    const Query query = queries.Next();
    ASSERT_EQ(tiered.ExecuteQuery(query, t), twin.ExecuteQuery(query, t))
        << "aggregate diverged at tick " << t;
    const int id = static_cast<int>(point_reads.UniformInt(0, kSources - 1));
    const double width = point_reads.Uniform(0.0, 10.0);
    ASSERT_EQ(tiered.PointRead(id, width, t), twin.PointRead(id, width, t))
        << "point read diverged at tick " << t;
    pull_fan_out += tiered.counters().derived_pushes.load() - pushes_before;
    for (int i = 0; i < kSources; ++i) {
      ASSERT_EQ(tiered.regional_interval(i, t), twin.regional_interval(i, t))
          << "regional interval diverged at tick " << t << ", id " << i;
      ASSERT_EQ(tiered.regional_raw_width(i), twin.regional_raw_width(i));
      ASSERT_EQ(tiered.exact_value(i), twin.ExactValue(i));
    }
    ASSERT_TRUE(tiered.DerivedInvariantHolds(t)) << "tick " << t;
  }
  tiered.EndMeasurement(kTicks);
  twin.EndMeasurement(kTicks);

  EngineCosts wan = tiered.WanCosts();
  EngineCosts flat = twin.TotalCosts();
  EXPECT_EQ(wan.value_refreshes, flat.value_refreshes);
  EXPECT_EQ(wan.query_refreshes, flat.query_refreshes);
  EXPECT_EQ(wan.total_cost, flat.total_cost);
  EXPECT_EQ(wan.measured_ticks, flat.measured_ticks);
  EXPECT_GT(wan.query_refreshes, 0) << "weak setup: no regional pulls";
  EXPECT_GT(tiered.LanCosts().value_refreshes, 0)
      << "the regional tier's refreshes never fanned out";
  EXPECT_GT(pull_fan_out, 0) << "the regional pulls never fanned out";
}

// The tiered workload driver: geo-skewed phase-shifting run completes,
// meets every constraint, and surfaces the tier hit mix.
TEST(TieredWorkloadTest, GeoSkewedPhaseShiftingRunCompletes) {
  constexpr int kSources = 32;
  HierarchyConfig seq_config = SequentialConfig(kSources, 4);
  TieredConfig config = TieredFrom(seq_config, 2, kSeed);
  TieredEngine engine(config, WalkStreams(kSources, kSeed ^ 0x88));

  TieredWorkloadConfig workload;
  workload.num_threads = 3;
  workload.queries_per_thread = 400;
  workload.num_sources = kSources;
  workload.zipf_s = 1.1;
  workload.constraints = {15.0, 1.0};
  workload.run_updates = true;
  workload.update_burst = 8;
  workload.num_phases = 3;
  workload.seed = kSeed;
  TieredDriverReport report = RunTieredWorkload(engine, workload);

  EXPECT_EQ(report.queries, 3 * 400);
  EXPECT_EQ(report.violations, 0)
      << "a returned interval exceeded its precision constraint";
  EXPECT_GT(report.ticks, 0) << "updater made no progress";
  EXPECT_GT(report.queries_per_second, 0.0);
  EXPECT_EQ(report.edge_hits + report.regional_hits + report.source_pulls,
            report.queries);
  // The constraint mix genuinely exercises all three outcomes.
  EXPECT_GT(report.edge_hits, 0);
  EXPECT_GT(report.regional_hits + report.source_pulls, 0);
  EXPECT_GT(report.wan.total_cost + report.lan.total_cost, 0.0);
  EXPECT_EQ(engine.counters().reads.load(), report.queries);

  // An invalid config yields the zero report without touching the engine.
  TieredWorkloadConfig invalid = workload;
  invalid.num_threads = 0;
  EXPECT_EQ(RunTieredWorkload(engine, invalid).queries, 0);

  // An id space the engine does not fully own is refused up front — a
  // config/engine mismatch must not masquerade as precision violations.
  TieredWorkloadConfig mismatched = workload;
  mismatched.num_sources = kSources + 10;
  EXPECT_EQ(RunTieredWorkload(engine, mismatched).queries, 0);
}

// Null streams are rejected and counted; the engine stays fully usable.
TEST(TieredEngineTest, NullStreamsRejectedAtConstruction) {
  auto streams = WalkStreams(6, kSeed ^ 0x99);
  streams[2] = nullptr;
  HierarchyConfig seq_config = SequentialConfig(6, 2);
  TieredEngine engine(TieredFrom(seq_config, 2, kSeed), std::move(streams));
  EXPECT_EQ(engine.num_sources(), 5u);
  EXPECT_EQ(engine.counters().rejected_sources.load(), 1);
  EXPECT_FALSE(engine.Owns(2));
  engine.PopulateInitial(0);
  EXPECT_TRUE(engine.Read(0, 0, 1e9, 0).Width() < kInfinity);
}

}  // namespace
}  // namespace apc
