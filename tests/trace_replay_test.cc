// Trace round-trip replay property (the recording half of the scenario
// harness): record a live CacheSystem run through RecordingStream, persist
// the recorded trace through trace_io, reload it, and replay it with
// BuildTraceSources. The replay must be bit-for-bit the original run —
// same answer intervals, same charges, same retained raw widths — in the
// sequential system and in the single-shard engine. This is what makes a
// recorded trace a faithful substitute for the workload that produced it.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cache/system.h"
#include "core/adaptive_policy.h"
#include "data/random_walk.h"
#include "data/trace_io.h"
#include "query/query_gen.h"
#include "runtime/sharded_engine.h"
#include "runtime/workload_driver.h"
#include "util/rng.h"

namespace apc {
namespace {

constexpr int kSources = 12;
constexpr int64_t kTicks = 160;
constexpr uint64_t kSeed = 77;

QueryWorkloadParams MakeWorkload() {
  QueryWorkloadParams workload;
  workload.num_sources = kSources;
  workload.group_size = 4;
  workload.max_fraction = 0.2;
  workload.avg_fraction = 0.2;
  return workload;
}

/// Sources with the exact BuildRandomWalkSources seed discipline (one
/// stream seed, one policy seed per id, in id order) but with each walk
/// wrapped in a RecordingStream so the run leaves a trace behind.
std::vector<std::unique_ptr<Source>> MakeRecordedSources(
    const AdaptivePolicyParams& policy,
    std::vector<const RecordingStream*>* recorders) {
  Rng master(kSeed);
  std::vector<std::unique_ptr<Source>> sources;
  for (int id = 0; id < kSources; ++id) {
    uint64_t stream_seed = master.NextUint64();
    uint64_t policy_seed = master.NextUint64();
    auto recording = std::make_unique<RecordingStream>(
        std::make_unique<RandomWalkStream>(RandomWalkParams{}, stream_seed));
    recorders->push_back(recording.get());
    sources.push_back(std::make_unique<Source>(
        id, std::move(recording),
        std::make_unique<AdaptivePolicy>(policy, policy_seed)));
  }
  return sources;
}

/// Everything a replay must reproduce bit-for-bit.
struct RunLog {
  std::vector<Interval> answers;
  int64_t value_refreshes = 0;
  int64_t query_refreshes = 0;
  double total_cost = 0.0;
  std::vector<double> raw_widths;
};

RunLog DriveSequential(CacheSystem& system) {
  RunLog log;
  system.PopulateInitial(0);
  system.costs().BeginMeasurement(0);
  QueryGenerator queries(MakeWorkload(), kSeed ^ 0xC4);
  for (int64_t t = 1; t <= kTicks; ++t) {
    system.Tick(t);
    log.answers.push_back(system.ExecuteQuery(queries.Next(), t));
  }
  system.costs().EndMeasurement(kTicks);
  log.value_refreshes = system.costs().value_refreshes();
  log.query_refreshes = system.costs().query_refreshes();
  log.total_cost = system.costs().total_cost();
  for (int id = 0; id < kSources; ++id) {
    log.raw_widths.push_back(system.source(id)->raw_width());
  }
  return log;
}

/// Records the reference run and returns its trace (already persisted and
/// reloaded through trace_io, so what the replays consume is exactly what
/// a file on disk would hold) plus the log to reproduce.
void RecordReferenceRun(Trace* trace, RunLog* log) {
  AdaptivePolicyParams policy;
  std::vector<const RecordingStream*> recorders;
  SystemConfig config;
  config.cache_capacity = kSources;
  CacheSystem system(config, MakeRecordedSources(policy, &recorders), kSeed);
  *log = DriveSequential(system);

  Trace recorded;
  for (const RecordingStream* recording : recorders) {
    recorded.hosts.push_back(recording->recorded());
  }
  ASSERT_EQ(recorded.num_hosts(), static_cast<size_t>(kSources));
  // recorded()[t] is the value visible at time t: the initial value plus
  // one Next() per tick.
  ASSERT_EQ(recorded.duration(), static_cast<size_t>(kTicks) + 1);

  std::string path = testing::TempDir() + "/replay_trace.csv";
  ASSERT_TRUE(SaveTraceCsv(recorded, path).ok());
  auto loaded = LoadTraceCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().hosts, recorded.hosts)
      << "trace_io round trip is not bit-for-bit";
  *trace = loaded.value();
  std::remove(path.c_str());
}

TEST(TraceReplayTest, SequentialReplayIsBitForBit) {
  Trace trace;
  RunLog reference;
  RecordReferenceRun(&trace, &reference);

  SystemConfig config;
  config.cache_capacity = kSources;
  CacheSystem replay(config, BuildTraceSources(trace, AdaptivePolicyParams{},
                                               kSeed),
                     kSeed);
  RunLog replayed = DriveSequential(replay);

  ASSERT_EQ(replayed.answers.size(), reference.answers.size());
  for (size_t i = 0; i < reference.answers.size(); ++i) {
    ASSERT_EQ(replayed.answers[i], reference.answers[i])
        << "answer diverged at tick " << (i + 1);
  }
  EXPECT_EQ(replayed.value_refreshes, reference.value_refreshes);
  EXPECT_EQ(replayed.query_refreshes, reference.query_refreshes);
  EXPECT_DOUBLE_EQ(replayed.total_cost, reference.total_cost);
  for (int id = 0; id < kSources; ++id) {
    EXPECT_DOUBLE_EQ(replayed.raw_widths[static_cast<size_t>(id)],
                     reference.raw_widths[static_cast<size_t>(id)])
        << "raw width diverged for source " << id;
  }
}

TEST(TraceReplayTest, EngineReplayIsBitForBit) {
  Trace trace;
  RunLog reference;
  RecordReferenceRun(&trace, &reference);

  EngineConfig config;
  config.system.cache_capacity = kSources;
  config.num_shards = 1;
  config.seed = kSeed;
  ShardedEngine engine(
      config, BuildTraceSources(trace, AdaptivePolicyParams{}, kSeed));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);
  QueryGenerator queries(MakeWorkload(), kSeed ^ 0xC4);
  for (int64_t t = 1; t <= kTicks; ++t) {
    engine.TickAll(t);
    Interval answer = engine.ExecuteQuery(queries.Next(), t);
    ASSERT_EQ(answer, reference.answers[static_cast<size_t>(t - 1)])
        << "engine diverged at tick " << t;
  }
  engine.EndMeasurement(kTicks);
  EngineCosts costs = engine.TotalCosts();
  EXPECT_EQ(costs.value_refreshes, reference.value_refreshes);
  EXPECT_EQ(costs.query_refreshes, reference.query_refreshes);
  EXPECT_DOUBLE_EQ(costs.total_cost, reference.total_cost);
}

/// A replay through engines that own their policies: the same loaded trace
/// must drive two independently constructed TieredEngine instances to
/// identical charges and read answers (the engine-agnostic half of the
/// replay contract — any engine fed BuildTraceStreams sees the same
/// update sequence).
TEST(TraceReplayTest, TieredReplayIsReproducible) {
  Trace trace;
  RunLog reference;
  RecordReferenceRun(&trace, &reference);

  auto drive = [&trace](std::vector<Interval>* answers) {
    TieredConfig config;
    config.num_edges = 2;
    config.num_shards = 1;
    config.seed = kSeed;
    TieredEngine engine(config, BuildTraceStreams(trace));
    engine.PopulateInitial(0);
    engine.BeginMeasurement(0);
    Rng rng(kSeed ^ 0x7E);
    for (int64_t t = 1; t <= kTicks; ++t) {
      engine.TickAll(t);
      int id = rng.UniformInt(0, kSources - 1);
      int edge = rng.UniformInt(0, 1);
      answers->push_back(engine.Read(edge, id, rng.Uniform(2.0, 10.0), t));
    }
    engine.EndMeasurement(kTicks);
    EngineCosts wan = engine.WanCosts();
    EngineCosts lan = engine.LanCosts();
    return wan.total_cost + lan.total_cost;
  };

  std::vector<Interval> first_answers;
  std::vector<Interval> second_answers;
  double first_cost = drive(&first_answers);
  double second_cost = drive(&second_answers);
  EXPECT_EQ(first_answers, second_answers);
  EXPECT_DOUBLE_EQ(first_cost, second_cost);
}

}  // namespace
}  // namespace apc
