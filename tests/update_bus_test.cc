#include "runtime/update_bus.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "runtime/partition.h"
#include "util/mutex.h"

namespace apc {
namespace {

/// One call of the bus's apply hook.
struct AppliedRun {
  size_t shard;
  std::vector<UpdateEvent> events;
};

/// A fake apply hook: records every run it is handed, in call order.
class RecordingHook {
 public:
  UpdateBus::ApplyFn Fn() {
    return [this](size_t shard, const UpdateEvent* events, size_t n) {
      runs_.push_back({shard, std::vector<UpdateEvent>(events, events + n)});
    };
  }
  const std::vector<AppliedRun>& runs() const { return runs_; }

 private:
  std::vector<AppliedRun> runs_;
};

/// The first `count` ids, from 0 up, that route to `shard` of `num_shards`.
std::vector<int> IdsOnShard(size_t shard, size_t num_shards, size_t count) {
  std::vector<int> ids;
  for (int id = 0; ids.size() < count; ++id) {
    if (runtime_internal::ShardIndex(id, num_shards) == shard) {
      ids.push_back(id);
    }
  }
  return ids;
}

void ExpectEvents(const std::vector<UpdateEvent>& actual,
                  const std::vector<UpdateEvent>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].now, expected[i].now) << "event " << i;
    EXPECT_EQ(actual[i].source_id, expected[i].source_id) << "event " << i;
  }
}

// A batch is split into maximal same-shard runs, each handed to the hook
// on the pushing thread before PushBatch returns, in batch order.
TEST(UpdateBusTest, RunsSplitByShardAndKeepTheirOrder) {
  constexpr size_t kShards = 3;
  const std::vector<int> on0 = IdsOnShard(0, kShards, 3);
  const std::vector<int> on2 = IdsOnShard(2, kShards, 2);
  RecordingHook hook;
  UpdateBus bus(kShards, hook.Fn());
  const std::vector<UpdateEvent> batch = {
      {1, on0[0]}, {2, on0[1]}, {3, on2[0]}, {4, on2[1]}, {5, on2[0]},
      {6, on0[2]}};
  EXPECT_EQ(bus.PushBatch(batch.data(), batch.size()), batch.size());

  ASSERT_EQ(hook.runs().size(), 3u);
  EXPECT_EQ(hook.runs()[0].shard, 0u);
  ExpectEvents(hook.runs()[0].events, {batch[0], batch[1]});
  EXPECT_EQ(hook.runs()[1].shard, 2u);
  ExpectEvents(hook.runs()[1].events, {batch[2], batch[3], batch[4]});
  EXPECT_EQ(hook.runs()[2].shard, 0u);
  ExpectEvents(hook.runs()[2].events, {batch[5]});
}

// Consecutive tick-alls are one broadcast run, and a broadcast run
// reaches every shard once, in index order, before the batch goes on.
TEST(UpdateBusTest, BroadcastReachesEveryShardOnceInIndexOrder) {
  constexpr size_t kShards = 4;
  const int id = IdsOnShard(1, kShards, 1)[0];
  RecordingHook hook;
  UpdateBus bus(kShards, hook.Fn());
  const std::vector<UpdateEvent> batch = {{1, UpdateEvent::kAllSources},
                                          {2, UpdateEvent::kAllSources},
                                          {2, id}};
  EXPECT_EQ(bus.PushBatch(batch.data(), batch.size()), batch.size());

  ASSERT_EQ(hook.runs().size(), kShards + 1);
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(hook.runs()[s].shard, s);
    ExpectEvents(hook.runs()[s].events, {batch[0], batch[1]});
  }
  EXPECT_EQ(hook.runs()[kShards].shard, 1u);
  ExpectEvents(hook.runs()[kShards].events, {batch[2]});
}

// With one shard there is nothing to broadcast to: tick-alls and single
// ids share one run.
TEST(UpdateBusTest, OneShardTakesTheWholeBatchAsOneRun) {
  RecordingHook hook;
  UpdateBus bus(1, hook.Fn());
  const std::vector<UpdateEvent> batch = {
      {1, UpdateEvent::kAllSources}, {1, 7}, {2, UpdateEvent::kAllSources}};
  EXPECT_EQ(bus.PushBatch(batch.data(), batch.size()), batch.size());
  ASSERT_EQ(hook.runs().size(), 1u);
  EXPECT_EQ(hook.runs()[0].shard, 0u);
  ExpectEvents(hook.runs()[0].events, batch);
}

TEST(UpdateBusTest, ClosedBusAcceptsNothing) {
  RecordingHook hook;
  UpdateBus bus(2, hook.Fn());
  EXPECT_FALSE(bus.closed());
  bus.Close();
  EXPECT_TRUE(bus.closed());
  EXPECT_FALSE(bus.Push({1, 0}));
  EXPECT_FALSE(bus.Push({1, UpdateEvent::kAllSources}));
  const UpdateEvent batch[2] = {{2, 0}, {3, 1}};
  EXPECT_EQ(bus.PushBatch(batch, 2), 0u);
  EXPECT_TRUE(hook.runs().empty());
}

// A Close that lands mid-batch cuts it at a run boundary: the run being
// applied finishes (a broadcast on every shard), later runs are refused,
// and PushBatch reports the applied prefix.
TEST(UpdateBusTest, BatchCutShortByCloseReportsItsAcceptedPrefix) {
  constexpr size_t kShards = 3;
  const int id = IdsOnShard(2, kShards, 1)[0];
  std::vector<size_t> shards;
  UpdateBus bus(kShards, [&](size_t shard, const UpdateEvent*, size_t) {
    shards.push_back(shard);
    bus.Close();
  });
  const UpdateEvent batch[4] = {{1, UpdateEvent::kAllSources},
                                {2, UpdateEvent::kAllSources},
                                {2, id},
                                {3, UpdateEvent::kAllSources}};
  EXPECT_EQ(bus.PushBatch(batch, 4), 2u);
  EXPECT_EQ(shards, (std::vector<size_t>{0, 1, 2}));
}

// Producers racing each other and a Close: each pushes until the bus
// refuses it, and whichever applies the kAppliedBeforeClose-th event
// closes the bus while the others keep pushing. The hook (under a token
// standing in for the shard lock) applies exactly the events the
// producers were told were accepted, each producer's in push order. The
// cap only bounds a bus that never refuses.
TEST(UpdateBusTest, ConcurrentProducersApplyExactlyTheirAcceptedPrefixes) {
  constexpr int kProducers = 4;
  constexpr int kBatchSize = 8;
  constexpr int kMaxBatches = 20000;
  constexpr int64_t kAppliedBeforeClose = 4000;
  Mutex token{LockRank::kEngineShard, "test.token"};
  std::vector<int64_t> last_applied(kProducers, -1);  // guarded by token
  int64_t applied = 0;                                // guarded by token
  int64_t order_breaks = 0;                           // guarded by token
  UpdateBus bus(3, [&](size_t, const UpdateEvent* events, size_t n) {
    MutexLock lock(token);
    for (size_t i = 0; i < n; ++i) {
      int64_t& last = last_applied[static_cast<size_t>(events[i].source_id)];
      if (events[i].now != last + 1) ++order_breaks;
      last = events[i].now;
      ++applied;
    }
    if (applied >= kAppliedBeforeClose) bus.Close();
  });
  std::vector<int64_t> accepted(kProducers, 0);
  std::vector<int> refused(kProducers, 0);  // not vector<bool>: raced
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      UpdateEvent events[kBatchSize];
      for (int b = 0; b < kMaxBatches; ++b) {
        for (int j = 0; j < kBatchSize; ++j) {
          events[j] = {b * kBatchSize + j, p};
        }
        const size_t n = bus.PushBatch(events, kBatchSize);
        accepted[static_cast<size_t>(p)] += static_cast<int64_t>(n);
        if (n < static_cast<size_t>(kBatchSize)) {
          refused[static_cast<size_t>(p)] = 1;
          return;
        }
      }
    });
  }
  for (auto& producer : producers) producer.join();
  MutexLock lock(token);
  int64_t total_accepted = 0;
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(refused[static_cast<size_t>(p)], 1) << "producer " << p;
    EXPECT_EQ(last_applied[static_cast<size_t>(p)] + 1,
              accepted[static_cast<size_t>(p)])
        << "producer " << p;
    total_accepted += accepted[static_cast<size_t>(p)];
  }
  EXPECT_EQ(applied, total_accepted);
  EXPECT_EQ(order_breaks, 0);
}

}  // namespace
}  // namespace apc
