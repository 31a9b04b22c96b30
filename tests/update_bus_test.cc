#include "runtime/update_bus.h"

#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "util/mutex.h"

namespace apc {
namespace {

TEST(UpdateBusTest, DrainDeliversInFifoOrder) {
  UpdateBus bus(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(bus.Push({i, i}));
  EXPECT_EQ(bus.size(), 5u);
  std::vector<UpdateEvent> batch;
  EXPECT_EQ(bus.DrainRing(0, &batch, 16), 5u);
  ASSERT_EQ(batch.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(batch[static_cast<size_t>(i)].now, i);
    EXPECT_EQ(batch[static_cast<size_t>(i)].source_id, i);
  }
}

TEST(UpdateBusTest, DrainRingRespectsMaxBatch) {
  UpdateBus bus(16);
  for (int i = 0; i < 10; ++i) bus.Push({i, 0});
  std::vector<UpdateEvent> batch;
  EXPECT_EQ(bus.DrainRing(0, &batch, 4), 4u);
  EXPECT_EQ(batch.front().now, 0);
  EXPECT_EQ(bus.DrainRing(0, &batch, 4), 4u);
  EXPECT_EQ(batch.front().now, 4);
  EXPECT_EQ(bus.DrainRing(0, &batch, 4), 2u);
  // Non-blocking: an empty ring answers 0 at once.
  EXPECT_EQ(bus.DrainRing(0, &batch, 4), 0u);
  EXPECT_TRUE(batch.empty());
}

TEST(UpdateBusTest, TryPushFailsWhenFull) {
  UpdateBus bus(2);
  EXPECT_TRUE(bus.TryPush({1, 0}));
  EXPECT_TRUE(bus.TryPush({2, 0}));
  EXPECT_FALSE(bus.TryPush({3, 0}));
  std::vector<UpdateEvent> batch;
  bus.DrainRing(0, &batch, 1);
  EXPECT_TRUE(bus.TryPush({3, 0}));
}

TEST(UpdateBusTest, CloseKeepsTheBacklogDrainable) {
  UpdateBus bus(8);
  bus.Push({1, 0});
  bus.Push({2, 0});
  bus.Close();
  EXPECT_FALSE(bus.Push({3, 0}));
  EXPECT_FALSE(bus.TryPush({3, 0}));
  std::vector<UpdateEvent> batch;
  EXPECT_EQ(bus.DrainRing(0, &batch, 16), 2u);
  EXPECT_EQ(bus.DrainRing(0, &batch, 16), 0u);
  EXPECT_TRUE(bus.closed());
}

TEST(UpdateBusTest, BlockedProducerUnblocksOnClose) {
  UpdateBus bus(1);
  EXPECT_TRUE(bus.Push({1, 0}));
  std::thread producer([&] {
    // Full: this push blocks until Close() wakes it, then fails.
    EXPECT_FALSE(bus.Push({2, 0}));
  });
  bus.Close();
  producer.join();
}

TEST(UpdateBusTest, MultipleProducersDeliverEverything) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  UpdateBus bus(32);  // smaller than the total: backpressure is exercised
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&bus, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(bus.Push({i, p}));
      }
    });
  }
  std::vector<int> per_producer(kProducers, 0);
  int received = 0;
  std::vector<UpdateEvent> batch;
  while (received < kProducers * kPerProducer) {
    size_t n = bus.DrainRing(0, &batch, 64);
    if (n == 0) std::this_thread::yield();
    for (const UpdateEvent& e : batch) {
      // Per-producer FIFO: each producer's events arrive in push order.
      EXPECT_EQ(e.now, per_producer[static_cast<size_t>(e.source_id)]++);
    }
    received += static_cast<int>(n);
  }
  for (auto& producer : producers) producer.join();
  EXPECT_EQ(bus.total_pushed(), kProducers * kPerProducer);
  EXPECT_EQ(bus.size(), 0u);
}

// The physical ring is tiny, the traffic is not: FIFO order must survive
// many generations of index wraparound (seq stamps advance by mask+1 per
// lap, so a stale-generation cell can never masquerade as published).
TEST(UpdateBusTest, WraparoundKeepsFifoOrder) {
  UpdateBus bus(4);
  std::vector<UpdateEvent> batch;
  int64_t next_expected = 0;
  for (int lap = 0; lap < 64; ++lap) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(bus.Push({next_expected + i, 0}));
    }
    ASSERT_EQ(bus.DrainRing(0, &batch, 8), 3u);
    for (const UpdateEvent& e : batch) {
      EXPECT_EQ(e.now, next_expected++);
    }
  }
  EXPECT_EQ(bus.total_pushed(), 64 * 3);
}

// Batch reservation: one fetch_add claims a contiguous range, so a
// producer's PushBatch run lands adjacent in the ring even with other
// producers racing — the drained stream never interleaves inside a batch.
TEST(UpdateBusTest, MultiProducerBatchReservationStaysContiguous) {
  constexpr int kProducers = 4;
  constexpr int kBatches = 50;
  constexpr int kBatchSize = 8;
  UpdateBus bus(64);  // single ring: every producer contends on one tail
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&bus, p] {
      UpdateEvent events[kBatchSize];
      for (int b = 0; b < kBatches; ++b) {
        for (int j = 0; j < kBatchSize; ++j) {
          events[j] = {b * kBatchSize + j, p};
        }
        ASSERT_EQ(bus.PushBatch(events, kBatchSize),
                  static_cast<size_t>(kBatchSize));
      }
    });
  }
  int received = 0;
  std::vector<UpdateEvent> drained;
  std::vector<UpdateEvent> batch;
  while (received < kProducers * kBatches * kBatchSize) {
    size_t n = bus.DrainRing(0, &batch, 256);
    if (n == 0) std::this_thread::yield();
    drained.insert(drained.end(), batch.begin(), batch.end());
    received += static_cast<int>(n);
  }
  for (auto& producer : producers) producer.join();
  // Every kBatchSize-aligned run in the drained stream is one producer's
  // batch, in order: reservation contiguity makes this exact, not a race.
  ASSERT_EQ(drained.size() % kBatchSize, 0u);
  for (size_t i = 0; i < drained.size(); i += kBatchSize) {
    for (size_t j = 1; j < kBatchSize; ++j) {
      EXPECT_EQ(drained[i + j].source_id, drained[i].source_id)
          << "batch interleaved at drain offset " << i + j;
      EXPECT_EQ(drained[i + j].now, drained[i].now + static_cast<int64_t>(j));
    }
  }
}

// A tick-all broadcast is copied into EVERY per-shard ring (each copy
// means "tick all sources of that shard"), but counts once as traffic.
TEST(UpdateBusTest, BroadcastLandsInEveryRing) {
  UpdateBus bus(8, /*num_rings=*/4);
  ASSERT_TRUE(bus.Push({7, UpdateEvent::kAllSources}));
  EXPECT_EQ(bus.total_pushed(), 1);
  EXPECT_EQ(bus.size(), 4u);
  std::vector<UpdateEvent> batch;
  for (size_t ring = 0; ring < 4; ++ring) {
    ASSERT_EQ(bus.DrainRing(ring, &batch, 8), 1u) << "ring " << ring;
    EXPECT_EQ(batch.front().now, 7);
    EXPECT_EQ(batch.front().source_id, UpdateEvent::kAllSources);
  }
  EXPECT_EQ(bus.size(), 0u);
}

// A non-blocking broadcast is all-or-nothing: when any ring is full the
// whole push fails and the credits taken from the other rings are rolled
// back — no ring ends up with a partial broadcast.
TEST(UpdateBusTest, TryPushBroadcastIsAllOrNothing) {
  UpdateBus bus(1, /*num_rings=*/2);
  // Find ids hashing to each ring (RingOf is the engine's own partition).
  int id_ring0 = 0;
  while (bus.RingOf(id_ring0) != 0) ++id_ring0;
  int id_ring1 = 0;
  while (bus.RingOf(id_ring1) != 1) ++id_ring1;
  ASSERT_TRUE(bus.TryPush({1, id_ring0}));  // ring 0 now full
  EXPECT_FALSE(bus.TryPush({2, UpdateEvent::kAllSources}));
  // Ring 1's credit was rolled back, so it still has room.
  EXPECT_TRUE(bus.TryPush({3, id_ring1}));
  EXPECT_EQ(bus.size(), 2u);
}

// Close on a multi-ring bus without a combiner: new pushes of every flavor
// are refused, and the backlog of every ring (including broadcast copies)
// stays drainable.
TEST(UpdateBusTest, MultiRingCloseDrainsBacklogThenReturnsZero) {
  UpdateBus bus(8, /*num_rings=*/3);
  int id_ring0 = 0;
  while (bus.RingOf(id_ring0) != 0) ++id_ring0;
  ASSERT_TRUE(bus.Push({1, id_ring0}));
  ASSERT_TRUE(bus.Push({2, UpdateEvent::kAllSources}));
  bus.Close();
  EXPECT_FALSE(bus.Push({3, id_ring0}));
  EXPECT_FALSE(bus.TryPush({3, UpdateEvent::kAllSources}));
  UpdateEvent more[2] = {{4, id_ring0}, {5, id_ring0}};
  EXPECT_EQ(bus.PushBatch(more, 2), 0u);
  // Backlog: 1 per-source event + 3 broadcast copies.
  size_t drained = 0;
  std::vector<UpdateEvent> batch;
  for (size_t ring = 0; ring < 3; ++ring) {
    drained += bus.DrainRing(ring, &batch, 16);
    EXPECT_EQ(bus.DrainRing(ring, &batch, 16), 0u);
  }
  EXPECT_EQ(drained, 4u);
  EXPECT_EQ(bus.total_pushed(), 2);
}

// The producer parking lot's waits are untimed, so a lost wake-up is a
// hang, and ctest's timeout fails the suite. A one-slot ring is full after
// every push, so the producer parks for credits on nearly every event and
// only the polling consumer's credit return can wake it. The race a
// missing re-check or mu_ visit opens is a few instructions wide, so this
// hits it only now and then; what it pins every time is the hand-off.
TEST(UpdateBusTest, PingPongWakesAProducerParkedOnAFullRing) {
  constexpr int kEvents = 20000;
  UpdateBus bus(1);
  std::thread producer([&] {
    for (int i = 0; i < kEvents && bus.Push({i, 0}); ++i) {
    }
  });
  std::vector<UpdateEvent> batch;
  int received = 0;
  while (received < kEvents) {
    if (bus.DrainRing(0, &batch, 1) == 0) {
      std::this_thread::yield();
      continue;
    }
    if (batch.front().now != received) break;
    ++received;
  }
  bus.Close();
  producer.join();
  EXPECT_EQ(received, kEvents);
}

// A combining bus's consumer for the bus-level tests: a token (standing
// in for the engine's shard lock) and, per ring, what was applied and on
// which thread.
class RecordingConsumer {
 public:
  explicit RecordingConsumer(size_t rings) : applied_(rings) {}

  /// The bus's Combiner: drains `ring` under the token, four at a time.
  void Combine(UpdateBus& bus, size_t ring, uint64_t until) {
    MutexLock lock(token_);
    std::vector<UpdateEvent> burst;
    while (bus.DrainRing(ring, &burst, 4, until) > 0) {
      for (const UpdateEvent& e : burst) {
        applied_[ring].push_back({e, std::this_thread::get_id()});
      }
    }
  }
  /// Ring `ring`'s applied events with the applying thread, in order.
  std::vector<std::pair<UpdateEvent, std::thread::id>> Applied(size_t ring) {
    MutexLock lock(token_);
    return applied_[ring];
  }

 private:
  Mutex token_{LockRank::kEngineShard, "test.token"};
  std::vector<std::vector<std::pair<UpdateEvent, std::thread::id>>> applied_
      APC_GUARDED_BY(token_);
};

// Until StartCombining, pushes only queue. Start applies the backlog on
// its caller's thread; from then on a push is applied by its own thread
// before it returns, a broadcast in every ring.
TEST(UpdateBusTest, CombiningAppliesOnThePushingThread) {
  RecordingConsumer consumer(2);
  UpdateBus bus(8, 2, [&](size_t ring, uint64_t until) {
    consumer.Combine(bus, ring, until);
  });
  int id_ring1 = 0;
  while (bus.RingOf(id_ring1) != 1) ++id_ring1;
  ASSERT_TRUE(bus.Push({1, id_ring1}));
  EXPECT_TRUE(consumer.Applied(1).empty());
  EXPECT_EQ(bus.size(), 1u);

  ASSERT_TRUE(bus.StartCombining());
  EXPECT_TRUE(bus.combining());
  EXPECT_EQ(bus.size(), 0u);
  ASSERT_EQ(consumer.Applied(1).size(), 1u);
  EXPECT_EQ(consumer.Applied(1)[0].second, std::this_thread::get_id());

  std::thread::id producer_id;
  std::thread producer([&] {
    producer_id = std::this_thread::get_id();
    UpdateEvent events[2] = {{2, UpdateEvent::kAllSources}, {3, id_ring1}};
    EXPECT_EQ(bus.PushBatch(events, 2), 2u);
    // Applied before PushBatch returned, on this thread.
    EXPECT_EQ(bus.size(), 0u);
  });
  producer.join();
  std::vector<std::pair<UpdateEvent, std::thread::id>> ring0 =
      consumer.Applied(0);
  std::vector<std::pair<UpdateEvent, std::thread::id>> ring1 =
      consumer.Applied(1);
  ASSERT_EQ(ring0.size(), 1u);
  ASSERT_EQ(ring1.size(), 3u);
  EXPECT_EQ(ring0[0].first.now, 2);
  EXPECT_EQ(ring1[1].first.now, 2);
  EXPECT_EQ(ring1[2].first.now, 3);
  EXPECT_EQ(ring0[0].second, producer_id);
  EXPECT_EQ(ring1[2].second, producer_id);

  // TryPush combines too.
  ASSERT_TRUE(bus.TryPush({4, id_ring1}));
  EXPECT_EQ(consumer.Applied(1).size(), 4u);
}

// Start is single-use per bus: a bus without a combiner never combines,
// and a closed bus never starts. Close on a combining bus applies what is
// left; later pushes fail.
TEST(UpdateBusTest, StartCombiningNeedsACombinerAndAnOpenBus) {
  UpdateBus plain(8);
  EXPECT_FALSE(plain.StartCombining());
  EXPECT_FALSE(plain.combining());

  RecordingConsumer consumer(1);
  UpdateBus bus(8, 1, [&](size_t ring, uint64_t until) {
    consumer.Combine(bus, ring, until);
  });
  ASSERT_TRUE(bus.StartCombining());
  EXPECT_TRUE(bus.StartCombining());  // already combining
  ASSERT_TRUE(bus.Push({1, 0}));
  bus.Close();
  EXPECT_FALSE(bus.Push({2, 0}));
  EXPECT_FALSE(bus.StartCombining());
  EXPECT_EQ(consumer.Applied(0).size(), 1u);

  UpdateBus closed_first(8, 1, [&](size_t, uint64_t) {});
  closed_first.Close();
  EXPECT_FALSE(closed_first.StartCombining());
}

// No stranded event: with producers racing on one ring, each push returns
// only after its own event was applied — by itself, or by whichever
// producer held the token when it was published — and per-producer FIFO
// order survives.
TEST(UpdateBusTest, RacingProducersReturnOnlyOnceTheirEventIsApplied) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  Mutex token{LockRank::kEngineShard, "test.token"};
  std::vector<int64_t> last_applied(kProducers, -1);  // guarded by token
  int64_t order_breaks = 0;                           // guarded by token
  UpdateBus bus(4, 1, [&](size_t ring, uint64_t until) {
    MutexLock lock(token);
    std::vector<UpdateEvent> burst;
    while (bus.DrainRing(ring, &burst, 4, until) > 0) {
      for (const UpdateEvent& e : burst) {
        int64_t& last = last_applied[static_cast<size_t>(e.source_id)];
        if (e.now != last + 1) ++order_breaks;
        last = e.now;
      }
    }
  });
  ASSERT_TRUE(bus.StartCombining());
  std::vector<int> stranded(kProducers, 0);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(bus.Push({i, p}));
        MutexLock lock(token);
        if (last_applied[static_cast<size_t>(p)] < i) {
          ++stranded[static_cast<size_t>(p)];
        }
      }
    });
  }
  for (auto& producer : producers) producer.join();
  MutexLock lock(token);
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(stranded[static_cast<size_t>(p)], 0) << "producer " << p;
    EXPECT_EQ(last_applied[static_cast<size_t>(p)], kPerProducer - 1);
  }
  EXPECT_EQ(order_breaks, 0);
  EXPECT_EQ(bus.size(), 0u);
}

}  // namespace
}  // namespace apc
