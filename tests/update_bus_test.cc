#include "runtime/update_bus.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace apc {
namespace {

TEST(UpdateBusTest, PopDeliversInFifoOrder) {
  UpdateBus bus(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(bus.Push({i, i}));
  EXPECT_EQ(bus.size(), 5u);
  std::vector<UpdateEvent> batch;
  EXPECT_EQ(bus.PopBatch(&batch, 16), 5u);
  ASSERT_EQ(batch.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(batch[static_cast<size_t>(i)].now, i);
    EXPECT_EQ(batch[static_cast<size_t>(i)].source_id, i);
  }
}

TEST(UpdateBusTest, PopBatchRespectsMaxBatch) {
  UpdateBus bus(16);
  for (int i = 0; i < 10; ++i) bus.Push({i, 0});
  std::vector<UpdateEvent> batch;
  EXPECT_EQ(bus.PopBatch(&batch, 4), 4u);
  EXPECT_EQ(batch.front().now, 0);
  EXPECT_EQ(bus.PopBatch(&batch, 4), 4u);
  EXPECT_EQ(batch.front().now, 4);
  EXPECT_EQ(bus.PopBatch(&batch, 4), 2u);
}

TEST(UpdateBusTest, TryPushFailsWhenFull) {
  UpdateBus bus(2);
  EXPECT_TRUE(bus.TryPush({1, 0}));
  EXPECT_TRUE(bus.TryPush({2, 0}));
  EXPECT_FALSE(bus.TryPush({3, 0}));
  std::vector<UpdateEvent> batch;
  bus.PopBatch(&batch, 1);
  EXPECT_TRUE(bus.TryPush({3, 0}));
}

TEST(UpdateBusTest, CloseDrainsBacklogThenReturnsZero) {
  UpdateBus bus(8);
  bus.Push({1, 0});
  bus.Push({2, 0});
  bus.Close();
  EXPECT_FALSE(bus.Push({3, 0}));
  EXPECT_FALSE(bus.TryPush({3, 0}));
  std::vector<UpdateEvent> batch;
  EXPECT_EQ(bus.PopBatch(&batch, 16), 2u);
  EXPECT_EQ(bus.PopBatch(&batch, 16), 0u);
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
    size_t n = bus.PopBatch(&batch, 64);
    ASSERT_GT(n, 0u);
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
    ASSERT_EQ(bus.PopBatch(&batch, 8), 3u);
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
    size_t n = bus.PopBatch(&batch, 256);
    ASSERT_GT(n, 0u);
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
  bool seen[4] = {false, false, false, false};
  for (int i = 0; i < 4; ++i) {
    size_t ring = 0;
    ASSERT_EQ(bus.PopBatch(&batch, 8, &ring), 1u);
    EXPECT_EQ(batch.front().now, 7);
    EXPECT_EQ(batch.front().source_id, UpdateEvent::kAllSources);
    ASSERT_LT(ring, 4u);
    EXPECT_FALSE(seen[ring]) << "ring " << ring << " drained twice";
    seen[ring] = true;
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

// Close-drains semantics on a multi-ring bus: the backlog of every ring
// (including broadcast copies) drains, then PopBatch returns 0 and new
// pushes of every flavor are refused.
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
  for (size_t n = 0; (n = bus.PopBatch(&batch, 16)) > 0;) drained += n;
  EXPECT_EQ(drained, 4u);
  EXPECT_EQ(bus.PopBatch(&batch, 16), 0u);
  EXPECT_EQ(bus.total_pushed(), 2);
}

// The bus's waits are untimed, so a lost wake-up is a hang, and ctest's
// timeout fails the suite. A single-event ping-pong makes every round trip
// a hand-off to a consumer blocked in PopBatch, on both buses. The race a
// missing re-check or mu_ visit opens is a few instructions wide, so these
// runs hit it only now and then; what they pin every time is the hand-off.
TEST(UpdateBusTest, PingPongWakesAConsumerBlockedInPopBatch) {
  constexpr int kRoundTrips = 20000;
  UpdateBus ping(1);
  UpdateBus pong(1);
  std::thread echo([&] {
    std::vector<UpdateEvent> batch;
    while (ping.PopBatch(&batch, 1) == 1) {
      if (!pong.Push(batch.front())) break;
    }
    pong.Close();
  });
  std::vector<UpdateEvent> batch;
  int completed = 0;
  while (completed < kRoundTrips && ping.Push({completed, 0}) &&
         pong.PopBatch(&batch, 1) == 1 && batch.front().now == completed) {
    ++completed;
  }
  ping.Close();
  echo.join();
  EXPECT_EQ(completed, kRoundTrips);
}

// The credit side of the same hand-off: a one-slot ring is full after
// every push, so the producer waits for credits on nearly every event and
// only the consumer's credit return can wake it.
TEST(UpdateBusTest, PingPongWakesAProducerParkedOnAFullRing) {
  constexpr int kEvents = 20000;
  UpdateBus bus(1);
  std::thread producer([&] {
    for (int i = 0; i < kEvents && bus.Push({i, 0}); ++i) {
    }
  });
  std::vector<UpdateEvent> batch;
  int received = 0;
  while (received < kEvents && bus.PopBatch(&batch, 1) == 1 &&
         batch.front().now == received) {
    ++received;
  }
  bus.Close();
  producer.join();
  EXPECT_EQ(received, kEvents);
}

}  // namespace
}  // namespace apc
