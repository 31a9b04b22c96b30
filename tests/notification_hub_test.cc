// NotificationHub semantics: FIFO delivery, bounded backpressure, and
// close/drain shutdown.
#include "subscribe/notification_hub.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace apc {
namespace {

Notification Rec(int64_t sub_id, int64_t epoch, int64_t now = 0) {
  Notification record;
  record.sub_id = sub_id;
  record.answer = Interval(static_cast<double>(epoch),
                           static_cast<double>(epoch) + 1.0);
  record.epoch = epoch;
  record.now = now;
  return record;
}

TEST(NotificationHubTest, PopDeliversInFifoOrder) {
  NotificationHub hub(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(hub.Push(Rec(i, i + 1)));
  EXPECT_EQ(hub.size(), 5u);
  std::vector<Notification> batch;
  EXPECT_EQ(hub.PopBatch(&batch, 16), 5u);
  ASSERT_EQ(batch.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(batch[static_cast<size_t>(i)].sub_id, i);
    EXPECT_EQ(batch[static_cast<size_t>(i)].epoch, i + 1);
    EXPECT_EQ(batch[static_cast<size_t>(i)].answer,
              Interval(static_cast<double>(i + 1),
                       static_cast<double>(i + 2)));
  }
}

TEST(NotificationHubTest, PopBatchRespectsMaxBatch) {
  NotificationHub hub(16);
  for (int i = 0; i < 10; ++i) hub.Push(Rec(i, 1));
  std::vector<Notification> batch;
  EXPECT_EQ(hub.PopBatch(&batch, 4), 4u);
  EXPECT_EQ(batch.front().sub_id, 0);
  EXPECT_EQ(hub.PopBatch(&batch, 4), 4u);
  EXPECT_EQ(batch.front().sub_id, 4);
  EXPECT_EQ(hub.PopBatch(&batch, 4), 2u);
}

TEST(NotificationHubTest, TryPushFailsWhenFull) {
  NotificationHub hub(2);
  EXPECT_TRUE(hub.TryPush(Rec(1, 1)));
  EXPECT_TRUE(hub.TryPush(Rec(2, 1)));
  EXPECT_FALSE(hub.TryPush(Rec(3, 1)));
  std::vector<Notification> batch;
  hub.PopBatch(&batch, 1);
  EXPECT_TRUE(hub.TryPush(Rec(3, 1)));
}

TEST(NotificationHubTest, CloseDrainsBacklogThenReturnsZero) {
  NotificationHub hub(8);
  hub.Push(Rec(1, 1));
  hub.Push(Rec(2, 1));
  hub.Close();
  EXPECT_FALSE(hub.Push(Rec(3, 1)));
  EXPECT_FALSE(hub.TryPush(Rec(3, 1)));
  std::vector<Notification> batch;
  EXPECT_EQ(hub.PopBatch(&batch, 16), 2u);
  EXPECT_EQ(hub.PopBatch(&batch, 16), 0u);
  EXPECT_TRUE(hub.closed());
}

TEST(NotificationHubTest, BlockedProducerUnblocksOnClose) {
  NotificationHub hub(1);
  EXPECT_TRUE(hub.Push(Rec(1, 1)));
  std::thread producer([&] {
    // Full: this push blocks until Close() wakes it, then fails.
    EXPECT_FALSE(hub.Push(Rec(2, 1)));
  });
  hub.Close();
  producer.join();
}

TEST(NotificationHubTest, MultipleProducersDeliverEverything) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  NotificationHub hub(32);  // smaller than the total: backpressure exercised
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&hub, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(hub.Push(Rec(p, i + 1)));
      }
    });
  }
  std::vector<int64_t> per_producer(kProducers, 0);
  int received = 0;
  std::vector<Notification> batch;
  while (received < kProducers * kPerProducer) {
    size_t n = hub.PopBatch(&batch, 64);
    ASSERT_GT(n, 0u);
    for (const Notification& record : batch) {
      // Per-producer FIFO: each producer's records arrive in epoch order.
      EXPECT_EQ(record.epoch,
                ++per_producer[static_cast<size_t>(record.sub_id)]);
    }
    received += static_cast<int>(n);
  }
  for (auto& producer : producers) producer.join();
  EXPECT_EQ(hub.total_pushed(), kProducers * kPerProducer);
  EXPECT_EQ(hub.size(), 0u);
}

// Multi-consumer drain: every record is delivered to exactly one consumer
// and nothing is lost or duplicated — the shape subscriber-thread pools
// rely on.
TEST(NotificationHubTest, MultipleConsumersPartitionTheStream) {
  constexpr int kRecords = 2000;
  NotificationHub hub(64);
  std::vector<std::thread> consumers;
  std::atomic<int64_t> drained{0};
  std::vector<std::atomic<int>> seen(kRecords);
  for (auto& s : seen) s.store(0);
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      std::vector<Notification> batch;
      while (hub.PopBatch(&batch, 16) > 0) {
        for (const Notification& record : batch) {
          seen[static_cast<size_t>(record.sub_id)].fetch_add(1);
          drained.fetch_add(1);
        }
      }
    });
  }
  for (int i = 0; i < kRecords; ++i) ASSERT_TRUE(hub.Push(Rec(i, 1)));
  hub.Close();
  for (auto& consumer : consumers) consumer.join();
  EXPECT_EQ(drained.load(), kRecords);
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(seen[static_cast<size_t>(i)].load(), 1) << "record " << i;
  }
}

// -- PushBatch: the batch-reservation discipline -----------------------
// The manager's outbox flush delivers evaluation batches through
// PushBatch; its contract is Push's exactly — FIFO, bounded, blocking,
// close-drops-the-tail — with one lock acquisition per free-capacity
// chunk instead of one per record.

TEST(NotificationHubTest, PushBatchPreservesFifoOrder) {
  NotificationHub hub(8);
  std::vector<Notification> records;
  for (int i = 0; i < 5; ++i) records.push_back(Rec(i, i + 1));
  EXPECT_EQ(hub.PushBatch(records.data(), records.size()), 5u);
  EXPECT_EQ(hub.total_pushed(), 5);
  std::vector<Notification> batch;
  ASSERT_EQ(hub.PopBatch(&batch, 16), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(batch[static_cast<size_t>(i)].sub_id, i);
    EXPECT_EQ(batch[static_cast<size_t>(i)].epoch, i + 1);
  }
}

// A batch larger than the hub chunks through backpressure: the producer
// blocks per chunk while a consumer drains, and the stream arrives whole
// and in order — the hub-ordering regression test for batched delivery.
TEST(NotificationHubTest, PushBatchChunksThroughBackpressureInOrder) {
  constexpr int kRecords = 300;
  NotificationHub hub(16);  // much smaller than the batch
  std::vector<Notification> records;
  for (int i = 0; i < kRecords; ++i) records.push_back(Rec(7, i + 1));
  std::thread producer([&] {
    EXPECT_EQ(hub.PushBatch(records.data(), records.size()),
              static_cast<size_t>(kRecords));
  });
  int64_t next_epoch = 1;
  std::vector<Notification> batch;
  while (next_epoch <= kRecords) {
    size_t n = hub.PopBatch(&batch, 32);
    ASSERT_GT(n, 0u);
    for (const Notification& record : batch) {
      // Strictly increasing epochs: batched delivery must not reorder.
      EXPECT_EQ(record.epoch, next_epoch++);
    }
  }
  producer.join();
  EXPECT_EQ(hub.size(), 0u);
}

// Closing mid-batch drops exactly the unaccepted tail: the return value
// tells the caller how many records actually entered the stream.
TEST(NotificationHubTest, PushBatchPartialAcceptOnClose) {
  NotificationHub hub(2);
  std::vector<Notification> records;
  for (int i = 0; i < 5; ++i) records.push_back(Rec(i, i + 1));
  std::thread producer([&] {
    // First chunk of 2 fits; the hub closes while the rest waits.
    EXPECT_EQ(hub.PushBatch(records.data(), records.size()), 2u);
  });
  // Wait until the first chunk is in (the producer is blocked on the
  // full hub), then close.
  while (hub.size() < 2u) std::this_thread::yield();
  hub.Close();
  producer.join();
  std::vector<Notification> batch;
  EXPECT_EQ(hub.PopBatch(&batch, 16), 2u);
  EXPECT_EQ(batch[0].sub_id, 0);
  EXPECT_EQ(batch[1].sub_id, 1);
  EXPECT_EQ(hub.PopBatch(&batch, 16), 0u);
  // An empty batch against a closed hub accepts nothing.
  EXPECT_EQ(hub.PushBatch(records.data(), records.size()), 0u);
}

// Batch and single-record producers interleave freely; per-producer FIFO
// survives, mirroring MultipleProducersDeliverEverything.
TEST(NotificationHubTest, PushBatchAndPushInterleaveWithPerProducerFifo) {
  constexpr int kPerProducer = 400;
  NotificationHub hub(32);
  std::thread batcher([&] {
    std::vector<Notification> records;
    for (int i = 0; i < kPerProducer; ++i) records.push_back(Rec(0, i + 1));
    EXPECT_EQ(hub.PushBatch(records.data(), records.size()),
              static_cast<size_t>(kPerProducer));
  });
  std::thread single([&] {
    for (int i = 0; i < kPerProducer; ++i) {
      ASSERT_TRUE(hub.Push(Rec(1, i + 1)));
    }
  });
  std::vector<int64_t> per_producer(2, 0);
  int received = 0;
  std::vector<Notification> batch;
  while (received < 2 * kPerProducer) {
    size_t n = hub.PopBatch(&batch, 64);
    ASSERT_GT(n, 0u);
    for (const Notification& record : batch) {
      EXPECT_EQ(record.epoch,
                ++per_producer[static_cast<size_t>(record.sub_id)]);
    }
    received += static_cast<int>(n);
  }
  batcher.join();
  single.join();
  EXPECT_EQ(hub.total_pushed(), 2 * kPerProducer);
}

}  // namespace
}  // namespace apc
