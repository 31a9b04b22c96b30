#include "util/mutex.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

// apc::SharedMutex acquires adaptively (src/util/mutex.h): one try, then
// retries with a yield between them for kSharedMutexYieldBudget, then a
// blocking acquisition. These cases pin what that must not change:
// exclusion in both modes whether a hold ends inside the budget or long
// after it, a waiter behind a long hold parks instead of burning its CPU,
// and the lock-order validator still runs before any waiting.

namespace apc {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

// Writers bump two plain counters together under the exclusive lock;
// readers under the shared lock must never see them differ. The counters
// are deliberately not atomic: under ThreadSanitizer a lapse in exclusion
// is also a reported race.
void RunExclusion(microseconds hold, int writer_rounds) {
  SharedMutex mu(LockRank::kEngineShard, "shard.mu");
  int64_t a = 0;
  int64_t b = 0;
  std::atomic<bool> writers_done{false};
  std::atomic<int64_t> mismatches{0};
  std::atomic<int64_t> reads{0};
  constexpr int kWriters = 2;
  constexpr int kReaders = 3;

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < writer_rounds; ++i) {
        WriterMutexLock lock(mu);
        ++a;
        if (hold >= milliseconds(1)) {
          std::this_thread::sleep_for(hold);
        } else {
          const auto until = steady_clock::now() + hold;
          while (steady_clock::now() < until) {
          }
        }
        ++b;
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      // At least one read after the writers finish, so every reader
      // observes the final state too.
      bool last = false;
      while (!last) {
        last = writers_done.load();
        {
          ReaderMutexLock lock(mu);
          if (a != b) mismatches.fetch_add(1);
        }
        reads.fetch_add(1);
        // Leave gaps between shared holds: std::shared_mutex prefers
        // readers, and back-to-back readers could starve the writers.
        std::this_thread::yield();
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  writers_done.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(reads.load(), kReaders);
  WriterMutexLock lock(mu);
  EXPECT_EQ(a, int64_t{kWriters} * writer_rounds);
  EXPECT_EQ(b, a);
}

TEST(SharedMutexTest, ExcludesWithHoldsShorterThanTheYieldBudget) {
  // 2 us holds: nearly every waiter takes the lock inside its budget.
  RunExclusion(microseconds(2), 5000);
}

TEST(SharedMutexTest, ExcludesWithMillisecondHolds) {
  // 2 ms holds: every waiter spends its budget and then blocks.
  RunExclusion(milliseconds(2), 25);
}

// CPU time the calling thread has used so far (user + system).
microseconds ThreadCpuTime() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  auto to_us = [](const timeval& tv) {
    return microseconds(int64_t{tv.tv_sec} * 1000000 + tv.tv_usec);
  };
  return to_us(usage.ru_utime) + to_us(usage.ru_stime);
}

// A waiter queued behind a 200 ms exclusive hold must spend its yield
// budget and then block: it may use well under 50 ms of CPU for the
// whole wait. A waiter that kept yielding would burn close to all 200 ms
// whenever a CPU was free.
void ExpectWaiterParks(bool shared) {
  SharedMutex mu(LockRank::kEngineShard, "shard.mu");
  std::atomic<bool> waiting{false};
  microseconds cpu{0};
  milliseconds waited{0};
  std::thread waiter;
  {
    WriterMutexLock hold(mu);
    waiter = std::thread([&] {
      const microseconds cpu_before = ThreadCpuTime();
      const auto start = steady_clock::now();
      waiting.store(true);
      if (shared) {
        ReaderMutexLock lock(mu);
      } else {
        WriterMutexLock lock(mu);
      }
      waited = std::chrono::duration_cast<milliseconds>(steady_clock::now() -
                                                        start);
      cpu = ThreadCpuTime() - cpu_before;
    });
    while (!waiting.load()) std::this_thread::yield();
    std::this_thread::sleep_for(milliseconds(200));
  }
  waiter.join();
  EXPECT_GE(waited.count(), 150) << "the waiter did not wait for the hold";
  EXPECT_LT(cpu.count(), 50000) << "CPU used while waiting: " << cpu.count()
                                << " us";
}

TEST(SharedMutexTest, ExclusiveWaiterParksBehindALongHold) {
  ExpectWaiterParks(/*shared=*/false);
}

TEST(SharedMutexTest, SharedWaiterParksBehindALongHold) {
  ExpectWaiterParks(/*shared=*/true);
}

#if APC_LOCK_ORDER

using SharedMutexDeathTest = ::testing::Test;

TEST(SharedMutexDeathTest, InversionAbortsBeforeWaitingOnAHeldLock) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Another thread holds the shard lock for good. The edge-first thread's
  // inverted shard acquisition must abort with the validator's report
  // before it tries, yields or blocks; an acquisition that waited first
  // would hang here, and ctest's timeout would fail the suite.
  EXPECT_DEATH(
      {
        SharedMutex shard_mu(LockRank::kEngineShard, "shard.mu");
        SharedMutex edge_mu(LockRank::kEdgeShard, "edge.mu");
        std::atomic<bool> held{false};
        std::thread holder([&] {
          WriterMutexLock hold(shard_mu);
          held.store(true);
          for (;;) std::this_thread::sleep_for(milliseconds(100));
        });
        while (!held.load()) std::this_thread::yield();
        WriterMutexLock edge_lock(edge_mu);
        ReaderMutexLock shard_lock(shard_mu);
      },
      "lock-order violation.*shard\\.mu.*engine_shard");
}

#endif  // APC_LOCK_ORDER

}  // namespace
}  // namespace apc
