#include "util/lock_order.h"

#include <gtest/gtest.h>

#include <thread>

#include "util/mutex.h"

// The lock-order validator's contract (src/util/lock_order.h): in debug and
// sanitizer builds (APC_LOCK_ORDER=1) every apc::Mutex/SharedMutex
// acquisition must carry a rank strictly greater than every rank the thread
// already holds, and a violation aborts with both stacks printed BEFORE the
// thread blocks on the lock. In Release (APC_LOCK_ORDER=0) all hooks are
// empty inlines and the same inverted acquisitions must pass through.
//
// The inversion cases mirror the repo's real nesting paths with the real
// lock classes: manager -> shard (SubscriptionWatch), regional -> edge
// (TieredEngine fan-out), shard -> pending (the change-sink leaf). The
// death tests drive fresh mutexes of those classes rather than whole
// engines so the abort happens on exactly the edge under test.

namespace apc {
namespace {

#if APC_LOCK_ORDER

using LockOrderDeathTest = ::testing::Test;

TEST(LockOrderDeathTest, ManagerAfterShardAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Correct order is kSubscriptionManager (20) -> kEngineShard (30);
  // taking the manager mutex while a shard lock is held must abort.
  EXPECT_DEATH(
      {
        SharedMutex shard_mu(LockRank::kEngineShard, "shard.mu");
        Mutex manager_mu(LockRank::kSubscriptionManager, "subs.mu");
        WriterMutexLock shard_lock(shard_mu);
        MutexLock manager_lock(manager_mu);
      },
      "lock-order violation.*subs\\.mu.*subscription_manager");
}

TEST(LockOrderDeathTest, RegionalAfterEdgeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // TieredEngine escalation goes regional (30) -> edge (40), never the
  // reverse: an edge-first thread reaching for a regional lock must abort.
  EXPECT_DEATH(
      {
        SharedMutex regional_mu(LockRank::kEngineShard, "regional.mu");
        SharedMutex edge_mu(LockRank::kEdgeShard, "edge.mu");
        WriterMutexLock edge_lock(edge_mu);
        ReaderMutexLock regional_lock(regional_mu);
      },
      "lock-order violation.*regional\\.mu.*engine_shard");
}

TEST(LockOrderDeathTest, ShardAfterPendingLeafAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // pending_mu_ (50) is the change-sink leaf taken UNDER shard locks;
  // holding it first and then acquiring a shard lock is the inversion the
  // no-missed-violation pipeline must never take.
  EXPECT_DEATH(
      {
        Mutex pending_mu(LockRank::kSinkPending, "subs.pending_mu");
        SharedMutex shard_mu(LockRank::kEngineShard, "shard.mu");
        MutexLock pending_lock(pending_mu);
        WriterMutexLock shard_lock(shard_mu);
      },
      "lock-order violation.*shard\\.mu.*engine_shard");
}

TEST(LockOrderDeathTest, SameRankRecursionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Equal rank is a violation too (strictly increasing): the engines take
  // shard locks one at a time, and rank-equal nesting is how an accidental
  // two-shard hold (a deadlock candidate) would first show up.
  EXPECT_DEATH(
      {
        SharedMutex a(LockRank::kEngineShard, "shard.a");
        SharedMutex b(LockRank::kEngineShard, "shard.b");
        WriterMutexLock lock_a(a);
        WriterMutexLock lock_b(b);
      },
      "lock-order violation.*shard\\.b.*engine_shard");
}

TEST(LockOrderDeathTest, ReleasingUnheldLockAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Releasing a capability the validator never saw acquired is a wrapper
  // bug (or a cross-thread unlock) and aborts with its own message.
  EXPECT_DEATH(
      LockOrderValidator::OnRelease(LockRank::kQueue, "hub.mu"),
      "releasing 'hub\\.mu'.*does not hold");
}

TEST(LockOrderTest, IncreasingRanksPassAndUnwind) {
  // The full sanctioned chain, one thread: control -> manager -> shard ->
  // edge -> pending -> queue, then the obs band. Must not abort, and the
  // held depth must track the scopes exactly.
  Mutex control_mu(LockRank::kControl, "subs.shutdown_mu");
  Mutex manager_mu(LockRank::kSubscriptionManager, "subs.mu");
  SharedMutex shard_mu(LockRank::kEngineShard, "shard.mu");
  SharedMutex edge_mu(LockRank::kEdgeShard, "edge.mu");
  Mutex pending_mu(LockRank::kSinkPending, "subs.pending_mu");
  Mutex queue_mu(LockRank::kQueue, "hub.mu");
  {
    MutexLock l0(control_mu);
    MutexLock l1(manager_mu);
    ReaderMutexLock l2(shard_mu);
    WriterMutexLock l3(edge_mu);
    MutexLock l4(pending_mu);
    MutexLock l5(queue_mu);
    EXPECT_EQ(LockOrderValidator::HeldDepth(), 6u);
  }
  EXPECT_EQ(LockOrderValidator::HeldDepth(), 0u);
}

TEST(LockOrderTest, ReacquisitionAfterReleaseIsLegal) {
  // Dropping back down and re-climbing is fine — the order constraint is
  // over HELD locks, not over the thread's acquisition history.
  Mutex manager_mu(LockRank::kSubscriptionManager, "subs.mu");
  SharedMutex shard_mu(LockRank::kEngineShard, "shard.mu");
  for (int i = 0; i < 3; ++i) {
    MutexLock manager_lock(manager_mu);
    WriterMutexLock shard_lock(shard_mu);
  }
  EXPECT_EQ(LockOrderValidator::HeldDepth(), 0u);
}

TEST(LockOrderTest, StacksArePerThread) {
  // A sibling thread's held locks impose nothing on this thread: each
  // thread owns its own stack (the validator is thread_local state).
  Mutex pending_mu(LockRank::kSinkPending, "subs.pending_mu");
  MutexLock pending_lock(pending_mu);
  std::thread other([] {
    Mutex manager_mu(LockRank::kSubscriptionManager, "subs.mu");
    MutexLock manager_lock(manager_mu);  // rank 20 < 50 held by the parent
    EXPECT_EQ(LockOrderValidator::HeldDepth(), 1u);
  });
  other.join();
  EXPECT_EQ(LockOrderValidator::HeldDepth(), 1u);
}

#else  // !APC_LOCK_ORDER -----------------------------------------------

TEST(LockOrderReleaseTest, InvertedAcquisitionPassesThrough) {
  // Release builds compile the validator to empty inlines: the same
  // inversion the death tests abort on must run to completion, and the
  // held-depth probe must read 0 throughout.
  SharedMutex shard_mu(LockRank::kEngineShard, "shard.mu");
  Mutex manager_mu(LockRank::kSubscriptionManager, "subs.mu");
  {
    WriterMutexLock shard_lock(shard_mu);
    MutexLock manager_lock(manager_mu);  // inverted; no validator, no abort
    EXPECT_EQ(LockOrderValidator::HeldDepth(), 0u);
  }
  SUCCEED();
}

#endif  // APC_LOCK_ORDER

}  // namespace
}  // namespace apc
