#ifndef APC_UTIL_MUTEX_H_
#define APC_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "util/lock_order.h"
#include "util/thread_annotations.h"

/// Annotated, rank-checked mutex wrappers — the only lock types allowed
/// outside src/util/ (enforced by scripts/check_contracts.sh).
///
/// Why wrappers instead of std::mutex: libstdc++'s std::mutex is not a
/// clang thread-safety capability, so GUARDED_BY/REQUIRES contracts can't
/// attach to it; and the repo's cross-object lock order (manager → shard →
/// edge → leaf queues) needs the runtime LockOrderValidator hooks on every
/// acquisition. Each wrapper is the std primitive plus (a) the capability
/// attribute and (b) validator calls that compile to nothing when
/// APC_LOCK_ORDER=0 (release builds) — see src/util/lock_order.h.
/// SharedMutex adds one thing: it yields for a bounded time before it
/// blocks (see kSharedMutexYieldBudget).
///
/// Every mutex names its lock class at construction:
///     apc::Mutex mu_{LockRank::kQueue, "hub.mu"};
/// The mandatory rank argument is what makes "all mutex members declare a
/// lock-class rank" a compile-time property.

namespace apc {

/// How long a SharedMutex waiter keeps retrying with yields before it
/// blocks. Under the perfbench workloads on a 4-vCPU host an update
/// apply's per-shard hold was p50/p90 10/16 us (point_hot), 22/31 us
/// (tiered_geo) and 4/10 us (burst_write), and a futex wake-up took
/// 17-36 us: a budget that covers a typical hold lets most waiters take
/// the lock within microseconds of its release instead of one wake-up
/// later, and a longer hold costs a parked waiter at most this much extra
/// CPU.
inline constexpr std::chrono::microseconds kSharedMutexYieldBudget{20};

/// std::mutex as a clang capability with lock-order validation.
class APC_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank, const char* name = nullptr)
      : rank_(rank), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  /// BasicLockable, so CondVar can wait on this type directly. The
  /// validator runs BEFORE blocking: an ordering bug aborts with both
  /// stacks printed instead of deadlocking silently.
  void lock() APC_ACQUIRE() {
    LockOrderValidator::OnAcquire(rank_, name_);
    mu_.lock();
  }
  void unlock() APC_RELEASE() {
    LockOrderValidator::OnRelease(rank_, name_);
    mu_.unlock();
  }

  LockRank rank() const { return rank_; }

 private:
  std::mutex mu_;
  const LockRank rank_;
  const char* const name_;
};

/// std::shared_mutex as a clang capability with lock-order validation.
/// Shared and exclusive acquisitions obey the same rank order (the
/// validator does not distinguish modes: reader/writer nesting across
/// classes follows one partial order).
///
/// Its users are the engine's shard locks (Shard::mu, EdgeShard::mu): a
/// producer applying its update burst holds one exclusively for the whole
/// burst while pulls, escalations, aggregate pull batches and other
/// producers queue behind it, and a waiter that blocked at once would
/// sleep through a futex wake-up longer than most holds. So both modes
/// try once, retry with a yield between attempts until
/// kSharedMutexYieldBudget has passed, and only then block.
/// Yields, not a pause spin: spinners keep the holder and the notifier off
/// the CPUs they need. The validator runs first, so an inversion aborts
/// before any retry; nothing on this path allocates.
class APC_CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(LockRank rank, const char* name = nullptr)
      : rank_(rank), name_(name) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() APC_ACQUIRE() {
    LockOrderValidator::OnAcquire(rank_, name_);
    if (RetryWithYield([this] { return mu_.try_lock(); })) return;
    mu_.lock();
  }
  void unlock() APC_RELEASE() {
    LockOrderValidator::OnRelease(rank_, name_);
    mu_.unlock();
  }
  void lock_shared() APC_ACQUIRE_SHARED() {
    LockOrderValidator::OnAcquire(rank_, name_);
    if (RetryWithYield([this] { return mu_.try_lock_shared(); })) return;
    mu_.lock_shared();
  }
  void unlock_shared() APC_RELEASE_SHARED() {
    LockOrderValidator::OnRelease(rank_, name_);
    mu_.unlock_shared();
  }

  LockRank rank() const { return rank_; }

 private:
  /// Tries `try_acquire` once, then again after each yield until the
  /// budget has passed; false means the caller should block. Bounded by
  /// elapsed time, not attempts: one yield takes anywhere from a fraction
  /// of a microsecond to a scheduler slice.
  template <typename TryAcquire>
  static bool RetryWithYield(TryAcquire try_acquire) {
    if (try_acquire()) return true;
    const auto deadline =
        std::chrono::steady_clock::now() + kSharedMutexYieldBudget;
    do {
      std::this_thread::yield();  // sched_yield() on Linux
      if (try_acquire()) return true;
    } while (std::chrono::steady_clock::now() < deadline);
    return false;
  }

  std::shared_mutex mu_;
  const LockRank rank_;
  const char* const name_;
};

/// RAII exclusive lock on a Mutex (the std::lock_guard idiom).
class APC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) APC_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() APC_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII exclusive lock on a SharedMutex.
class APC_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) APC_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterMutexLock() APC_RELEASE() { mu_.unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared (reader) lock on a SharedMutex.
class APC_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) APC_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.lock_shared();
  }
  // Generic release: the analysis tracks the shared hold from the ctor;
  // release_capability (exclusive) on it would warn about the mode mix.
  ~ReaderMutexLock() APC_RELEASE_GENERIC() { mu_.unlock_shared(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable that waits directly on apc::Mutex, so waits flow
/// through the capability annotations and the lock-order validator (the
/// re-acquisition after a wait re-runs the rank check).
///
/// No predicate overloads on purpose: clang's analysis does not propagate
/// REQUIRES into lambda bodies, so predicate lambdas touching guarded
/// state would warn under -Werror=thread-safety. Call sites use explicit
///     while (!cond) cv.Wait(mu);
/// loops instead, which also makes the guarded reads visible to analysis.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, waits, and re-acquires. Spurious wakeups
  /// possible — always wait in a condition loop.
  void Wait(Mutex& mu) APC_REQUIRES(mu) { cv_.wait(mu); }

  /// Timed wait; returns std::cv_status::timeout when `timeout_ms`
  /// elapsed without a notification. Spurious wakeups possible.
  std::cv_status WaitFor(Mutex& mu, int64_t timeout_ms) APC_REQUIRES(mu) {
    return cv_.wait_for(mu, std::chrono::milliseconds(timeout_ms));
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace apc

#endif  // APC_UTIL_MUTEX_H_
