#ifndef APC_RUNTIME_RUNTIME_UTIL_H_
#define APC_RUNTIME_RUNTIME_UTIL_H_

#include <cstdint>

#include "runtime/partition.h"
#include "runtime/shard.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace apc {
namespace runtime_internal {

/// True when `max_width` is a read constraint some interval can meet:
/// >= 0, with +inf valid (it never pulls). NaN compares false, so NaN and
/// negative bounds are invalid. The engines reject an invalid constraint
/// before taking any lock instead of pulling on every read.
inline bool ValidConstraint(double max_width) { return max_width >= 0.0; }

/// RAII read lock honoring a ReadLockMode: shared acquisition normally,
/// exclusive in the kExclusive bench baseline. Used by every engine's
/// non-seqlock snapshot paths and observability reads (seqlock-mode
/// observability also lands here — those reads are rare and want a
/// consistent locked view, not an optimistic one).
///
/// To clang's analysis this is a scoped SHARED capability in both modes:
/// the kExclusive branch over-holds (exclusive where shared is claimed),
/// which is safe — read paths never write guarded state under a ReadLock.
class APC_SCOPED_CAPABILITY ReadLock {
 public:
  // The bodies are exempt from analysis (NO_THREAD_SAFETY_ANALYSIS): the
  // kExclusive branch acquires exclusively under a shared-acquire
  // declaration, a mode mix clang cannot type. Callers see the shared
  // contract; the lock-order validator still checks both branches.
  ReadLock(SharedMutex& mu, ReadLockMode mode)
      APC_ACQUIRE_SHARED(mu) APC_NO_THREAD_SAFETY_ANALYSIS
      : mu_(mu), exclusive_(mode == ReadLockMode::kExclusive) {
    if (exclusive_) {
      mu_.lock();
    } else {
      mu_.lock_shared();
    }
  }
  ~ReadLock() APC_RELEASE_GENERIC() APC_NO_THREAD_SAFETY_ANALYSIS {
    if (exclusive_) {
      mu_.unlock();
    } else {
      mu_.unlock_shared();
    }
  }
  ReadLock(const ReadLock&) = delete;
  ReadLock& operator=(const ReadLock&) = delete;

 private:
  SharedMutex& mu_;
  const bool exclusive_;
};

}  // namespace runtime_internal
}  // namespace apc

#endif  // APC_RUNTIME_RUNTIME_UTIL_H_
