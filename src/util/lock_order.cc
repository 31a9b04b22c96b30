#include "util/lock_order.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace apc {

namespace {
std::atomic<LockOrderAbortHook> g_abort_hook{nullptr};
}  // namespace

LockOrderAbortHook SetLockOrderAbortHook(LockOrderAbortHook hook) {
  return g_abort_hook.exchange(hook, std::memory_order_acq_rel);
}

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kControl:
      return "control";
    case LockRank::kSubscriptionManager:
      return "subscription_manager";
    case LockRank::kEngineShard:
      return "engine_shard";
    case LockRank::kEdgeShard:
      return "edge_shard";
    case LockRank::kSinkPending:
      return "sink_pending";
    case LockRank::kQueue:
      return "queue";
    case LockRank::kObsExporter:
      return "obs_exporter";
    case LockRank::kObsFlight:
      return "obs_flight";
    case LockRank::kObsAttribution:
      return "obs_attribution";
    case LockRank::kObsRegistry:
      return "obs_registry";
    case LockRank::kObsTrace:
      return "obs_trace";
  }
  return "unknown";
}

#if APC_LOCK_ORDER

namespace {

struct HeldLock {
  LockRank rank;
  const char* name;  // may be null
};

// Per-thread held-capability stack, acquisition order, bottom first. A
// fixed array, one entry per rank: ranks strictly increase up the stack,
// so an acquisition that would overflow it is an inversion and aborts
// first. Trivially constructed, so a thread's first lock allocates
// nothing — the alloc-free read test counts every operator new.
struct HeldStack {
  HeldLock entries[kLockRankCount];
  size_t depth;
};

HeldStack& Held() {
  thread_local HeldStack stack{};
  return stack;
}

const char* NameOrRank(LockRank rank, const char* name) {
  return name != nullptr ? name : LockRankName(rank);
}

/// Best-effort evidence dump before the abort; the installed hook guards
/// its own reentrancy (dumping can re-enter the validator).
void RunAbortHook(const char* reason) {
  if (LockOrderAbortHook hook =
          g_abort_hook.load(std::memory_order_acquire)) {
    hook(reason);
  }
}

[[noreturn]] void Die(LockRank rank, const char* name,
                      const HeldStack& held) {
  RunAbortHook("lock-order violation (inverted acquisition)");
  std::fprintf(stderr,
               "lock-order violation: thread acquiring '%s' (class %s, rank "
               "%u) while already holding %zu lock(s):\n",
               NameOrRank(rank, name), LockRankName(rank),
               static_cast<unsigned>(rank), held.depth);
  for (size_t i = 0; i < held.depth; ++i) {
    const HeldLock& h = held.entries[i];
    std::fprintf(stderr, "  held[%zu]: '%s' (class %s, rank %u)\n", i,
                 NameOrRank(h.rank, h.name), LockRankName(h.rank),
                 static_cast<unsigned>(h.rank));
  }
  std::fprintf(stderr,
               "  rule: acquisitions must use strictly increasing ranks "
               "(see LockRank in src/util/lock_order.h)\n");
  std::abort();
}

}  // namespace

void LockOrderValidator::OnAcquire(LockRank rank, const char* name) {
  HeldStack& held = Held();
  for (size_t i = 0; i < held.depth; ++i) {
    if (held.entries[i].rank >= rank) Die(rank, name, held);
  }
  held.entries[held.depth++] = HeldLock{rank, name};
}

void LockOrderValidator::OnRelease(LockRank rank, const char* name) {
  HeldStack& held = Held();
  // Scan from the top: releases are almost always LIFO, but scoped locks
  // may legally unwind out of order, so match the newest entry of this
  // rank/name instead of requiring the top.
  for (size_t i = held.depth; i-- > 0;) {
    if (held.entries[i].rank == rank && held.entries[i].name == name) {
      for (size_t j = i + 1; j < held.depth; ++j) {
        held.entries[j - 1] = held.entries[j];
      }
      --held.depth;
      return;
    }
  }
  // Releasing a lock the validator never saw acquired: a wrapper bug.
  RunAbortHook("lock-order violation (release of unheld lock)");
  std::fprintf(stderr,
               "lock-order violation: releasing '%s' (class %s) which this "
               "thread does not hold\n",
               NameOrRank(rank, name), LockRankName(rank));
  std::abort();
}

size_t LockOrderValidator::HeldDepth() { return Held().depth; }

#endif  // APC_LOCK_ORDER

}  // namespace apc
