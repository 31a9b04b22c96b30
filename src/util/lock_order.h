#ifndef APC_UTIL_LOCK_ORDER_H_
#define APC_UTIL_LOCK_ORDER_H_

#include <cstddef>
#include <cstdint>

/// Debug lock-order validator: a per-thread held-capability stack with
/// ranked lock classes. Clang's static thread-safety analysis checks WHO
/// holds a lock; it cannot express the repo's dynamic partial order across
/// per-shard lock arrays (manager mutex → MixId-routed shard locks,
/// regional → edge hierarchies). This validator checks the order at
/// runtime: every acquisition must have a rank strictly greater than every
/// rank already held by the thread, and a violation aborts after printing
/// the held stack plus the offending acquisition.
///
/// Compile gate: APC_LOCK_ORDER=1 in debug and
/// sanitizer builds — CMake defaults it ON for every build type except
/// Release — and 0 in release, where every hook below compiles to an empty
/// inline function and apc::Mutex is exactly a std::mutex plus a dead
/// rank byte. Lockstep parity and bench qps are therefore untouched by
/// this layer in the builds that measure them.
#ifndef APC_LOCK_ORDER
#define APC_LOCK_ORDER 1
#endif

namespace apc {

/// The documented partial order of every lock class in the repo, one rank
/// per class, outermost first. A thread may only acquire ranks in strictly
/// increasing order; two locks of the SAME class are never held together
/// (the engines take shard/edge locks one at a time). The table mirrors
/// docs/STATIC_ANALYSIS.md — update both together.
enum class LockRank : uint16_t {
  /// Shutdown control mutexes (SubscriptionManager::shutdown_mu_): taken
  /// first on stop paths that then close queues and join threads.
  kControl = 10,
  /// SubscriptionManager::mu_ — taken before engine shard locks
  /// (SubscriptionWatch / SubscriptionPull / snapshot evaluation).
  kSubscriptionManager = 20,
  /// The engine's origin Shard::mu — one at a time, after the manager
  /// mutex, before edge locks.
  kEngineShard = 30,
  /// The engine's EdgeShard::mu — acquired under the origin lock on
  /// escalation/fan-out (origin → edge, never the reverse).
  kEdgeShard = 40,
  /// SubscriptionManager::pending_mu_ — the leaf OnIntervalChanges takes
  /// under shard locks; nothing is acquired while holding it except the
  /// queue class below (shutdown drains).
  kSinkPending = 50,
  /// NotificationHub::mu_: innermost of the subscription paths (the hub
  /// is pushed to under the manager mutex and closed under a control
  /// mutex).
  kQueue = 60,
  /// obs::SnapshotExporter::mu_ — the background writer's own state.
  kObsExporter = 70,
  /// obs::FlightRecorder control state — taken by DumpOnFailure, which may
  /// run under engine/queue locks (checker hooks, rejected-input storms)
  /// and then dumps the trace rings (kObsTrace, above).
  kObsFlight = 72,
  /// obs::AttributionTable stripe mutexes — leaves of the charge paths:
  /// taken under shard/edge/queue locks when a refresh is recorded, and
  /// alone by the exporter when the attribution section is serialized.
  kObsAttribution = 75,
  /// obs::MetricsRegistry::mu_ — leaf of every snapshot/registration path.
  kObsRegistry = 80,
  /// obs trace ring registry — leaf; taken on a thread's first trace
  /// record while engine locks may be held.
  kObsTrace = 85,
};

/// Number of LockRank values — update with the enum. Ranks strictly
/// increase along a thread's held stack, so no thread holds more locks.
inline constexpr size_t kLockRankCount = 11;

/// Human-readable name of a rank's lock class (never null).
const char* LockRankName(LockRank rank);

/// Diagnostic hook invoked once, best-effort, before the validator aborts
/// — installed by the obs flight recorder to dump trace evidence with the
/// failure. The hook MUST be reentrancy-safe: dumping may itself acquire
/// ranked locks and re-enter the validator. Returns the previous hook.
using LockOrderAbortHook = void (*)(const char* reason);
LockOrderAbortHook SetLockOrderAbortHook(LockOrderAbortHook hook);

#if APC_LOCK_ORDER

/// The per-thread validator. apc::Mutex / apc::SharedMutex call the hooks
/// from every lock/unlock (including re-acquisitions inside CondVar
/// waits); user code never calls these directly except in tests.
class LockOrderValidator {
 public:
  /// Records the acquisition of `rank`. Aborts (after printing the
  /// thread's held stack and the offending lock) unless `rank` is
  /// strictly greater than every rank currently held by this thread.
  /// `name` is the owning mutex's debug name (may be null → class name).
  static void OnAcquire(LockRank rank, const char* name);

  /// Removes the most recently acquired entry matching `rank`/`name`.
  static void OnRelease(LockRank rank, const char* name);

  /// Number of capabilities the calling thread currently holds.
  static size_t HeldDepth();
};

#else  // !APC_LOCK_ORDER: every hook is an empty inline — the validator
       // adds nothing to a lock acquisition in release builds.

class LockOrderValidator {
 public:
  static inline void OnAcquire(LockRank, const char*) {}
  static inline void OnRelease(LockRank, const char*) {}
  static inline size_t HeldDepth() { return 0; }
};

#endif  // APC_LOCK_ORDER

}  // namespace apc

#endif  // APC_UTIL_LOCK_ORDER_H_
