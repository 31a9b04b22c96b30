#ifndef APC_UTIL_THREAD_ANNOTATIONS_H_
#define APC_UTIL_THREAD_ANNOTATIONS_H_

/// Clang thread-safety-analysis attribute macros (the Abseil/LevelDB
/// convention, APC_-prefixed). Under clang, `scripts/check.sh --analyze`
/// compiles the tree with -Werror=thread-safety so every locking contract
/// expressed through these macros is enforced at compile time; under gcc
/// (the default toolchain here) they expand to nothing.
///
/// Conventions (see docs/STATIC_ANALYSIS.md for the full guide):
///   - mutex-protected members:      T x_ APC_GUARDED_BY(mu_);
///   - "caller holds mu_" methods:   void FooLocked() APC_REQUIRES(mu_);
///   - RAII lock types:              APC_SCOPED_CAPABILITY + ctor/dtor
///                                   APC_ACQUIRE / APC_RELEASE
///   - the lock-free accesses to a guarded ProtocolTable (the seqlock
///     optimistic read, the immutable id→slot index) are the sanctioned
///     carve-outs: wrap each in a tiny helper marked
///     APC_NO_THREAD_SAFETY_ANALYSIS so the rest of the function stays
///     analyzed.

#if defined(__clang__)
#define APC_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define APC_THREAD_ANNOTATION_(x)  // no-op outside clang
#endif

/// Marks a type as a lockable capability ("mutex", "shared mutex", ...).
#define APC_CAPABILITY(x) APC_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define APC_SCOPED_CAPABILITY APC_THREAD_ANNOTATION_(scoped_lockable)

/// Data member readable/writable only while holding the given capability.
#define APC_GUARDED_BY(x) APC_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member whose POINTEE is protected by the given capability.
#define APC_PT_GUARDED_BY(x) APC_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function requires the capability held exclusively (not acquired by it).
#define APC_REQUIRES(...) \
  APC_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function requires the capability held at least shared.
#define APC_REQUIRES_SHARED(...) \
  APC_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability exclusively and does not release it.
#define APC_ACQUIRE(...) \
  APC_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function acquires the capability shared and does not release it.
#define APC_ACQUIRE_SHARED(...) \
  APC_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))

/// Function releases an exclusively held capability.
#define APC_RELEASE(...) \
  APC_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function releases a shared-held capability.
#define APC_RELEASE_SHARED(...) \
  APC_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

/// Function releases a capability held in either mode (used by RAII
/// destructors that may hold shared or exclusive depending on a ctor arg).
#define APC_RELEASE_GENERIC(...) \
  APC_THREAD_ANNOTATION_(release_generic_capability(__VA_ARGS__))

/// Function tries to acquire; first arg is the success return value.
#define APC_TRY_ACQUIRE(...) \
  APC_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Function must NOT be called with the capability held (deadlock guard).
#define APC_EXCLUDES(...) APC_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Asserts (at runtime, to the analysis) that the capability is held.
#define APC_ASSERT_CAPABILITY(x) \
  APC_THREAD_ANNOTATION_(assert_capability(x))

/// Function returns a reference to the given capability.
#define APC_RETURN_CAPABILITY(x) APC_THREAD_ANNOTATION_(lock_returned(x))

/// Turns the analysis off for one function. Reserved for the seqlock
/// optimistic read path; every use must carry a comment saying why.
#define APC_NO_THREAD_SAFETY_ANALYSIS \
  APC_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // APC_UTIL_THREAD_ANNOTATIONS_H_
