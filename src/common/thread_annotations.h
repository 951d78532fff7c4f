#ifndef MJOIN_COMMON_THREAD_ANNOTATIONS_H_
#define MJOIN_COMMON_THREAD_ANNOTATIONS_H_

/// Clang thread-safety annotations (the `-Wthread-safety` analysis), as
/// macros that expand to nothing on compilers without the attributes.
/// They turn the locking discipline documented in comments ("guards
/// rng_", "serialized by the scheduler mutex") into declarations the
/// compiler checks: touching a MJOIN_GUARDED_BY member without holding
/// its mutex, or calling a MJOIN_REQUIRES function unlocked, fails a
/// clang build instead of waiting for TSan to catch the interleaving at
/// runtime.
///
/// The analysis only understands annotated lock types, and libstdc++'s
/// std::mutex is not annotated — so mutex-protected code uses the
/// annotated wrappers in common/sync.h (mjoin::Mutex, mjoin::MutexLock,
/// mjoin::CondVar) instead of the std primitives directly.
///
/// Usage mirrors Abseil's thread_annotations.h:
///
///   class MJOIN_CAPABILITY("mutex") Mutex { ... };
///
///   mutable Mutex mutex_;
///   size_t depth_ MJOIN_GUARDED_BY(mutex_) = 0;
///
///   void DrainLocked() MJOIN_REQUIRES(mutex_);   // caller holds mutex_
///   void Post() MJOIN_EXCLUDES(mutex_);          // caller must NOT hold it

#if defined(__clang__) && defined(__has_attribute)
#define MJOIN_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define MJOIN_THREAD_ANNOTATION_(x)  // no-op outside clang
#endif

/// Declares a type to be a capability ("mutex"), lockable by the analysis.
#define MJOIN_CAPABILITY(x) MJOIN_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII type whose constructor acquires and destructor
/// releases a capability.
#define MJOIN_SCOPED_CAPABILITY MJOIN_THREAD_ANNOTATION_(scoped_lockable)

/// The annotated member may only be read or written while holding `x`.
#define MJOIN_GUARDED_BY(x) MJOIN_THREAD_ANNOTATION_(guarded_by(x))

/// The annotated pointer member's *pointee* is protected by `x` (the
/// pointer itself may be read freely).
#define MJOIN_PT_GUARDED_BY(x) MJOIN_THREAD_ANNOTATION_(pt_guarded_by(x))

/// The annotated function may only be called while holding the listed
/// capabilities; it neither acquires nor releases them.
#define MJOIN_REQUIRES(...) \
  MJOIN_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// The annotated function may only be called while NOT holding the listed
/// capabilities (guards against self-deadlock on re-entry).
#define MJOIN_EXCLUDES(...) \
  MJOIN_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// The annotated function acquires / releases the listed capabilities.
#define MJOIN_ACQUIRE(...) \
  MJOIN_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define MJOIN_RELEASE(...) \
  MJOIN_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define MJOIN_TRY_ACQUIRE(...) \
  MJOIN_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// The annotated function returns a reference to the given capability
/// (lets accessors expose a member mutex to the analysis).
#define MJOIN_RETURN_CAPABILITY(x) MJOIN_THREAD_ANNOTATION_(lock_returned(x))

#endif  // MJOIN_COMMON_THREAD_ANNOTATIONS_H_
