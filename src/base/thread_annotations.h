// Clang Thread Safety Analysis attribute macros.
//
// These make the lock protocol of the concurrent core (sessions, the
// event loop, the worker pool, the proof cache, the metrics registry)
// machine-checked: a guarded field read without its capability, a
// REQUIRES violation, or a lock-order inversion is a compile error under
// `clang -Wthread-safety -Werror` (the CI thread-safety lane), not a
// heisenbug the TSan lane may or may not catch. Under GCC and MSVC every
// macro expands to nothing, so non-Clang builds are bit-identical.
//
// The vocabulary follows the Clang documentation's canonical header
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html): CAPABILITY
// names a lockable type, GUARDED_BY ties data to the capability that
// protects it, REQUIRES/REQUIRES_SHARED precondition functions on held
// capabilities, ACQUIRE/RELEASE annotate the lock primitives themselves,
// and ACQUIRED_BEFORE declares lock ordering (checked under
// -Wthread-safety-beta). NO_THREAD_SAFETY_ANALYSIS is the escape hatch;
// repo policy (README "Concurrency invariants") allows no use of it.

#ifndef VADALOG_BASE_THREAD_ANNOTATIONS_H_
#define VADALOG_BASE_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && (!defined(SWIG))
#define VADALOG_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define VADALOG_THREAD_ANNOTATION_(x)  // no-op off Clang
#endif

#define CAPABILITY(x) VADALOG_THREAD_ANNOTATION_(capability(x))

#define SCOPED_CAPABILITY VADALOG_THREAD_ANNOTATION_(scoped_lockable)

#define GUARDED_BY(x) VADALOG_THREAD_ANNOTATION_(guarded_by(x))

#define PT_GUARDED_BY(x) VADALOG_THREAD_ANNOTATION_(pt_guarded_by(x))

#define ACQUIRED_BEFORE(...) \
  VADALOG_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))

#define ACQUIRED_AFTER(...) \
  VADALOG_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

#define REQUIRES(...) \
  VADALOG_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

#define REQUIRES_SHARED(...) \
  VADALOG_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

#define ACQUIRE(...) \
  VADALOG_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

#define ACQUIRE_SHARED(...) \
  VADALOG_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))

#define RELEASE(...) \
  VADALOG_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

#define RELEASE_SHARED(...) \
  VADALOG_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

#define RELEASE_GENERIC(...) \
  VADALOG_THREAD_ANNOTATION_(release_generic_capability(__VA_ARGS__))

#define TRY_ACQUIRE(...) \
  VADALOG_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

#define TRY_ACQUIRE_SHARED(...) \
  VADALOG_THREAD_ANNOTATION_(try_acquire_shared_capability(__VA_ARGS__))

#define EXCLUDES(...) VADALOG_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

#define ASSERT_CAPABILITY(x) \
  VADALOG_THREAD_ANNOTATION_(assert_capability(x))

#define ASSERT_SHARED_CAPABILITY(x) \
  VADALOG_THREAD_ANNOTATION_(assert_shared_capability(x))

#define RETURN_CAPABILITY(x) VADALOG_THREAD_ANNOTATION_(lock_returned(x))

#define NO_THREAD_SAFETY_ANALYSIS \
  VADALOG_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // VADALOG_BASE_THREAD_ANNOTATIONS_H_
