// Heap-allocation budget of the proof-search successor path, as a
// deterministic counter: this binary replaces the global operator new
// with a counting one, runs the pinned OWL 2 QL refutation of
// linear_search_test (RefutationCountersArePinned), and bounds the heap
// allocations per generated successor (resolution plus match-drop edges);
// it bounds the alternating engine's allocations per expanded state on a
// transitive-closure refutation the same way. Allocation counts, unlike
// timings, do not depend on the host, so heap traffic creeping back onto
// the hot path fails here.
//
// Each bound is the count last measured plus 50% headroom: 5.78 per
// linear successor (17.39 before the dead-first, flat-unifier and
// encode-first successor path, 6.23 before the linear search deduplicated
// each successor on the spot; see CHANGES.md) and 47.69 per alternating
// state. Sanitizer builds interpose their own allocator and are skipped.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "ast/parser.h"
#include "engine/alternating_search.h"
#include "engine/linear_search.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace vadalog {
namespace {

// Measured allocations per successor (per state) plus 50% headroom.
constexpr double kMaxAllocationsPerSuccessor = 8.67;
constexpr double kMaxAlternatingAllocationsPerState = 71.5;

TEST(AllocBudgetTest, LinearRefutationAllocationsPerSuccessor) {
  if (kSanitized) GTEST_SKIP() << "sanitizer allocator interposition";
  ParseResult parsed = ParseProgram(R"(
    subclassStar(X, Y) :- subclass(X, Y).
    subclassStar(X, Z) :- subclassStar(X, Y), subclass(Y, Z).
    type(X, Z) :- type(X, Y), subclassStar(Y, Z).
    triple(X, Z, W) :- type(X, Y), restriction(Y, Z).
    triple(Z, W, X) :- triple(X, Y, Z), inverse(Y, W).
    type(X, W) :- triple(X, Y, Z), restriction(W, Y).
    subclass(cat, mammal). subclass(mammal, animal).
    type(tom, cat).
    restriction(hunter, hunts).
    type(tom, hunter).
    ?(Y) :- type(tom, Y).
  )");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  Program program = std::move(*parsed.program);
  NormalizeToSingleHead(&program, nullptr);
  Instance db = DatabaseFromFacts(program.facts());
  std::vector<Term> answer = {program.symbols().InternConstant("hunts")};
  const ConjunctiveQuery& query = program.queries()[0];

  // The first run warms the per-thread scratch; the second is counted.
  LinearProofSearch(program, db, query, answer);
  uint64_t before = g_allocations.load();
  ProofSearchResult result = LinearProofSearch(program, db, query, answer);
  uint64_t allocations = g_allocations.load() - before;

  ASSERT_FALSE(result.accepted);
  ASSERT_EQ(result.resolution_edges, 7308u);  // the pinned refutation
  ASSERT_EQ(result.drop_edges, 131u);
  uint64_t successors = result.resolution_edges + result.drop_edges;
  double per_successor =
      static_cast<double>(allocations) / static_cast<double>(successors);
  std::printf("allocations %llu, successors %llu, per successor %.3f\n",
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(successors), per_successor);
  EXPECT_LE(per_successor, kMaxAllocationsPerSuccessor);
}

// The alternating engine draws its OR children from the same successor
// cursor. It counts no edges, so its budget is per expanded state, over
// the non-linear transitive-closure refutation of alternating_search_test.
TEST(AllocBudgetTest, AlternatingRefutationAllocationsPerState) {
  if (kSanitized) GTEST_SKIP() << "sanitizer allocator interposition";
  ParseResult parsed = ParseProgram(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, d). e(d, f).
    ?(X) :- t(a, X).
  )");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  Program program = std::move(*parsed.program);
  NormalizeToSingleHead(&program, nullptr);
  Instance db = DatabaseFromFacts(program.facts());
  std::vector<Term> answer = {program.symbols().InternConstant("a")};
  const ConjunctiveQuery& query = program.queries()[0];

  AlternatingProofSearch(program, db, query, answer);
  uint64_t before = g_allocations.load();
  AlternatingSearchResult result =
      AlternatingProofSearch(program, db, query, answer);
  uint64_t allocations = g_allocations.load() - before;

  ASSERT_FALSE(result.accepted);
  ASSERT_FALSE(result.budget_exhausted);
  double per_state = static_cast<double>(allocations) /
                     static_cast<double>(result.states_expanded);
  std::printf("allocations %llu, states expanded %llu, per state %.3f\n",
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(result.states_expanded),
              per_state);
  EXPECT_LE(per_state, kMaxAlternatingAllocationsPerState);
}

}  // namespace
}  // namespace vadalog
