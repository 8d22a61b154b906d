// Tests for the subsumption primitives behind the proof searches' state
// pruning: state-to-state homomorphism (storage/homomorphism), the
// bound-tagged SubsumptionIndex, and the incremental EagerSimplify
// certificate logic.

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "base/rng.h"
#include "engine/alternating_search.h"
#include "engine/certain.h"
#include "engine/linear_search.h"
#include "engine/search_cache.h"
#include "engine/state.h"
#include "engine/subsumption.h"
#include "storage/homomorphism.h"
#include "storage/instance.h"

namespace vadalog {
namespace {

Atom A(PredicateId p, std::initializer_list<Term> args) {
  return Atom(p, std::vector<Term>(args));
}

constexpr PredicateId kP = 0;
constexpr PredicateId kQ = 1;

TEST(StateHomomorphismTest, MapsVariablesToAnyTermIdentityOnConstants) {
  Term c0 = Term::Constant(0);
  Term c1 = Term::Constant(1);
  Term x = Term::Variable(0);
  Term y = Term::Variable(1);
  // P(x, y) maps into P(c0, c1).
  EXPECT_TRUE(HasStateHomomorphism({A(kP, {x, y})}, {A(kP, {c0, c1})}));
  // P(c0, y) does not map into P(c1, c1) (constants are rigid) ...
  EXPECT_FALSE(HasStateHomomorphism({A(kP, {c0, y})}, {A(kP, {c1, c1})}));
  // ... but maps into P(c0, c1).
  EXPECT_TRUE(HasStateHomomorphism({A(kP, {c0, y})}, {A(kP, {c0, c1})}));
  // Repeated variable must map consistently: P(x, x) into P(c0, c1) fails.
  EXPECT_FALSE(HasStateHomomorphism({A(kP, {x, x})}, {A(kP, {c0, c1})}));
  EXPECT_TRUE(HasStateHomomorphism({A(kP, {x, x})}, {A(kP, {c1, c1})}));
}

TEST(StateHomomorphismTest, TargetVariablesAreFrozen) {
  Term x = Term::Variable(0);
  Term y = Term::Variable(1);
  // P(x, x) requires both positions equal; the target P(X, Y) has two
  // distinct frozen variables, so there is no homomorphism.
  EXPECT_FALSE(HasStateHomomorphism({A(kP, {x, x})}, {A(kP, {x, y})}));
  // P(x, y) maps onto P(X, X) by sending both variables to X.
  EXPECT_TRUE(HasStateHomomorphism({A(kP, {x, y})}, {A(kP, {x, x})}));
}

TEST(StateHomomorphismTest, MultiAtomConsistencyAcrossAtoms) {
  Term x = Term::Variable(0);
  Term y = Term::Variable(1);
  Term z = Term::Variable(2);
  Term c = Term::Constant(7);
  // {P(x,y), Q(y,c)} into {P(u,v), Q(v,c)}: consistent via x->u, y->v.
  std::vector<Atom> from = {A(kP, {x, y}), A(kQ, {y, c})};
  std::vector<Atom> onto = {A(kP, {Term::Variable(10), Term::Variable(11)}),
                            A(kQ, {Term::Variable(11), c})};
  EXPECT_TRUE(HasStateHomomorphism(from, onto));
  // Break the join: Q(z, c) with z != y still maps (z is independent) ...
  EXPECT_TRUE(
      HasStateHomomorphism({A(kP, {x, y}), A(kQ, {z, c})}, onto));
  // ... but Q(y, c) against a target where the join is broken does not.
  std::vector<Atom> broken = {A(kP, {Term::Variable(10), Term::Variable(11)}),
                              A(kQ, {Term::Variable(12), c})};
  EXPECT_FALSE(HasStateHomomorphism(from, broken));
  // An empty `from` maps trivially; a missing predicate kills the match.
  EXPECT_TRUE(HasStateHomomorphism({}, onto));
  EXPECT_FALSE(HasStateHomomorphism({A(kQ, {x, x})}, {A(kP, {c, c})}));
}

TEST(StateHomomorphismTest, NonInjectiveMapsAllowed) {
  Term x = Term::Variable(0);
  Term y = Term::Variable(1);
  Term u = Term::Variable(5);
  // Two atoms may map onto the same target atom.
  EXPECT_TRUE(HasStateHomomorphism(
      {A(kP, {x, y}), A(kP, {y, x})}, {A(kP, {u, u})}));
}

TEST(StateHomomorphismTest, LargeVariableIndicesAreExact) {
  // Indices past the flat scratch range are renumbered, not refused: the
  // answer stays "true iff a homomorphism exists".
  Term c = Term::Constant(0);
  Term d = Term::Constant(1);
  Term big = Term::Variable(5000);
  EXPECT_TRUE(HasStateHomomorphism({A(kP, {big})}, {A(kP, {c})}));
  EXPECT_FALSE(HasStateHomomorphism({A(kP, {big, big})}, {A(kP, {c, d})}));
  EXPECT_TRUE(HasStateHomomorphism({A(kP, {big, big})}, {A(kP, {d, d})}));
  Term huge = Term::Variable((uint64_t{1} << 40) + 3);
  Term small = Term::Variable(0);
  EXPECT_TRUE(HasStateHomomorphism({A(kP, {huge, small}), A(kQ, {small})},
                                   {A(kP, {c, d}), A(kQ, {d})}));
  EXPECT_FALSE(HasStateHomomorphism({A(kP, {huge, small}), A(kQ, {huge})},
                                    {A(kP, {c, d}), A(kQ, {d})}));
}

TEST(SubsumptionIndexTest, FindsRegisteredSubsumerAndRespectsBounds) {
  SubsumptionIndex index;
  CanonicalState general =
      Canonicalize({A(kP, {Term::Constant(3), Term::Variable(0)})});
  EXPECT_EQ(index.FindSubsumer(general, 4, 4), -1);  // empty index
  int64_t id = index.Add(general, /*width=*/4, /*chunk=*/4);
  ASSERT_GE(id, 0);

  CanonicalState specific = Canonicalize(
      {A(kP, {Term::Constant(3), Term::Variable(1)}),
       A(kQ, {Term::Variable(1), Term::Variable(2)})});
  // The general refuted state maps into the more constrained one.
  EXPECT_EQ(index.FindSubsumer(specific, 4, 4), id);
  // A search exploring *more* than the recording bound must not reuse it.
  EXPECT_EQ(index.FindSubsumer(specific, 5, 4), -1);
  EXPECT_EQ(index.FindSubsumer(specific, 4, 5), -1);
  // A search exploring less may.
  EXPECT_EQ(index.FindSubsumer(specific, 3, 2), id);
}

TEST(SubsumptionIndexTest, SameSizeTieBreakIsRegistrationOrder) {
  SubsumptionIndex index;
  // Two hom-equivalent same-size states: {P(x,y), P(z,w)} and
  // {P(x,y), P(x,w)} map into each other.
  CanonicalState first = Canonicalize(
      {A(kP, {Term::Variable(0), Term::Variable(1)}),
       A(kP, {Term::Variable(2), Term::Variable(3)})});
  CanonicalState second = Canonicalize(
      {A(kP, {Term::Variable(0), Term::Variable(1)}),
       A(kP, {Term::Variable(0), Term::Variable(3)})});
  int64_t id_first = index.Add(first, 4, 4);
  int64_t id_second = index.Add(second, 4, 4);
  // With the tie-break at its own id, each state sees only earlier
  // same-size entries: `second` is pruned by `first`, `first` by nobody —
  // never both, which is what keeps pruning acyclic.
  EXPECT_EQ(index.FindSubsumer(second, 4, 4, id_second), id_first);
  EXPECT_EQ(index.FindSubsumer(first, 4, 4, id_first), -1);
}

TEST(SubsumptionIndexTest, SuppressedEntriesStopMatching) {
  SubsumptionIndex index;
  CanonicalState general =
      Canonicalize({A(kP, {Term::Constant(3), Term::Variable(0)})});
  int64_t id = index.Add(general, 4, 4);
  CanonicalState specific = Canonicalize(
      {A(kP, {Term::Constant(3), Term::Variable(1)}),
       A(kQ, {Term::Variable(1), Term::Variable(2)})});
  EXPECT_EQ(index.FindSubsumer(specific, 4, 4), id);
  index.Suppress(id);
  EXPECT_EQ(index.FindSubsumer(specific, 4, 4), -1);
}

TEST(SearchCacheSubsumptionTest, RefutedStatesTransferToSubsumedStates) {
  ParseResult parsed = ParseProgram(R"(
    t(X, Y) :- e(X, Y).
    e(a, b).
  )");
  ASSERT_TRUE(parsed.ok());
  Program program = std::move(*parsed.program);
  NormalizeToSingleHead(&program, nullptr);
  Instance db = DatabaseFromFacts(program.facts());
  ProofSearchCache cache(program, db);

  PredicateId t = program.symbols().FindPredicate("t");
  PredicateId e = program.symbols().FindPredicate("e");
  Term zz = program.symbols().InternConstant("zz");
  CanonicalState refuted =
      Canonicalize({Atom(t, {zz, Term::Variable(0)})});
  cache.LinearRecordRefuted(refuted, /*width=*/3, /*max_chunk=*/3);

  // A state containing an instance of the refuted state is refuted too.
  CanonicalState superset = Canonicalize(
      {Atom(t, {zz, Term::Variable(0)}),
       Atom(e, {Term::Variable(0), Term::Variable(1)})});
  EXPECT_TRUE(cache.LinearRefutedBySubsumption(superset, 3, 3));
  // But not for a search exploring beyond the recorded bound.
  EXPECT_FALSE(cache.LinearRefutedBySubsumption(superset, 4, 3));
}

TEST(CacheRefutationTransferTest, CompletedLinearRefutationsTransfer) {
  // The shared ProofSearchCache is the one path by which refutations
  // carry across candidate searches: candidate 1's completed refutation
  // records its visited states there; candidate 2's search discards
  // frontier states a recorded one maps into.
  ParseResult parsed = ParseProgram(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b).  e(b, c).  e(c, d).
  )");
  ASSERT_TRUE(parsed.ok());
  Program program = std::move(*parsed.program);
  NormalizeToSingleHead(&program, nullptr);
  Instance db = DatabaseFromFacts(program.facts());
  PredicateId t = program.symbols().FindPredicate("t");
  Term a = program.symbols().InternConstant("a");
  // t(X, a): nothing reaches a, so every candidate runs a full
  // refutation — and unwinding t(X, a) via e(X, Y), t(Y, a) walks
  // through exactly the states later candidates start from.
  ConjunctiveQuery query;
  query.output = {Term::Variable(0)};
  query.atoms = {Atom(t, {Term::Variable(0), a})};

  ProofSearchCache cache(program, db);
  ProofSearchOptions options;
  options.cache = &cache;
  ProofSearchResult first = LinearProofSearch(program, db, query, {a},
                                              options);
  EXPECT_FALSE(first.accepted);
  EXPECT_FALSE(first.budget_exhausted);
  EXPECT_GT(cache.linear_refuted_size(), 0u);  // the refutation recorded

  ProofSearchResult second = LinearProofSearch(
      program, db, query, {program.symbols().InternConstant("b")}, options);
  EXPECT_FALSE(second.accepted);
  EXPECT_GT(second.cache_hits, 0u);
  EXPECT_LT(second.states_visited, first.states_visited);

  // An accepted search must NOT record (its visited states are not
  // refuted): t(a, X) with answer b is certain.
  ProofSearchCache accept_cache(program, db);
  ProofSearchOptions accept_options;
  accept_options.cache = &accept_cache;
  ConjunctiveQuery reach;
  reach.output = {Term::Variable(0)};
  reach.atoms = {Atom(t, {a, Term::Variable(0)})};
  ProofSearchResult accepted = LinearProofSearch(
      program, db, reach, {program.symbols().InternConstant("b")},
      accept_options);
  EXPECT_TRUE(accepted.accepted);
  EXPECT_EQ(accept_cache.linear_refuted_size(), 0u);
}

TEST(CacheRefutationTransferTest, AlternatingRefutationsTransfer) {
  ParseResult parsed = ParseProgram(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b).  e(b, c).
  )");
  ASSERT_TRUE(parsed.ok());
  Program program = std::move(*parsed.program);
  NormalizeToSingleHead(&program, nullptr);
  Instance db = DatabaseFromFacts(program.facts());
  PredicateId t = program.symbols().FindPredicate("t");
  Term a = program.symbols().InternConstant("a");
  ConjunctiveQuery query;
  query.output = {Term::Variable(0)};
  query.atoms = {Atom(t, {Term::Variable(0), a})};  // t(X, a): no answers

  ProofSearchCache cache(program, db);
  ProofSearchOptions options;
  options.cache = &cache;
  AlternatingSearchResult first =
      AlternatingProofSearch(program, db, query, {a}, options);
  EXPECT_FALSE(first.accepted);
  EXPECT_FALSE(first.budget_exhausted);
  EXPECT_GT(cache.alt_refuted_size(), 0u);  // path-independent refutations

  AlternatingSearchResult second = AlternatingProofSearch(
      program, db, query, {program.symbols().InternConstant("b")}, options);
  EXPECT_FALSE(second.accepted);
  EXPECT_GT(second.cache_hits, 0u);

  // An accepted search records its goal as proven, never as refuted.
  // (Unlike the linear BFS it may still record refuted sub-goals: a
  // path-independent refutation is a certificate wherever it occurs.)
  ProofSearchCache accept_cache(program, db);
  ProofSearchOptions accept_options;
  accept_options.cache = &accept_cache;
  Term c = program.symbols().InternConstant("c");
  ConjunctiveQuery reach;
  reach.output = {Term::Variable(0)};
  reach.atoms = {Atom(t, {a, Term::Variable(0)})};
  AlternatingSearchResult accepted =
      AlternatingProofSearch(program, db, reach, {c}, accept_options);
  EXPECT_TRUE(accepted.accepted);
  CanonicalState goal = Canonicalize({Atom(t, {a, c})});
  size_t width = accepted.node_width_used;
  EXPECT_TRUE(accept_cache.AltKnownProven(goal, width, width));
  EXPECT_FALSE(accept_cache.AltKnownRefuted(goal, width, width));
}

TEST(CacheRefutationTransferTest, SweepMatchesUnsharedAnswersExactly) {
  // The sweep in CertainAnswersViaSearchChecked runs every candidate
  // against one shared cache; its answers must be identical to chase
  // enumeration for both engines (exactness of the cross-search pruning).
  ParseResult parsed = ParseProgram(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b).  e(b, c).  e(c, a).  e(c, d).
    ?(X) :- t(X, d).
  )");
  ASSERT_TRUE(parsed.ok());
  Program program = std::move(*parsed.program);
  NormalizeToSingleHead(&program, nullptr);
  Instance db = DatabaseFromFacts(program.facts());
  ConjunctiveQuery query = program.queries()[0];
  std::vector<std::vector<Term>> chase =
      CertainAnswersViaChase(program, db, query);
  for (bool alternating : {false, true}) {
    CertainAnswerSet swept = CertainAnswersViaSearchChecked(
        program, db, query, alternating, ProofSearchOptions{});
    EXPECT_TRUE(swept.complete);
    EXPECT_EQ(swept.answers, chase) << "alternating=" << alternating;
  }
}

TEST(IncrementalSimplifyTest, CleanComponentsInheritTheCertificate) {
  ParseResult parsed = ParseProgram("e(a, b).");
  ASSERT_TRUE(parsed.ok());
  Program program = std::move(*parsed.program);
  Instance db = DatabaseFromFacts(program.facts());
  PredicateId e = program.symbols().FindPredicate("e");
  Term a = program.symbols().InternConstant("a");

  // e(a, X) maps into the database. Marked dirty it is dropped; marked
  // clean it is kept unchecked — that is the certificate contract (the
  // caller asserts the component was already known non-embeddable).
  {
    std::vector<Atom> atoms = {Atom(e, {a, Term::Variable(0)})};
    std::vector<char> dirty = {1};
    EXPECT_EQ(EagerSimplifyIncremental(&atoms, db, &dirty), 1u);
    EXPECT_TRUE(atoms.empty());
  }
  {
    std::vector<Atom> atoms = {Atom(e, {a, Term::Variable(0)})};
    std::vector<char> dirty = {0};
    EXPECT_EQ(EagerSimplifyIncremental(&atoms, db, &dirty), 0u);
    EXPECT_EQ(atoms.size(), 1u);
  }
}

TEST(IncrementalSimplifyTest, DuplicatesMergeDirtinessBeforeComponents) {
  ParseResult parsed = ParseProgram("e(a, b).");
  ASSERT_TRUE(parsed.ok());
  Program program = std::move(*parsed.program);
  Instance db = DatabaseFromFacts(program.facts());
  PredicateId e = program.symbols().FindPredicate("e");
  Term a = program.symbols().InternConstant("a");

  // The duplicate is dirty, the kept first copy clean: the merged atom
  // must count as dirty and the embeddable component must be dropped —
  // both atoms removed, the duplicate included.
  std::vector<Atom> atoms = {Atom(e, {a, Term::Variable(0)}),
                             Atom(e, {a, Term::Variable(0)})};
  std::vector<char> dirty = {0, 1};
  EXPECT_EQ(EagerSimplifyIncremental(&atoms, db, &dirty), 2u);
  EXPECT_TRUE(atoms.empty());
}

TEST(IncrementalSimplifyTest, AllDirtyMatchesFullSimplifyOnRandomStates) {
  // Randomized equivalence: with every atom dirty, the incremental
  // simplification must agree exactly with the full one (EagerSimplify is
  // the all-dirty wrapper, so this pins the shared path against drift).
  ParseResult parsed = ParseProgram(R"(
    e(a, b). e(b, c). e(c, a). p(a). p(c).
  )");
  ASSERT_TRUE(parsed.ok());
  Program program = std::move(*parsed.program);
  Instance db = DatabaseFromFacts(program.facts());
  PredicateId e = program.symbols().FindPredicate("e");
  PredicateId p = program.symbols().FindPredicate("p");

  Rng rng(20260728);
  for (int round = 0; round < 200; ++round) {
    std::vector<Atom> atoms;
    size_t n = 1 + rng.Below(6);
    for (size_t i = 0; i < n; ++i) {
      bool binary = rng.Chance(0.6);
      PredicateId predicate = binary ? e : p;
      std::vector<Term> args;
      size_t arity = binary ? 2 : 1;
      for (size_t k = 0; k < arity; ++k) {
        if (rng.Chance(0.4)) {
          args.push_back(program.symbols().InternConstant(
              std::string(1, static_cast<char>('a' + rng.Below(4)))));
        } else {
          args.push_back(Term::Variable(rng.Below(4)));
        }
      }
      atoms.push_back(Atom(predicate, std::move(args)));
    }
    std::vector<Atom> full = atoms;
    std::vector<Atom> incremental = atoms;
    std::vector<char> dirty(atoms.size(), 1);
    size_t removed_full = EagerSimplify(&full, db);
    size_t removed_incremental =
        EagerSimplifyIncremental(&incremental, db, &dirty);
    EXPECT_EQ(removed_full, removed_incremental) << "round " << round;
    EXPECT_EQ(full, incremental) << "round " << round;
  }
}

}  // namespace
}  // namespace vadalog
