// Tests for the bounded linear proof search (Section 4.3) — the paper's
// headline NLogSpace algorithm for CQAns(WARD ∩ PWL).

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "engine/certain.h"
#include "engine/linear_search.h"
#include "engine/search_cache.h"
#include "engine/state.h"
#include "gen/generators.h"
#include "vadalog/reasoner.h"

namespace vadalog {
namespace {

struct TestEnv {
  Program program;
  Instance db;

  explicit TestEnv(const char* text) {
    ParseResult parsed = ParseProgram(text);
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    program = std::move(*parsed.program);
    NormalizeToSingleHead(&program, nullptr);
    db = DatabaseFromFacts(program.facts());
  }

  Term Const(const char* name) {
    return program.symbols().InternConstant(name);
  }
  ConjunctiveQuery Query(size_t index = 0) {
    return program.queries()[index];
  }
};

TEST(LinearSearchTest, ReachabilityPositive) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, d).
    ?(X) :- t(a, X).
  )");
  EXPECT_TRUE(
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("d")}).accepted);
  EXPECT_TRUE(
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("b")}).accepted);
}

TEST(LinearSearchTest, ReachabilityNegative) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, d).
    ?(X) :- t(a, X).
  )");
  EXPECT_FALSE(
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("a")}).accepted);
  ProofSearchResult r =
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("zz")});
  EXPECT_FALSE(r.accepted);
  EXPECT_FALSE(r.budget_exhausted);
}

TEST(LinearSearchTest, ExistentialWitnessBooleanQuery) {
  // P(x) → ∃z R(x,z): the Boolean query ∃x∃z R(x,z) is certain although
  // no R-fact exists in D.
  TestEnv s(R"(
    r(X, Z) :- p(X).
    p(a).
    ?() :- r(X, Y).
  )");
  EXPECT_TRUE(LinearProofSearch(s.program, s.db, s.Query(), {}).accepted);
}

TEST(LinearSearchTest, NullNotACertainAnswer) {
  // The witness z is a null: ?(Y) :- r(a, Y) has no certain (constant)
  // answer.
  TestEnv s(R"(
    r(X, Z) :- p(X).
    p(a).
    ?(Y) :- r(a, Y).
  )");
  EXPECT_FALSE(
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("a")}).accepted);
}

TEST(LinearSearchTest, WardedExistentialCycle) {
  // The Section 3 warded pair; derived P-facts are null-valued, so the
  // only certain P-answer is the database one... plus none propagated.
  TestEnv s(R"(
    r(X, Z) :- p(X).
    p(Y) :- r(X, Y).
    p(a).
    ?(X) :- p(X).
  )");
  EXPECT_TRUE(
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("a")}).accepted);
  Term b = s.Const("b");
  EXPECT_FALSE(LinearProofSearch(s.program, s.db, s.Query(), {b}).accepted);
  // Boolean: ∃x∃z r(x,z) and the deeper ∃ chain are certain.
  ConjunctiveQuery boolean_query;
  PredicateId r = s.program.symbols().FindPredicate("r");
  boolean_query.atoms = {Atom(r, {Term::Variable(0), Term::Variable(1)})};
  EXPECT_TRUE(LinearProofSearch(s.program, s.db, boolean_query, {}).accepted);
}

TEST(LinearSearchTest, JoinQueryOverDerivedAtoms) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(b, d).
    ?(X, Y) :- t(a, X), t(X, Y).
  )");
  EXPECT_TRUE(LinearProofSearch(s.program, s.db, s.Query(),
                                {s.Const("b"), s.Const("c")})
                  .accepted);
  EXPECT_FALSE(LinearProofSearch(s.program, s.db, s.Query(),
                                 {s.Const("c"), s.Const("b")})
                   .accepted);
}

TEST(LinearSearchTest, RepeatedOutputVariable) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, a).
    ?(X, X) :- t(X, X).
  )");
  EXPECT_TRUE(LinearProofSearch(s.program, s.db, s.Query(),
                                {s.Const("a"), s.Const("a")})
                  .accepted);
  // Inconsistent candidate for the repeated variable.
  EXPECT_FALSE(LinearProofSearch(s.program, s.db, s.Query(),
                                 {s.Const("a"), s.Const("b")})
                   .accepted);
}

TEST(LinearSearchTest, Owl2QlTypeInference) {
  TestEnv s(R"(
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
  // Transitive subclass inference: tom : cat, mammal, animal.
  EXPECT_TRUE(LinearProofSearch(s.program, s.db, s.Query(),
                                {s.Const("animal")})
                  .accepted);
  // Through restriction + inverse-free round trip: triple(tom, hunts, z)
  // with restriction(hunter, hunts) re-derives type(tom, hunter).
  EXPECT_TRUE(LinearProofSearch(s.program, s.db, s.Query(),
                                {s.Const("hunter")})
                  .accepted);
  EXPECT_FALSE(
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("hunts")})
          .accepted);
}

TEST(LinearSearchTest, AgreesWithChaseOnEnumeration) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, a). e(c, d).
    ?(X, Y) :- t(X, Y).
  )");
  std::vector<std::vector<Term>> via_chase =
      CertainAnswersViaChase(s.program, s.db, s.Query());
  std::vector<std::vector<Term>> via_search =
      CertainAnswersViaSearch(s.program, s.db, s.Query());
  EXPECT_EQ(via_chase, via_search);
  EXPECT_EQ(via_search.size(), 12u);  // 3-cycle closure (9) + edges into d (3)
  ProofSearchOptions unpruned;
  unpruned.subsumption = false;
  EXPECT_EQ(via_chase, CertainAnswersViaSearch(s.program, s.db, s.Query(),
                                               /*use_alternating=*/false,
                                               unpruned));
}

TEST(LinearSearchTest, StateBudgetReported) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c).
    ?(X) :- t(a, X).
  )");
  ProofSearchOptions options;
  options.max_states = 1;
  ProofSearchResult result =
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("zz")}, options);
  EXPECT_FALSE(result.accepted);
  EXPECT_TRUE(result.budget_exhausted);
}

TEST(LinearSearchTest, StatsArePopulated) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c).
    ?(X) :- t(a, X).
  )");
  ProofSearchResult result =
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("c")});
  EXPECT_TRUE(result.accepted);
  EXPECT_GT(result.node_width_used, 0u);
  EXPECT_GT(result.peak_state_bytes, 0u);
}

// Deterministic perf canaries: the searches count expanded/visited states,
// so exploration-size regressions (a lost pruning rule, a broken canonical
// form) show up as counter jumps long before they show up as wall-clock.
// Bounds are ~2x the counts observed when the pruned search landed
// (7 states for the chain refutation, 8280 for the OWL 2 QL refutation).
TEST(LinearSearchTest, PerfCanaryChainRefutation) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, d).
    ?(X) :- t(a, X).
  )");
  ProofSearchResult result =
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("zz")});
  EXPECT_FALSE(result.accepted);
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_LE(result.states_expanded, 16u);
  EXPECT_LE(result.states_visited, 16u);
}

TEST(LinearSearchTest, PerfCanaryOwl2QlRefutation) {
  TestEnv s(R"(
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
  ProofSearchResult result =
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("hunts")});
  EXPECT_FALSE(result.accepted);
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_LE(result.states_expanded, 16000u);
  EXPECT_LE(result.states_visited, 16000u);
}

TEST(LinearSearchTest, SubsumptionPruningPreservesDecisions) {
  TestEnv s(R"(
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
  ProofSearchOptions unpruned;
  unpruned.subsumption = false;
  for (const char* name : {"animal", "hunter", "hunts", "cat", "tom"}) {
    ProofSearchResult with_pruning =
        LinearProofSearch(s.program, s.db, s.Query(), {s.Const(name)});
    ProofSearchResult without =
        LinearProofSearch(s.program, s.db, s.Query(), {s.Const(name)},
                          unpruned);
    EXPECT_EQ(with_pruning.accepted, without.accepted) << name;
    EXPECT_LE(with_pruning.states_expanded, without.states_expanded)
        << name;
  }
  // On this workload the pruning must actually fire.
  ProofSearchResult refutation =
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("hunts")});
  EXPECT_GT(refutation.subsumed_discarded, 0u);
}

// A refutation explores the whole bounded space, so its counters are a
// pure function of the BFS's frontier order: pinned here.
TEST(LinearSearchTest, RefutationCountersArePinned) {
  TestEnv s(R"(
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
  ProofSearchResult pruned =
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("hunts")});
  EXPECT_FALSE(pruned.accepted);
  EXPECT_FALSE(pruned.budget_exhausted);
  EXPECT_EQ(pruned.states_visited, 996u);
  EXPECT_EQ(pruned.states_expanded, 145u);
  EXPECT_EQ(pruned.subsumed_discarded, 816u);
  EXPECT_EQ(pruned.states_retired, 35u);
  EXPECT_EQ(pruned.resolution_edges, 7308u);
  EXPECT_EQ(pruned.drop_edges, 131u);
  EXPECT_EQ(pruned.subsumption_checks, 10027u);
  ProofSearchOptions unpruned;
  unpruned.subsumption = false;
  ProofSearchResult full = LinearProofSearch(
      s.program, s.db, s.Query(), {s.Const("hunts")}, unpruned);
  EXPECT_FALSE(full.accepted);
  EXPECT_EQ(full.states_visited, 8280u);
  EXPECT_EQ(full.states_expanded, 8280u);
  EXPECT_EQ(full.resolution_edges, 65648u);
  EXPECT_EQ(full.drop_edges, 4822u);
  for (const char* name : {"animal", "hunter", "cat"}) {
    ProofSearchResult r =
        LinearProofSearch(s.program, s.db, s.Query(), {s.Const(name)});
    EXPECT_TRUE(r.accepted) << name;
  }
}

// A cold proof-search workload at the end-to-end benchmark's instance
// size, pinned: a generated OWL 2 QL ontology (4 classes, 1 property, 8
// individuals, fixed seed) and every type(individual, class) decision
// against one shared cache under a 1000-state budget. The successor
// pipeline may get cheaper, never explore differently.
TEST(LinearSearchTest, GeneratedOntologyCountersArePinned) {
  Program program = MakeOwl2QlProgram();
  Rng rng(7);
  AddOntologyFacts(&program, /*num_classes=*/4, /*num_properties=*/1,
                   /*num_individuals=*/8, &rng);
  NormalizeToSingleHead(&program, nullptr);
  Instance db = DatabaseFromFacts(program.facts());
  ProofSearchCache cache(program, db);
  ProofSearchOptions options;
  options.cache = &cache;
  options.max_states = 1000;
  SymbolTable& symbols = program.symbols();
  PredicateId type = symbols.FindPredicate("type");
  std::string verdicts;
  ProofSearchResult total;
  for (int i = 0; i < 8; ++i) {
    for (int c = 0; c < 4; ++c) {
      ConjunctiveQuery query;
      query.atoms = {
          Atom(type, {symbols.InternConstant("ind" + std::to_string(i)),
                      symbols.InternConstant("class" + std::to_string(c))})};
      ProofSearchResult r = LinearProofSearch(program, db, query, {}, options);
      verdicts += r.accepted ? '1' : r.budget_exhausted ? 'b' : '0';
      total.states_expanded += r.states_expanded;
      total.states_visited += r.states_visited;
      total.subsumed_discarded += r.subsumed_discarded;
      total.subsumption_checks += r.subsumption_checks;
      total.resolution_edges += r.resolution_edges;
      total.drop_edges += r.drop_edges;
      total.cache_hits += r.cache_hits;
    }
    verdicts += ' ';
  }
  EXPECT_EQ(verdicts, "1000 1100 1000 1000 1000 1001 1001 1000 ");
  EXPECT_EQ(total.states_expanded, 670u);
  EXPECT_EQ(total.states_visited, 1997u);
  EXPECT_EQ(total.subsumed_discarded, 1318u);
  EXPECT_EQ(total.subsumption_checks, 13191u);
  EXPECT_EQ(total.resolution_edges, 17081u);
  EXPECT_EQ(total.drop_edges, 697u);
  EXPECT_EQ(total.cache_hits, 448u);
}

TEST(LinearSearchTest, StateBudgetCutsALevel) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, a). e(c, d). e(d, e). e(e, a).
    ?(X) :- t(a, X).
  )");
  ProofSearchOptions options;
  options.max_states = 3;
  ProofSearchResult result =
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("zz")}, options);
  EXPECT_FALSE(result.accepted);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_LE(result.states_expanded, 3u);
}

TEST(LinearSearchTest, ExplanationSurvivesPruning) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, d).
    ?(X) :- t(a, X).
  )");
  ProofExplanation explanation;
  ProofSearchResult result = LinearProofSearch(
      s.program, s.db, s.Query(), {s.Const("d")}, {}, &explanation);
  ASSERT_TRUE(result.accepted);
  ASSERT_FALSE(explanation.empty());
  EXPECT_EQ(explanation.steps.front().kind, ProofStep::Kind::kStart);
  EXPECT_TRUE(explanation.steps.back().state.empty());
  // Match-drop steps carry the database fact they used (built only for
  // explanations), and every level's state is canonical: encoding it
  // again and decoding gives back the same atoms.
  size_t drops = 0;
  for (const ProofStep& step : explanation.steps) {
    if (step.kind == ProofStep::Kind::kMatchDrop) {
      ++drops;
      EXPECT_TRUE(s.db.Contains(step.matched_fact))
          << step.matched_fact.ToString(s.program.symbols());
    }
    CanonicalState encoded = CanonicalEncoding(step.state);
    EXPECT_TRUE(encoded.atoms.empty());
    DecodeAtoms(&encoded);
    EXPECT_EQ(encoded.atoms, step.state);
    EXPECT_EQ(Canonicalize(step.state).atoms, step.state);
  }
  EXPECT_GT(drops, 0u);
}

// Recording an explanation changes what the search remembers, never how
// it explores: every result field equals the plain run's.
TEST(LinearSearchTest, ExplanationLeavesCountersUnchanged) {
  TestEnv s(R"(
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
  for (const char* name : {"animal", "mammal"}) {
    SCOPED_TRACE(name);
    ProofSearchResult plain =
        LinearProofSearch(s.program, s.db, s.Query(), {s.Const(name)});
    ProofExplanation explanation;
    ProofSearchResult explained = LinearProofSearch(
        s.program, s.db, s.Query(), {s.Const(name)}, {}, &explanation);
    EXPECT_TRUE(plain.accepted);
    EXPECT_FALSE(explanation.empty());
    EXPECT_EQ(explained.accepted, plain.accepted);
    EXPECT_EQ(explained.budget_exhausted, plain.budget_exhausted);
    EXPECT_EQ(explained.states_expanded, plain.states_expanded);
    EXPECT_EQ(explained.states_visited, plain.states_visited);
    EXPECT_EQ(explained.resolution_edges, plain.resolution_edges);
    EXPECT_EQ(explained.drop_edges, plain.drop_edges);
    EXPECT_EQ(explained.cache_hits, plain.cache_hits);
    EXPECT_EQ(explained.subsumed_discarded, plain.subsumed_discarded);
    EXPECT_EQ(explained.states_retired, plain.states_retired);
    EXPECT_EQ(explained.subsumption_checks, plain.subsumption_checks);
    EXPECT_EQ(explained.peak_state_bytes, plain.peak_state_bytes);
    EXPECT_EQ(explained.visited_bytes, plain.visited_bytes);
    EXPECT_EQ(explained.node_width_used, plain.node_width_used);
  }
}

TEST(LinearSearchTest, FreezeQueryRejectsMalformedCandidates) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    e(a, b).
    ?(X) :- t(X, X).
  )");
  EXPECT_FALSE(FreezeQuery(s.Query(), {}).has_value());             // arity
  EXPECT_FALSE(FreezeQuery(s.Query(), {Term::Null(0)}).has_value()); // null
  EXPECT_TRUE(FreezeQuery(s.Query(), {s.Const("a")}).has_value());
}

}  // namespace
}  // namespace vadalog
