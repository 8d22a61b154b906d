// Tests for the alternating bounded proof search (general warded sets,
// re-establishing Proposition 3.2).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ast/parser.h"
#include "engine/alternating_search.h"
#include "engine/certain.h"
#include "engine/search_cache.h"
#include "gen/generators.h"

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

TEST(AlternatingSearchTest, NonLinearTransitiveClosure) {
  // T(x,y) ∧ T(y,z) → T(x,z) is warded but not PWL: the linear search
  // bound does not apply, the alternating search with f_WARD does.
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, d). e(d, f).
    ?(X) :- t(a, X).
  )");
  EXPECT_TRUE(
      AlternatingProofSearch(s.program, s.db, s.Query(), {s.Const("f")})
          .accepted);
  EXPECT_FALSE(
      AlternatingProofSearch(s.program, s.db, s.Query(), {s.Const("a")})
          .accepted);
}

TEST(AlternatingSearchTest, AgreesWithChase) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, a).
    ?(X, Y) :- t(X, Y).
  )");
  std::vector<std::vector<Term>> via_chase =
      CertainAnswersViaChase(s.program, s.db, s.Query());
  std::vector<std::vector<Term>> via_search = CertainAnswersViaSearch(
      s.program, s.db, s.Query(), /*use_alternating=*/true);
  EXPECT_EQ(via_chase, via_search);
  EXPECT_EQ(via_search.size(), 9u);
}

TEST(AlternatingSearchTest, ExistentialsWithNonLinearRules) {
  TestEnv s(R"(
    r(X, Z) :- p(X).
    p(Y) :- r(X, Y).
    conn(X, Y) :- p(X), p(Y).
    ?() :- conn(X, Y).
  )");
  EXPECT_TRUE(s.db.size() == 0);
  // No facts at all: nothing derivable.
  EXPECT_FALSE(
      AlternatingProofSearch(s.program, s.db, s.Query(), {}).accepted);
  s.db.Insert(Atom(s.program.symbols().FindPredicate("p"), {s.Const("a")}));
  EXPECT_TRUE(
      AlternatingProofSearch(s.program, s.db, s.Query(), {}).accepted);
}

TEST(AlternatingSearchTest, DecompositionAndMemoization) {
  // The query splits into two independent components after freezing.
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(x1, y1).
    ?(X, Y) :- t(a, X), t(x1, Y).
  )");
  AlternatingSearchResult result = AlternatingProofSearch(
      s.program, s.db, s.Query(), {s.Const("c"), s.Const("y1")});
  EXPECT_TRUE(result.accepted);
  EXPECT_GT(result.states_expanded, 0u);
}

TEST(AlternatingSearchTest, BudgetExhaustionReported) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), t(Y, Z).
    e(a, b). e(b, c).
    ?(X) :- t(a, X).
  )");
  ProofSearchOptions options;
  options.max_states = 1;
  AlternatingSearchResult result = AlternatingProofSearch(
      s.program, s.db, s.Query(), {s.Const("zz")}, options);
  EXPECT_FALSE(result.accepted);
  EXPECT_TRUE(result.budget_exhausted);
}

TEST(AlternatingSearchTest, CycleInStateGraphTerminates) {
  // p ↔ q mutual recursion with no base case: refutation must terminate
  // via on-path cycle pruning.
  TestEnv s(R"(
    p(X) :- q(X).
    q(X) :- p(X).
    dom(a).
    ?(X) :- p(X).
  )");
  AlternatingSearchResult result =
      AlternatingProofSearch(s.program, s.db, s.Query(), {s.Const("a")});
  EXPECT_FALSE(result.accepted);
}

// Deterministic perf canaries (counter-based, CI-stable): bounds are ~2x
// the counts observed when the pruned search landed (13 expansions for the
// positive decision, 2628 for the refutation).
TEST(AlternatingSearchTest, PerfCanaryNonLinearTcCounts) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, d). e(d, f).
    ?(X) :- t(a, X).
  )");
  AlternatingSearchResult positive =
      AlternatingProofSearch(s.program, s.db, s.Query(), {s.Const("f")});
  EXPECT_TRUE(positive.accepted);
  EXPECT_LE(positive.states_expanded, 30u);
  AlternatingSearchResult negative =
      AlternatingProofSearch(s.program, s.db, s.Query(), {s.Const("a")});
  EXPECT_FALSE(negative.accepted);
  EXPECT_FALSE(negative.budget_exhausted);
  EXPECT_LE(negative.states_expanded, 5000u);
}

TEST(AlternatingSearchTest, SubsumptionPruningPreservesDecisions) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, a). e(c, d). e(d, f).
    ?(X, Y) :- t(X, Y).
  )");
  ProofSearchOptions unpruned;
  unpruned.subsumption = false;
  std::vector<Term> constants = {s.Const("a"), s.Const("b"), s.Const("c"),
                                 s.Const("d"), s.Const("f"), s.Const("zz")};
  uint64_t total_discarded = 0;
  for (Term x : constants) {
    for (Term y : constants) {
      AlternatingSearchResult pruned =
          AlternatingProofSearch(s.program, s.db, s.Query(), {x, y});
      AlternatingSearchResult plain = AlternatingProofSearch(
          s.program, s.db, s.Query(), {x, y}, unpruned);
      EXPECT_EQ(pruned.accepted, plain.accepted)
          << x.index() << ", " << y.index();
      total_discarded += pruned.subsumed_discarded;
    }
  }
  EXPECT_GT(total_discarded, 0u);  // the pruning must actually fire
}

// The explicit-stack machine must prove goals whose only proof is deeper
// than the former kMaxProveDepth = 2000 recursion guard (which silently
// reported such goals as budget_exhausted) — and do it without leaning on
// the OS stack: tests/CMakeLists.txt re-runs the DeepChain tests under a
// `ulimit -s 1024` (1 MiB) stack to pin that.
struct DeepChain {
  static constexpr uint32_t kNodes = 1500;  // proof depth ~2 frames/node

  Program program;
  Instance db;

  DeepChain() {
    std::string text =
        "t(X, Y) :- e(X, Y).\n"
        "t(X, Z) :- t(X, Y), e(Y, Z).\n"
        "?(X) :- t(a0, X).\n";
    for (uint32_t i = 0; i + 1 < kNodes; ++i) {
      text += "e(a" + std::to_string(i) + ", a" + std::to_string(i + 1) +
              ").\n";
    }
    ParseResult parsed = ParseProgram(text.c_str());
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    program = std::move(*parsed.program);
    NormalizeToSingleHead(&program, nullptr);
    db = DatabaseFromFacts(program.facts());
  }
};

TEST(AlternatingSearchTest, DeepChainProofBeyondFormerRecursionGuard) {
  DeepChain s;
  Term last = s.program.symbols().InternConstant(
      "a" + std::to_string(DeepChain::kNodes - 1));
  AlternatingSearchResult deep = AlternatingProofSearch(
      s.program, s.db, s.program.queries()[0], {last});
  EXPECT_TRUE(deep.accepted);
  EXPECT_FALSE(deep.budget_exhausted);
  // The proof tree really was deeper than the former guard.
  EXPECT_GT(deep.states_expanded, 2000u);
  // Both engines agree on the deep verdict (the program is WARD ∩ PWL).
  ProofSearchResult linear = LinearProofSearch(
      s.program, s.db, s.program.queries()[0], {last});
  EXPECT_TRUE(linear.accepted);
}

TEST(AlternatingSearchTest, DeepChainRefutationAgrees) {
  DeepChain s;
  Term absent = s.program.symbols().InternConstant("zz");
  AlternatingSearchResult alt = AlternatingProofSearch(
      s.program, s.db, s.program.queries()[0], {absent});
  EXPECT_FALSE(alt.accepted);
  EXPECT_FALSE(alt.budget_exhausted);
  ProofSearchResult linear = LinearProofSearch(
      s.program, s.db, s.program.queries()[0], {absent});
  EXPECT_FALSE(linear.accepted);
  EXPECT_FALSE(linear.budget_exhausted);
}

// Budget-exhausted searches must never deposit refutation certificates:
// the branch that hit the cut was not fully explored, so nothing it gave
// up on may later masquerade as refuted in the shared cache.
TEST(AlternatingSearchTest, BudgetExhaustedRecordsNoCertificates) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, d).
    ?(X) :- t(a, X).
  )");
  ProofSearchCache cache(s.program, s.db);
  ProofSearchOptions options;
  options.cache = &cache;
  options.max_states = 1;
  AlternatingSearchResult result = AlternatingProofSearch(
      s.program, s.db, s.Query(), {s.Const("zz")}, options);
  EXPECT_FALSE(result.accepted);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_EQ(cache.alt_refuted_size(), 0u);
}

// A cold proof-search workload at the end-to-end benchmark's instance
// size, pinned: the non-linear transitive closure over a generated graph
// (16 nodes, 12 edges, fixed seed), 32 t(x, y) decisions against one
// shared cache under a 1000-state budget.
TEST(AlternatingSearchTest, GeneratedGraphCountersArePinned) {
  Program program = MakeTransitiveClosureProgram(/*linear=*/false);
  Rng rng(7);
  AddRandomGraphFacts(&program, "e", /*num_nodes=*/16, /*num_edges=*/12,
                      &rng);
  NormalizeToSingleHead(&program, nullptr);
  Instance db = DatabaseFromFacts(program.facts());
  ProofSearchCache cache(program, db);
  ProofSearchOptions options;
  options.cache = &cache;
  options.max_states = 1000;
  SymbolTable& symbols = program.symbols();
  PredicateId t = symbols.FindPredicate("t");
  auto node = [&symbols](int i) {
    return symbols.InternConstant("v" + std::to_string(i));
  };
  std::string verdicts;
  AlternatingSearchResult total;
  for (int k = 0; k < 32; ++k) {
    ConjunctiveQuery query;
    query.atoms = {Atom(t, {node(k % 16), node((k * 5 + 3) % 16)})};
    AlternatingSearchResult r =
        AlternatingProofSearch(program, db, query, {}, options);
    verdicts += r.accepted ? '1' : r.budget_exhausted ? 'b' : '0';
    total.states_expanded += r.states_expanded;
    total.proven_cached += r.proven_cached;
    total.refuted_cached += r.refuted_cached;
    total.subsumed_discarded += r.subsumed_discarded;
    total.cache_hits += r.cache_hits;
  }
  EXPECT_EQ(verdicts, "1100000000b10b011100000000b10b01");
  EXPECT_EQ(total.states_expanded, 5300u);
  EXPECT_EQ(total.proven_cached, 44u);
  EXPECT_EQ(total.refuted_cached, 348u);
  EXPECT_EQ(total.subsumed_discarded, 2768u);
  EXPECT_EQ(total.cache_hits, 1778u);
}

// The sequential machine's verdicts and counters are pinned: a change in
// exploration order or memo sharing shows up here as a counter diff.
TEST(AlternatingSearchTest, SequentialMachineCountersArePinned) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, a). e(c, d). e(d, f). e(f, g). e(x1, y1).
    ?(X, Y) :- t(a, X), t(x1, Y).
  )");
  struct Pin {
    const char* x;
    const char* y;
    uint64_t max_states;
    bool accepted;
    bool budget_exhausted;
    uint64_t states_expanded;
    uint64_t proven_cached;
    uint64_t refuted_cached;
    uint64_t subsumed_discarded;
    size_t peak_state_bytes;
  };
  // Two proofs through an AND-split root, a full refutation, and the
  // same three under a 40-state budget (which cuts the refutation).
  constexpr Pin kPins[] = {
      {"d", "y1", 0, true, false, 11, 9, 2, 0, 48},
      {"a", "y1", 0, true, false, 11, 9, 2, 0, 48},
      {"zz", "zz", 0, false, false, 6050, 25, 69, 2011, 96},
      {"d", "y1", 40, true, false, 11, 9, 2, 0, 48},
      {"a", "y1", 40, true, false, 11, 9, 2, 0, 48},
      {"zz", "zz", 40, false, true, 40, 0, 2, 6, 96},
  };
  for (const Pin& pin : kPins) {
    ProofSearchOptions options;
    options.max_states = pin.max_states;
    AlternatingSearchResult r = AlternatingProofSearch(
        s.program, s.db, s.Query(), {s.Const(pin.x), s.Const(pin.y)}, options);
    SCOPED_TRACE(std::string(pin.x) + "," + pin.y);
    SCOPED_TRACE(pin.max_states);
    EXPECT_EQ(r.accepted, pin.accepted);
    EXPECT_EQ(r.budget_exhausted, pin.budget_exhausted);
    EXPECT_EQ(r.states_expanded, pin.states_expanded);
    EXPECT_EQ(r.proven_cached, pin.proven_cached);
    EXPECT_EQ(r.refuted_cached, pin.refuted_cached);
    EXPECT_EQ(r.subsumed_discarded, pin.subsumed_discarded);
    EXPECT_EQ(r.cache_hits, 0u);
    EXPECT_EQ(r.peak_state_bytes, pin.peak_state_bytes);
    EXPECT_EQ(r.node_width_used, 4u);
  }

  // Every pair over a 3-cycle with an exit: t(x, y) holds iff x is on
  // the cycle and y is reachable from it.
  TestEnv cycle(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, a). e(c, d).
    ?(X, Y) :- t(X, Y).
  )");
  std::string verdicts;
  uint64_t states = 0;
  uint64_t proven = 0;
  uint64_t refuted = 0;
  for (const char* x : {"a", "b", "c", "d", "zz"}) {
    for (const char* y : {"a", "b", "c", "d", "zz"}) {
      AlternatingSearchResult r = AlternatingProofSearch(
          cycle.program, cycle.db, cycle.Query(),
          {cycle.Const(x), cycle.Const(y)});
      verdicts += r.accepted ? '1' : '0';
      states += r.states_expanded;
      proven += r.proven_cached;
      refuted += r.refuted_cached;
    }
    verdicts += ' ';
  }
  EXPECT_EQ(verdicts, "11110 11110 11110 00000 00000 ");
  EXPECT_EQ(states, 48545u);
  EXPECT_EQ(proven, 208u);
  EXPECT_EQ(refuted, 156u);
}

TEST(AlternatingSearchTest, MatchesLinearSearchOnPwlPrograms) {
  // On WARD ∩ PWL programs both engines must agree.
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, d).
    ?(X, Y) :- t(X, Y).
  )");
  std::vector<std::vector<Term>> linear =
      CertainAnswersViaSearch(s.program, s.db, s.Query(), false);
  std::vector<std::vector<Term>> alternating =
      CertainAnswersViaSearch(s.program, s.db, s.Query(), true);
  EXPECT_EQ(linear, alternating);
}

}  // namespace
}  // namespace vadalog
