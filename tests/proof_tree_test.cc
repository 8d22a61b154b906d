// Tests for proof-tree reconstruction (linear proof explanations,
// Definition 4.6) from the linear proof search.

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "engine/linear_search.h"
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
};

TEST(ProofTreeTest, ReachabilityProofStructure) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c).
    ?(X) :- t(a, X).
  )");
  ProofExplanation explanation;
  ProofSearchResult result =
      LinearProofSearch(s.program, s.db, s.program.queries()[0],
                        {s.Const("c")}, {}, &explanation);
  ASSERT_TRUE(result.accepted);
  ASSERT_FALSE(explanation.empty());
  // The proof starts at the frozen query and ends accepting.
  EXPECT_EQ(explanation.steps.front().kind, ProofStep::Kind::kStart);
  EXPECT_TRUE(explanation.steps.back().state.empty());
  // At least one resolution (t is not a database fact).
  bool has_resolution = false;
  for (const ProofStep& step : explanation.steps) {
    if (step.kind == ProofStep::Kind::kResolution) has_resolution = true;
  }
  EXPECT_TRUE(has_resolution);
}

TEST(ProofTreeTest, MatchDropRecordsFact) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c).
    ?(X) :- t(a, X).
  )");
  ProofExplanation explanation;
  LinearProofSearch(s.program, s.db, s.program.queries()[0], {s.Const("c")},
                    {}, &explanation);
  bool found_match = false;
  for (const ProofStep& step : explanation.steps) {
    if (step.kind == ProofStep::Kind::kMatchDrop) {
      found_match = true;
      // The matched fact must actually be in the database.
      EXPECT_TRUE(s.db.Contains(step.matched_fact))
          << step.matched_fact.ToString(s.program.symbols());
    }
  }
  EXPECT_TRUE(found_match);
}

TEST(ProofTreeTest, RenderedExplanationMentionsRules) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    e(a, b).
    ?() :- t(a, b).
  )");
  ProofExplanation explanation;
  ProofSearchResult result = LinearProofSearch(
      s.program, s.db, s.program.queries()[0], {}, {}, &explanation);
  ASSERT_TRUE(result.accepted);
  std::string rendered = explanation.ToString(s.program);
  EXPECT_NE(rendered.find("resolve"), std::string::npos);
  EXPECT_NE(rendered.find("accept"), std::string::npos);
}

TEST(ProofTreeTest, NoExplanationForNonAnswers) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    e(a, b).
    ?(X) :- t(a, X).
  )");
  ProofExplanation explanation;
  ProofSearchResult result =
      LinearProofSearch(s.program, s.db, s.program.queries()[0],
                        {s.Const("zzz")}, {}, &explanation);
  EXPECT_FALSE(result.accepted);
}

TEST(ProofTreeTest, ExistentialProofUsesResolution) {
  TestEnv s(R"(
    r(X, Z) :- p(X).
    p(a).
    ?() :- r(X, Y).
  )");
  ProofExplanation explanation;
  ProofSearchResult result = LinearProofSearch(
      s.program, s.db, s.program.queries()[0], {}, {}, &explanation);
  ASSERT_TRUE(result.accepted);
  // The proof must resolve r through the existential rule, then match p(a).
  ASSERT_GE(explanation.steps.size(), 2u);
  std::string rendered = explanation.ToString(s.program);
  EXPECT_NE(rendered.find("r(X"), std::string::npos);
}

TEST(ProofTreeTest, ReasonerExplainFacade) {
  std::unique_ptr<Reasoner> reasoner = Reasoner::FromText(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c).
    ?(X) :- t(a, X).
  )");
  ASSERT_NE(reasoner, nullptr);
  const ConjunctiveQuery& query = reasoner->program().queries()[0];
  SymbolTable& symbols = const_cast<Program&>(reasoner->program()).symbols();
  std::string proof;
  EXPECT_TRUE(
      reasoner->Explain(query, {symbols.InternConstant("c")}, &proof)
          .accepted);
  EXPECT_FALSE(proof.empty());
  EXPECT_NE(proof.find("accept"), std::string::npos);
  ProofSearchResult refuted =
      reasoner->Explain(query, {symbols.InternConstant("a")}, &proof);
  EXPECT_FALSE(refuted.accepted);
  EXPECT_FALSE(refuted.budget_exhausted);
  EXPECT_TRUE(proof.empty());
}

TEST(ProofTreeTest, ProofStepCountMatchesChainLength) {
  // Proving reach over a length-n chain needs ~n resolutions + n drops.
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(n0, n1). e(n1, n2). e(n2, n3). e(n3, n4).
    ?() :- t(n0, n4).
  )");
  ProofExplanation explanation;
  ProofSearchResult result = LinearProofSearch(
      s.program, s.db, s.program.queries()[0], {}, {}, &explanation);
  ASSERT_TRUE(result.accepted);
  size_t resolutions = 0;
  for (const ProofStep& step : explanation.steps) {
    if (step.kind == ProofStep::Kind::kResolution) ++resolutions;
  }
  EXPECT_EQ(resolutions, 4u);  // one per chain edge
}

}  // namespace
}  // namespace vadalog
