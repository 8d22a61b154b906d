// Tests for the vadalog::Reasoner facade.

#include <gtest/gtest.h>

#include "vadalog/reasoner.h"

namespace vadalog {
namespace {

TEST(ReasonerTest, QuickstartFlow) {
  std::string error;
  std::unique_ptr<Reasoner> reasoner = Reasoner::FromText(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c).
    ?(X) :- t(a, X).
  )", &error);
  ASSERT_NE(reasoner, nullptr) << error;
  std::vector<std::string> answers = reasoner->AnswerStrings(0);
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers[0], "(b)");
  EXPECT_EQ(answers[1], "(c)");
}

TEST(ReasonerTest, ParseErrorReported) {
  std::string error;
  EXPECT_EQ(Reasoner::FromText("p(X) :-", &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(ReasonerTest, ClassificationExposed) {
  std::unique_ptr<Reasoner> reasoner = Reasoner::FromText(R"(
    r(X, Z) :- p(X).
    p(Y) :- r(X, Y).
    p(a).
  )");
  ASSERT_NE(reasoner, nullptr);
  EXPECT_TRUE(reasoner->classification().warded);
  EXPECT_TRUE(reasoner->classification().piecewise_linear);
  EXPECT_TRUE(reasoner->wardedness().is_warded);
  std::string report = reasoner->AnalysisReport();
  EXPECT_NE(report.find("NLogSpace"), std::string::npos);
}

TEST(ReasonerTest, EnginesAgree) {
  std::unique_ptr<Reasoner> reasoner = Reasoner::FromText(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, a).
    ?(X) :- t(b, X).
  )");
  ASSERT_NE(reasoner, nullptr);
  ReasonerOptions chase;
  chase.engine = EngineChoice::kChase;
  ReasonerOptions linear;
  linear.engine = EngineChoice::kLinearProof;
  ReasonerOptions alternating;
  alternating.engine = EngineChoice::kAlternatingProof;
  std::vector<std::vector<Term>> via_chase = reasoner->Answer(0, chase);
  EXPECT_EQ(via_chase, reasoner->Answer(0, linear));
  EXPECT_EQ(via_chase, reasoner->Answer(0, alternating));
  EXPECT_EQ(via_chase.size(), 3u);
}

TEST(ReasonerTest, AutoPicksLinearForPwlWarded) {
  std::unique_ptr<Reasoner> reasoner = Reasoner::FromText(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b).
    ?(X) :- t(a, X).
  )");
  ASSERT_NE(reasoner, nullptr);
  // kAuto routes through the linear proof search and stays correct.
  std::vector<std::vector<Term>> answers = reasoner->Answer(0);
  EXPECT_EQ(answers.size(), 1u);
}

TEST(ReasonerTest, IsCertainDecision) {
  std::unique_ptr<Reasoner> reasoner = Reasoner::FromText(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c).
    ?(X, Y) :- t(X, Y).
  )");
  ASSERT_NE(reasoner, nullptr);
  // Access constants through a scratch parse on the same reasoner.
  const ConjunctiveQuery& query = reasoner->program().queries()[0];
  SymbolTable& symbols =
      const_cast<Program&>(reasoner->program()).symbols();
  Term a = symbols.InternConstant("a");
  Term c = symbols.InternConstant("c");
  EXPECT_TRUE(reasoner->IsCertain(query, {a, c}));
  EXPECT_FALSE(reasoner->IsCertain(query, {c, a}));
}

TEST(ReasonerTest, AddFactExtendsDatabase) {
  std::unique_ptr<Reasoner> reasoner = Reasoner::FromText(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b).
    ?(X) :- t(a, X).
  )");
  ASSERT_NE(reasoner, nullptr);
  EXPECT_EQ(reasoner->Answer(0).size(), 1u);
  SymbolTable& symbols =
      const_cast<Program&>(reasoner->program()).symbols();
  reasoner->AddFact(Atom(symbols.FindPredicate("e"),
                         {symbols.InternConstant("b"),
                          symbols.InternConstant("c")}));
  EXPECT_EQ(reasoner->Answer(0).size(), 2u);
}

TEST(ReasonerTest, MultiHeadProgramNormalized) {
  std::unique_ptr<Reasoner> reasoner = Reasoner::FromText(R"(
    a(X, Z), b(Z) :- c(X).
    c(k).
    ?() :- a(X, Y), b(Y).
  )");
  ASSERT_NE(reasoner, nullptr);
  for (const Tgd& tgd : reasoner->program().tgds()) {
    EXPECT_EQ(tgd.head.size(), 1u);
  }
  // The joint witness (same null in a and b) makes the query certain.
  EXPECT_EQ(reasoner->Answer(0).size(), 1u);
}

TEST(ReasonerTest, ChaseBudgetsReportIncompleteAnswers) {
  std::unique_ptr<Reasoner> reasoner = Reasoner::FromText(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, d).
    ?(X) :- t(a, X).
  )");
  ASSERT_NE(reasoner, nullptr);
  const ConjunctiveQuery& query = reasoner->program().queries()[0];
  for (EngineChoice engine : {EngineChoice::kAuto, EngineChoice::kChase}) {
    ReasonerOptions unbudgeted;
    unbudgeted.engine = engine;
    CertainAnswerSet full = reasoner->AnswerChecked(query, unbudgeted);
    EXPECT_TRUE(full.complete);
    ASSERT_EQ(full.answers.size(), 3u);
    for (int budget = 0; budget < 3; ++budget) {
      ReasonerOptions options = unbudgeted;
      if (budget == 0) options.chase.max_steps = 1;
      if (budget == 1) options.chase.max_atoms = 4;
      if (budget == 2) options.chase.max_depth = 1;
      CertainAnswerSet cut = reasoner->AnswerChecked(query, options);
      EXPECT_FALSE(cut.complete) << "budget " << budget;
      EXPECT_LT(cut.answers.size(), full.answers.size()) << "budget " << budget;
    }
  }
}

constexpr const char* kTwoQueries = R"(
  t(X, Y) :- e(X, Y).
  t(X, Z) :- e(X, Y), t(Y, Z).
  e(a, b). e(b, c).
  ?(X) :- t(a, X).
  ?(X, Y) :- t(X, Y).
)";
// Stratified negation: the Datalog fixpoint serves every engine.
constexpr const char* kTwoNegationQueries = R"(
  q(a). r(a). q(b).
  p(X) :- q(X), not r(X).
  ?(X) :- p(X).
  ?(X) :- q(X).
)";

TEST(ReasonerTest, PooledMaterializationMatchesAnswerChecked) {
  for (const char* text : {kTwoQueries, kTwoNegationQueries}) {
    std::unique_ptr<Reasoner> reasoner = Reasoner::FromText(text);
    ASSERT_NE(reasoner, nullptr);
    std::vector<CertainAnswerSet> pool =
        reasoner->AnswerAllByMaterialization(reasoner->program().queries());
    ASSERT_EQ(pool.size(), 2u);
    for (int engine = 0; engine < 4; ++engine) {  // every EngineChoice
      ReasonerOptions options;
      options.engine = static_cast<EngineChoice>(engine);
      for (size_t i = 0; i < pool.size(); ++i) {
        CertainAnswerSet one =
            reasoner->AnswerChecked(reasoner->program().queries()[i], options);
        EXPECT_EQ(pool[i].answers, one.answers) << text << " query " << i;
        EXPECT_TRUE(pool[i].complete);
        EXPECT_TRUE(pool[i].error.empty());
      }
    }
    EXPECT_TRUE(reasoner->AnswersByMaterialization(EngineChoice::kAuto));
    EXPECT_EQ(reasoner->AnswersByMaterialization(EngineChoice::kLinearProof),
              reasoner->classification().uses_negation);
  }
}

TEST(ReasonerTest, OutOfRangeQueryIndex) {
  std::unique_ptr<Reasoner> reasoner = Reasoner::FromText("e(a, b).");
  ASSERT_NE(reasoner, nullptr);
  EXPECT_TRUE(reasoner->Answer(3).empty());
}

}  // namespace
}  // namespace vadalog
