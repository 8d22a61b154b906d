// Tests for the certain-answer facade's budget soundness: a search that
// gave up (max_states / max_millis) must never pass its rejections off as
// refutations, so CertainAnswersViaSearchChecked reports completeness —
// and a chase cut short by max_steps / max_atoms / max_depth is not
// chase(D, Σ), so CertainAnswersViaChaseChecked reports it the same way.

#include <gtest/gtest.h>

#include <algorithm>

#include "ast/parser.h"
#include "engine/certain.h"
#include "engine/search_cache.h"

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
  ConjunctiveQuery Query(size_t index = 0) {
    return program.queries()[index];
  }
};

constexpr const char* kChain = R"(
  t(X, Y) :- e(X, Y).
  t(X, Z) :- e(X, Y), t(Y, Z).
  e(a, b). e(b, c). e(c, d).
  ?(X, Y) :- t(X, Y).
)";

TEST(CertainCheckedTest, UnbudgetedSweepIsCompleteAndMatchesChase) {
  TestEnv s(kChain);
  std::vector<std::vector<Term>> via_chase =
      CertainAnswersViaChase(s.program, s.db, s.Query());
  for (bool alternating : {false, true}) {
    CertainAnswerSet checked = CertainAnswersViaSearchChecked(
        s.program, s.db, s.Query(), alternating);
    EXPECT_TRUE(checked.complete);
    EXPECT_EQ(checked.budget_exhausted_candidates, 0u);
    EXPECT_EQ(checked.answers, via_chase);
  }
}

TEST(CertainCheckedTest, StateBudgetExhaustionIsNeverReportedAsDefinitive) {
  TestEnv s(kChain);
  std::vector<std::vector<Term>> full =
      CertainAnswersViaChase(s.program, s.db, s.Query());
  ASSERT_FALSE(full.empty());
  // One expanded state per candidate: every refutation gives up, so the
  // sweep must flag itself incomplete instead of presenting the shrunken
  // answer set as cert(q, D, Σ).
  ProofSearchOptions starved;
  starved.max_states = 1;
  for (bool alternating : {false, true}) {
    CertainAnswerSet checked = CertainAnswersViaSearchChecked(
        s.program, s.db, s.Query(), alternating, starved);
    if (checked.answers != full) {
      EXPECT_FALSE(checked.complete)
          << "a smaller answer set was reported as definitive";
      EXPECT_GT(checked.budget_exhausted_candidates, 0u);
    }
    // Whatever was accepted under the budget must be a real answer.
    for (const std::vector<Term>& row : checked.answers) {
      EXPECT_TRUE(std::find(full.begin(), full.end(), row) != full.end());
    }
  }
}

TEST(CertainCheckedTest, TimeBudgetExhaustionIsNeverReportedAsDefinitive) {
  // The satellite regression: a max_millis=1 run never reports a smaller
  // certain-answer set as definitive. A fast machine may well finish the
  // whole sweep inside the budget — then it must equal the chase exactly;
  // otherwise the incompleteness must be flagged.
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, a). e(c, d). e(d, e). e(e, a).
    ?(X, Y) :- t(X, Y).
  )");
  std::vector<std::vector<Term>> full =
      CertainAnswersViaChase(s.program, s.db, s.Query());
  ProofSearchOptions timed;
  timed.max_millis = 1;
  CertainAnswerSet checked =
      CertainAnswersViaSearchChecked(s.program, s.db, s.Query(), false,
                                     timed);
  if (checked.answers != full) {
    EXPECT_FALSE(checked.complete);
    EXPECT_GT(checked.budget_exhausted_candidates, 0u);
  }
}

/// Runs the chase under `options` for kChain's query and checks that a
/// budget-cut materialization is flagged and its answers are sound.
void ExpectChaseBudgetIsReported(const ChaseOptions& options) {
  TestEnv s(kChain);
  std::vector<std::vector<Term>> full =
      CertainAnswersViaChase(s.program, s.db, s.Query());
  ConjunctiveQuery query = s.Query();
  std::vector<CertainAnswerSet> cut =
      CertainAnswersViaChaseChecked(s.program, s.db, {&query, 1}, options);
  ASSERT_EQ(cut.size(), 1u);
  EXPECT_FALSE(cut[0].complete) << "a budget-cut chase reported definitive";
  EXPECT_TRUE(cut[0].error.empty());
  EXPECT_LT(cut[0].answers.size(), full.size());
  for (const std::vector<Term>& row : cut[0].answers) {
    EXPECT_TRUE(std::find(full.begin(), full.end(), row) != full.end());
  }
}

TEST(CertainCheckedTest, ChaseStepBudgetIsNeverReportedAsDefinitive) {
  ChaseOptions options;
  options.max_steps = 1;
  ExpectChaseBudgetIsReported(options);
}

TEST(CertainCheckedTest, ChaseAtomBudgetIsNeverReportedAsDefinitive) {
  ChaseOptions options;
  options.max_atoms = 4;  // the database holds 3: one derived atom
  ExpectChaseBudgetIsReported(options);
}

TEST(CertainCheckedTest, ChaseDepthBudgetIsNeverReportedAsDefinitive) {
  ChaseOptions options;
  options.max_depth = 1;  // t(a, c) needs depth 2
  ExpectChaseBudgetIsReported(options);
}

TEST(CertainCheckedTest, UnbudgetedChasePoolMatchesOneQueryAtATime) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, d).
    ?(X, Y) :- t(X, Y).
    ?(X) :- t(a, X).
    ?() :- t(d, a).
  )");
  ChaseOptions roomy;
  roomy.max_steps = 1000;  // a budget the chase never reaches
  std::vector<CertainAnswerSet> pool =
      CertainAnswersViaChaseChecked(s.program, s.db, s.program.queries(), roomy);
  ASSERT_EQ(pool.size(), 3u);
  for (size_t i = 0; i < pool.size(); ++i) {
    EXPECT_TRUE(pool[i].complete) << "query " << i;
    EXPECT_EQ(pool[i].answers,
              CertainAnswersViaChase(s.program, s.db, s.Query(i)))
        << "query " << i;
  }
  EXPECT_EQ(pool[0].answers.size(), 6u);
  EXPECT_EQ(pool[1].answers.size(), 3u);
  EXPECT_TRUE(pool[2].answers.empty());
}

TEST(CertainCheckedTest, WrapperKeepsAnswersOnly) {
  TestEnv s(kChain);
  EXPECT_EQ(CertainAnswersViaSearch(s.program, s.db, s.Query()),
            CertainAnswersViaSearchChecked(s.program, s.db, s.Query())
                .answers);
}

}  // namespace
}  // namespace vadalog
