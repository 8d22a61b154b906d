// Tests for the one bottom-up join routine, ForEachDeltaTrigger
// (storage/homomorphism.h): its delivery order, early stop and match
// count, and the agreement of its two drivers — RunChase and the delta
// rounds of EvaluateDatalog. (The ctest entry keeps the name
// `pipeline_test`.)

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ast/parser.h"
#include "chase/chase.h"
#include "datalog/seminaive.h"
#include "storage/homomorphism.h"

namespace vadalog {
namespace {

struct TestEnv {
  Program program;
  Instance db;

  explicit TestEnv(const char* text) {
    ParseResult parsed = ParseProgram(text);
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    program = std::move(*parsed.program);
    db = DatabaseFromFacts(program.facts());
  }

  Atom Fact(const char* pred, std::vector<const char*> args) {
    std::vector<Term> terms;
    for (const char* a : args) {
      terms.push_back(program.symbols().InternConstant(a));
    }
    return Atom(program.symbols().FindPredicate(pred), std::move(terms));
  }

  /// The image of `atoms` under `h`, rendered as text.
  std::string Render(const Substitution& h, const std::vector<Atom>& atoms) {
    return AtomsToString(ApplySubstitution(h, atoms), program.symbols());
  }
};

std::set<std::vector<Term>> Tuples(const Instance& instance, PredicateId p) {
  std::set<std::vector<Term>> tuples;
  const Relation* rel = instance.RelationFor(p);
  for (size_t row = 0; rel != nullptr && row < rel->size(); ++row) {
    tuples.insert(rel->TupleAt(row));
  }
  return tuples;
}

// Anchors run in body order; within an anchor, delta atoms in delta order
// (not instance order). A match touching two delta atoms comes once per
// anchor it can be bound at.
TEST(DeltaTriggerTest, DeliversTriggersInAnchorThenDeltaOrder) {
  TestEnv s(R"(
    p(X, Z) :- e(X, Y), e(Y, Z).
    e(a, b). e(b, c). e(c, d).
  )");
  const std::vector<Atom>& body = s.program.tgds()[0].body;
  std::vector<Atom> delta = {s.Fact("e", {"b", "c"}),
                             s.Fact("e", {"a", "b"})};
  std::vector<std::string> delivered;
  uint64_t matches =
      ForEachDeltaTrigger(body, delta, s.db, [&](const Substitution& h) {
        delivered.push_back(s.Render(h, body));
        return true;
      });
  EXPECT_EQ(delivered, (std::vector<std::string>{
                           "e(b, c), e(c, d)",  // anchor 0 on e(b, c)
                           "e(a, b), e(b, c)",  // anchor 0 on e(a, b)
                           "e(a, b), e(b, c)",  // anchor 1 on e(b, c)
                       }));
  EXPECT_EQ(matches, 3u);
}

TEST(DeltaTriggerTest, FalseFromApplyStops) {
  TestEnv s(R"(
    p(X, Z) :- e(X, Y), e(Y, Z).
    e(a, b). e(b, c). e(c, d).
  )");
  const std::vector<Atom>& body = s.program.tgds()[0].body;
  std::vector<Atom> delta = {s.Fact("e", {"a", "b"}), s.Fact("e", {"b", "c"}),
                             s.Fact("e", {"c", "d"})};
  auto count_until = [&](size_t stop_at, size_t* calls) {
    return ForEachDeltaTrigger(body, delta, s.db, [&](const Substitution&) {
      return ++*calls < stop_at;
    });
  };
  size_t calls = 0;
  // Anchor 0 finds one match on e(a, b) and one on e(b, c); anchor 1 one
  // on e(b, c) and one on e(c, d).
  EXPECT_EQ(count_until(100, &calls), 4u);
  EXPECT_EQ(calls, 4u);
  calls = 0;
  // Stopping at the e(b, c) match of anchor 0 enumerates nothing after it.
  EXPECT_EQ(count_until(2, &calls), 2u);
  EXPECT_EQ(calls, 2u);
}

// A self-join over the whole instance as delta: pairs of edges that
// share a source. The five full matches — (b,b), (b,c), (c,b), (c,c) out
// of a and (c,c) out of b — are each found once per anchor, and the f
// atom anchors nothing.
TEST(DeltaTriggerTest, MatchCountIsExactOnSelfJoin) {
  TestEnv s(R"(
    p(Y, Z) :- e(X, Y), e(X, Z).
    e(a, b). e(a, c). e(b, c). f(a).
  )");
  const std::vector<Atom>& body = s.program.tgds()[0].body;
  std::vector<Atom> delta = s.db.AllAtoms();
  std::multiset<std::string> delivered;
  uint64_t matches =
      ForEachDeltaTrigger(body, delta, s.db, [&](const Substitution& h) {
        delivered.insert(s.Render(h, body));
        return true;
      });
  EXPECT_EQ(matches, 10u);
  EXPECT_EQ(delivered, (std::multiset<std::string>{
                           "e(a, b), e(a, b)", "e(a, b), e(a, b)",
                           "e(a, b), e(a, c)", "e(a, b), e(a, c)",
                           "e(a, c), e(a, b)", "e(a, c), e(a, b)",
                           "e(a, c), e(a, c)", "e(a, c), e(a, c)",
                           "e(b, c), e(b, c)", "e(b, c), e(b, c)"}));
}

TEST(DeltaTriggerTest, ChaseAndDatalogAgreeOnTransitiveClosure) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, a). e(c, d).
  )");
  ChaseResult chase = RunChase(s.program, s.db);
  DatalogResult datalog = EvaluateDatalog(s.program, s.db);
  ASSERT_TRUE(chase.Saturated());
  ASSERT_TRUE(datalog.reached_fixpoint);
  PredicateId t = s.program.symbols().FindPredicate("t");
  EXPECT_EQ(Tuples(chase.instance, t), Tuples(datalog.instance, t));
  EXPECT_EQ(Tuples(datalog.instance, t).size(), 12u);  // {a,b,c} x {a,b,c,d}
  EXPECT_EQ(chase.instance.size(), datalog.instance.size());
  EXPECT_GT(datalog.triggers, 0u);
}

TEST(DeltaTriggerTest, ChaseRefusesNegationThatDatalogServes) {
  TestEnv s(R"(
    reach(X, Y) :- edge(X, Y).
    reach(X, Z) :- reach(X, Y), edge(Y, Z).
    unreachable(X, Y) :- node(X), node(Y), not reach(X, Y).
    edge(a, b). edge(b, c).
    node(a). node(b). node(c).
  )");
  ChaseResult chase = RunChase(s.program, s.db);
  EXPECT_EQ(chase.stop_reason, ChaseStopReason::kUnsupported);
  EXPECT_TRUE(chase.instance.empty());

  DatalogResult datalog = EvaluateDatalog(s.program, s.db);
  ASSERT_TRUE(datalog.reached_fixpoint);
  PredicateId unreachable = s.program.symbols().FindPredicate("unreachable");
  // reach = {ab, bc, ac}; the other 6 of the 9 node pairs are unreachable.
  std::set<std::vector<Term>> expected;
  for (auto [x, y] : std::vector<std::pair<const char*, const char*>>{
           {"a", "a"}, {"b", "a"}, {"b", "b"},
           {"c", "a"}, {"c", "b"}, {"c", "c"}}) {
    expected.insert(s.Fact("unreachable", {x, y}).args);
  }
  EXPECT_EQ(Tuples(datalog.instance, unreachable), expected);
}

}  // namespace
}  // namespace vadalog
