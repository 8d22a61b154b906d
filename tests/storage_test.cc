// Tests for instances, relations, and homomorphism / CQ evaluation.

#include <gtest/gtest.h>

#include <algorithm>

#include "ast/parser.h"
#include "base/rng.h"
#include "storage/homomorphism.h"
#include "storage/instance.h"

namespace vadalog {
namespace {

struct Fixture {
  Program program;
  Instance db;
  PredicateId e;
  Term a, b, c;

  Fixture() {
    ParseResult parsed = ParseProgram(R"(
      e(a, b).
      e(b, c).
      e(a, c).
    )");
    program = std::move(*parsed.program);
    db = DatabaseFromFacts(program.facts());
    e = program.symbols().FindPredicate("e");
    a = program.symbols().InternConstant("a");
    b = program.symbols().InternConstant("b");
    c = program.symbols().InternConstant("c");
  }
};

TEST(InstanceTest, InsertDeduplicates) {
  Fixture f;
  EXPECT_EQ(f.db.size(), 3u);
  EXPECT_FALSE(f.db.Insert(Atom(f.e, {f.a, f.b})));
  EXPECT_EQ(f.db.size(), 3u);
  EXPECT_TRUE(f.db.Insert(Atom(f.e, {f.c, f.a})));
  EXPECT_EQ(f.db.size(), 4u);
}

TEST(InstanceTest, ContainsAndRelation) {
  Fixture f;
  EXPECT_TRUE(f.db.Contains(Atom(f.e, {f.a, f.b})));
  EXPECT_FALSE(f.db.Contains(Atom(f.e, {f.b, f.a})));
  const Relation* rel = f.db.RelationFor(f.e);
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(rel->size(), 3u);
  EXPECT_EQ(rel->arity(), 2u);
}

TEST(InstanceTest, PositionalIndex) {
  Fixture f;
  const Relation* rel = f.db.RelationFor(f.e);
  EXPECT_EQ(rel->RowsWith(0, f.a).size(), 2u);  // e(a,b), e(a,c)
  EXPECT_EQ(rel->RowsWith(1, f.c).size(), 2u);  // e(b,c), e(a,c)
  EXPECT_TRUE(rel->RowsWith(0, f.c).empty());
}

TEST(InstanceTest, ActiveDomainAndAtoms) {
  Fixture f;
  EXPECT_EQ(f.db.ActiveDomain().size(), 3u);
  EXPECT_EQ(f.db.AllAtoms().size(), 3u);
  EXPECT_EQ(f.db.Predicates().size(), 1u);
}

TEST(InstanceTest, NullTrackingAndDrop) {
  Fixture f;
  f.db.Insert(Atom(f.e, {f.a, Term::Null(5)}));
  EXPECT_EQ(f.db.MaxNullIndex(), 6u);
  size_t before = f.db.size();
  f.db.DropRelation(f.e);
  EXPECT_EQ(f.db.size(), before - 4);
  EXPECT_EQ(f.db.RelationFor(f.e), nullptr);
}

TEST(HomomorphismTest, EnumeratesAllMatches) {
  Fixture f;
  // e(X, Y): three homomorphisms.
  std::vector<Atom> pattern = {
      Atom(f.e, {Term::Variable(0), Term::Variable(1)})};
  int count = 0;
  ForEachHomomorphism(pattern, f.db, {}, [&](const Substitution&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 3);
}

TEST(HomomorphismTest, JoinThroughSharedVariable) {
  Fixture f;
  // e(X, Y), e(Y, Z): only a→b→c.
  std::vector<Atom> pattern = {
      Atom(f.e, {Term::Variable(0), Term::Variable(1)}),
      Atom(f.e, {Term::Variable(1), Term::Variable(2)})};
  std::vector<std::vector<Term>> results;
  ForEachHomomorphism(pattern, f.db, {}, [&](const Substitution& h) {
    results.push_back({h.at(Term::Variable(0)), h.at(Term::Variable(1)),
                       h.at(Term::Variable(2))});
    return true;
  });
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], (std::vector<Term>{f.a, f.b, f.c}));
}

TEST(HomomorphismTest, RepeatedVariableInAtom) {
  Fixture f;
  f.db.Insert(Atom(f.e, {f.b, f.b}));
  std::vector<Atom> pattern = {
      Atom(f.e, {Term::Variable(0), Term::Variable(0)})};
  int count = 0;
  ForEachHomomorphism(pattern, f.db, {}, [&](const Substitution& h) {
    EXPECT_EQ(h.at(Term::Variable(0)), f.b);
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1);
}

TEST(HomomorphismTest, SeedConstrainsMatches) {
  Fixture f;
  std::vector<Atom> pattern = {
      Atom(f.e, {Term::Variable(0), Term::Variable(1)})};
  Substitution seed = {{Term::Variable(0), f.b}};
  int count = 0;
  ForEachHomomorphism(pattern, f.db, seed, [&](const Substitution&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1);  // only e(b, c)
}

TEST(HomomorphismTest, EarlyStopRespected) {
  Fixture f;
  std::vector<Atom> pattern = {
      Atom(f.e, {Term::Variable(0), Term::Variable(1)})};
  int count = 0;
  bool completed =
      ForEachHomomorphism(pattern, f.db, {}, [&](const Substitution&) {
        ++count;
        return false;
      });
  EXPECT_EQ(count, 1);
  EXPECT_FALSE(completed);
  EXPECT_TRUE(HasHomomorphism(pattern, f.db));
}

TEST(HomomorphismTest, EmptyPatternHasIdentityMatch) {
  Fixture f;
  EXPECT_TRUE(HasHomomorphism({}, f.db));
}

TEST(HomomorphismTest, MissingPredicateHasNoMatch) {
  Fixture f;
  PredicateId ghost = f.program.symbols().InternPredicate("ghost", 1);
  EXPECT_FALSE(HasHomomorphism(
      std::vector<Atom>{Atom(ghost, {Term::Variable(0)})}, f.db));
}

TEST(HomomorphismTest, FlatMatcherAgreesWithEnumeration) {
  // Differential check of HasHomomorphism's flat matcher against the
  // enumerating reference: random patterns over random instances, with
  // repeated variables, constants, (rigid) nulls in the pattern, a
  // predicate that has no relation, and variable indices past 4096.
  // Predicates 0..3 get facts; predicate 4 never has a relation.
  constexpr PredicateId kNoRelation = 4;
  const uint32_t arity[] = {1, 2, 2, 3, 2};
  Rng rng(20261017);
  auto rigid = [&rng]() {
    return rng.Chance(0.2) ? Term::Null(rng.Below(2))
                           : Term::Constant(rng.Below(4));
  };
  int matched = 0, unmatched = 0;
  for (int round = 0; round < 150; ++round) {
    Instance db;
    size_t facts = rng.Below(20);
    for (size_t i = 0; i < facts; ++i) {
      PredicateId p = static_cast<PredicateId>(rng.Below(kNoRelation));
      std::vector<Term> args;
      for (uint32_t k = 0; k < arity[p]; ++k) args.push_back(rigid());
      db.Insert(Atom(p, std::move(args)));
    }
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<Atom> pattern;
      size_t n = 1 + rng.Below(4);
      for (size_t i = 0; i < n; ++i) {
        PredicateId p = rng.Chance(0.05)
                            ? kNoRelation
                            : static_cast<PredicateId>(rng.Below(kNoRelation));
        std::vector<Term> args;
        for (uint32_t k = 0; k < arity[p]; ++k) {
          if (rng.Chance(0.25)) {
            args.push_back(rigid());
          } else {
            uint64_t v = rng.Below(4);
            args.push_back(Term::Variable(rng.Chance(0.2) ? 5000 + v : v));
          }
        }
        pattern.push_back(Atom(p, std::move(args)));
      }
      bool expected = false;
      ForEachHomomorphism(pattern, db, {}, [&expected](const Substitution&) {
        expected = true;
        return false;
      });
      EXPECT_EQ(HasHomomorphism(pattern, db), expected)
          << "round " << round << " trial " << trial;
      ++(expected ? matched : unmatched);
    }
  }
  // Both outcomes must be well represented for the check to mean much.
  EXPECT_GT(matched, 300);
  EXPECT_GT(unmatched, 300);
}

TEST(QueryEvalTest, OutputProjection) {
  Fixture f;
  ConjunctiveQuery q;
  q.output = {Term::Variable(0)};
  q.atoms = {Atom(f.e, {Term::Variable(0), Term::Variable(1)})};
  std::vector<std::vector<Term>> result = EvaluateQuerySorted(q, f.db);
  // Sources: a (twice, deduplicated) and b.
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0][0], f.a);
  EXPECT_EQ(result[1][0], f.b);
}

TEST(QueryEvalTest, CertainOnlyFiltersNulls) {
  Fixture f;
  f.db.Insert(Atom(f.e, {f.c, Term::Null(0)}));
  ConjunctiveQuery q;
  q.output = {Term::Variable(1)};
  q.atoms = {Atom(f.e, {f.c, Term::Variable(1)})};
  EXPECT_TRUE(EvaluateQuerySorted(q, f.db, /*certain_only=*/true).empty());
  EXPECT_EQ(EvaluateQuerySorted(q, f.db, /*certain_only=*/false).size(), 1u);
}

TEST(QueryEvalTest, BooleanQuery) {
  Fixture f;
  ConjunctiveQuery q;
  q.atoms = {Atom(f.e, {Term::Variable(0), Term::Variable(1)})};
  std::vector<std::vector<Term>> result = EvaluateQuerySorted(q, f.db);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_TRUE(result[0].empty());
}

TEST(QueryEvalTest, ConstantInQueryAtom) {
  Fixture f;
  ConjunctiveQuery q;
  q.output = {Term::Variable(0)};
  q.atoms = {Atom(f.e, {f.a, Term::Variable(0)})};
  std::vector<std::vector<Term>> result = EvaluateQuerySorted(q, f.db);
  ASSERT_EQ(result.size(), 2u);  // b and c
}

}  // namespace
}  // namespace vadalog
