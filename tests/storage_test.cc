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

// Pattern variables with indices far past the flat scratch range are
// renumbered densely: the same pattern over indices 0..k, 2^24.. and
// about 2^40 gives the same matches (keyed by its own variables), seeds
// included, and the scratch does not grow with the indices.
TEST(HomomorphismTest, LargeVariableIndicesMatchLikeSmallOnes) {
  Fixture f;
  f.db.Insert(Atom(f.e, {f.c, f.c}));
  auto run = [&f](uint64_t base, bool seeded) {
    auto v = [base](uint64_t i) { return Term::Variable(base + i); };
    // e(X, Y), e(Y, Z), and e(Z, Z) through a repeated variable.
    std::vector<Atom> pattern = {Atom(f.e, {v(0), v(1)}),
                                 Atom(f.e, {v(1), v(2)}),
                                 Atom(f.e, {v(2), v(2)})};
    Substitution seed;
    if (seeded) seed[v(0)] = f.a;
    std::vector<std::vector<Term>> matches;
    ForEachHomomorphism(pattern, f.db, seed, [&](const Substitution& h) {
      EXPECT_EQ(h.size(), 3u);
      matches.push_back({h.at(v(0)), h.at(v(1)), h.at(v(2))});
      return true;
    });
    std::sort(matches.begin(), matches.end());
    EXPECT_EQ(HasHomomorphism(pattern, f.db), !seeded || !matches.empty());
    // The delta-trigger routine over the same body, against the one new
    // fact e(c, c).
    std::vector<Atom> delta = {Atom(f.e, {f.c, f.c})};
    std::vector<std::vector<Term>> triggers;
    ForEachDeltaTrigger(pattern, delta, f.db, [&](const Substitution& h) {
      triggers.push_back({h.at(v(0)), h.at(v(1)), h.at(v(2))});
      return true;
    });
    std::sort(triggers.begin(), triggers.end());
    return std::make_pair(matches, triggers);
  };
  for (bool seeded : {false, true}) {
    auto small = run(0, seeded);
    EXPECT_FALSE(small.first.empty());
    EXPECT_FALSE(small.second.empty());
    EXPECT_EQ(run(uint64_t{1} << 24, seeded), small) << seeded;
    EXPECT_EQ(run((uint64_t{1} << 40) + 3, seeded), small) << seeded;
  }
}

TEST(HomomorphismTest, NestedMatchingKeepsOuterBindings) {
  // The callback matches again, reusing the outer pattern's variable
  // indices (the linear search simplifies each match-and-drop child from
  // inside its callback): both levels must see correct results.
  Fixture f;
  std::vector<Atom> pattern = {
      Atom(f.e, {Term::Variable(0), Term::Variable(1)})};
  std::vector<std::vector<Term>> seen;
  ForEachHomomorphism(pattern, f.db, {}, [&](const Substitution& h) {
    Term x = h.at(Term::Variable(0));
    Term y = h.at(Term::Variable(1));
    // Does y have a successor? Only b does.
    std::vector<Atom> next = {Atom(f.e, {y, Term::Variable(0)})};
    EXPECT_EQ(HasHomomorphism(next, f.db), y == f.b);
    int inner = 0;
    ForEachHomomorphism(next, f.db, {}, [&](const Substitution& g) {
      EXPECT_EQ(g.at(Term::Variable(0)), f.c);
      ++inner;
      return true;
    });
    EXPECT_EQ(inner, y == f.b ? 1 : 0);
    EXPECT_EQ(h.at(Term::Variable(0)), x);
    EXPECT_EQ(h.at(Term::Variable(1)), y);
    seen.push_back({x, y});
    return true;
  });
  std::sort(seen.begin(), seen.end());
  std::vector<std::vector<Term>> expected = {{f.a, f.b}, {f.a, f.c},
                                             {f.b, f.c}};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(seen, expected);
}

/// A match as sorted (term, image) pairs.
using Match = std::vector<std::pair<Term, Term>>;

Match Flatten(const Substitution& h) {
  Match match(h.begin(), h.end());
  std::sort(match.begin(), match.end());
  return match;
}

/// Reference enumeration: every combination of one fact per pattern atom,
/// no index and no join order, keeping the combinations that agree with
/// `h` (the seed, extended atom by atom).
void NaiveMatches(const std::vector<Atom>& pattern,
                  const std::vector<Atom>& facts, size_t i, Substitution h,
                  std::vector<Match>* out) {
  if (i == pattern.size()) {
    out->push_back(Flatten(h));
    return;
  }
  const Atom& atom = pattern[i];
  for (const Atom& fact : facts) {
    if (fact.predicate != atom.predicate) continue;
    Substitution next = h;
    bool ok = true;
    for (size_t k = 0; k < atom.args.size() && ok; ++k) {
      Term image = atom.args[k];
      if (image.is_variable()) {
        image = next.try_emplace(image, fact.args[k]).first->second;
      }
      ok = image == fact.args[k];
    }
    if (ok) NaiveMatches(pattern, facts, i + 1, std::move(next), out);
  }
}

TEST(HomomorphismTest, MatcherAgreesWithNaiveEnumeration) {
  // Differential check of the matcher against the naive reference:
  // random patterns over random instances, with repeated variables,
  // constants, (rigid) nulls in the pattern, a predicate that has no
  // relation, and variable indices past 4096. ForEachHomomorphism must
  // deliver exactly the reference's matches (as a multiset), with and
  // without a seed, and HasHomomorphism must say whether there is one.
  // Predicates 0..3 get facts; predicate 4 never has a relation.
  constexpr PredicateId kNoRelation = 4;
  const uint32_t arity[] = {1, 2, 2, 3, 2};
  Rng rng(20261017);
  auto rigid = [&rng]() {
    return rng.Chance(0.2) ? Term::Null(rng.Below(2))
                           : Term::Constant(rng.Below(4));
  };
  int matched = 0, unmatched = 0, seeded = 0;
  for (int round = 0; round < 150; ++round) {
    Instance db;
    size_t facts = rng.Below(20);
    for (size_t i = 0; i < facts; ++i) {
      PredicateId p = static_cast<PredicateId>(rng.Below(kNoRelation));
      std::vector<Term> args;
      for (uint32_t k = 0; k < arity[p]; ++k) args.push_back(rigid());
      db.Insert(Atom(p, std::move(args)));
    }
    std::vector<Atom> all_facts = db.AllAtoms();
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
      // Seeds bind a pattern variable, or one the pattern lacks.
      Substitution seed;
      if (rng.Chance(0.5)) {
        Term v = pattern[0].args[0];
        seed.emplace(v.is_variable() ? v : Term::Variable(9), rigid());
        ++seeded;
      }

      std::vector<Match> expected;
      NaiveMatches(pattern, all_facts, 0, seed, &expected);
      std::sort(expected.begin(), expected.end());
      std::vector<Match> actual;
      ForEachHomomorphism(pattern, db, seed, [&actual](const Substitution& h) {
        actual.push_back(Flatten(h));
        return true;
      });
      std::sort(actual.begin(), actual.end());
      EXPECT_EQ(actual, expected) << "round " << round << " trial " << trial;

      if (seed.empty()) {
        EXPECT_EQ(HasHomomorphism(pattern, db), !expected.empty())
            << "round " << round << " trial " << trial;
        ++(expected.empty() ? unmatched : matched);
      }
    }
  }
  // Both outcomes, and seeds, must be well represented for the check to
  // mean much.
  EXPECT_GT(matched, 150);
  EXPECT_GT(unmatched, 150);
  EXPECT_GT(seeded, 1000);
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
