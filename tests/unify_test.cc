// Tests for unification and chunk-based resolution (Definition 4.3),
// including the paper's canonical unsound-step example.

#include <gtest/gtest.h>

#include <algorithm>

#include "ast/parser.h"
#include "base/rng.h"
#include "engine/resolution.h"
#include "engine/search_cache.h"
#include "engine/state.h"
#include "engine/unify.h"
#include "storage/homomorphism.h"
#include "storage/instance.h"

namespace vadalog {
namespace {

TEST(UnifierTest, BindsVariableToConstant) {
  Unifier u;
  EXPECT_TRUE(u.Unify(Term::Variable(0), Term::Constant(3)));
  EXPECT_EQ(u.Resolve(Term::Variable(0)), Term::Constant(3));
}

TEST(UnifierTest, RigidClashFails) {
  Unifier u;
  EXPECT_FALSE(u.Unify(Term::Constant(1), Term::Constant(2)));
  EXPECT_FALSE(u.Unify(Term::Constant(1), Term::Null(1)));
}

TEST(UnifierTest, TransitiveChainsResolve) {
  Unifier u;
  EXPECT_TRUE(u.Unify(Term::Variable(0), Term::Variable(1)));
  EXPECT_TRUE(u.Unify(Term::Variable(1), Term::Variable(2)));
  EXPECT_TRUE(u.Unify(Term::Variable(2), Term::Constant(9)));
  EXPECT_EQ(u.Resolve(Term::Variable(0)), Term::Constant(9));
  EXPECT_EQ(u.Resolve(Term::Variable(1)), Term::Constant(9));
  EXPECT_EQ(u.Resolve(Term::Variable(2)), Term::Constant(9));
}

// The class walk that validates existential variables: every member of
// t's class once, bound or not, and nothing outside it.
TEST(UnifierTest, ClassOfTracksEquivalence) {
  Unifier u;
  u.Unify(Term::Variable(0), Term::Variable(1));
  u.Unify(Term::Variable(1), Term::Variable(2));
  u.Unify(Term::Variable(5), Term::Constant(7));
  auto members = [&u](Term t) {
    std::vector<Term> cls;
    u.ForEachInClass(t, [&cls](Term y) {
      cls.push_back(y);
      return true;
    });
    std::sort(cls.begin(), cls.end());
    return cls;
  };
  std::vector<Term> chain = {Term::Variable(0), Term::Variable(1),
                             Term::Variable(2)};
  EXPECT_EQ(members(Term::Variable(0)), chain);
  EXPECT_EQ(members(Term::Variable(2)), chain);  // the unbound root
  EXPECT_EQ(members(Term::Variable(5)), std::vector<Term>{Term::Variable(5)});
  EXPECT_EQ(members(Term::Variable(9)), std::vector<Term>{Term::Variable(9)});
  // The walk stops as soon as the visitor does.
  size_t visits = 0;
  EXPECT_FALSE(u.ForEachInClass(Term::Variable(0), [&visits](Term) {
    ++visits;
    return false;
  }));
  EXPECT_EQ(visits, 1u);
  // Rewinding unbinds in LIFO order and splits the class again.
  u.Rewind(1);
  EXPECT_EQ(members(Term::Variable(0)),
            (std::vector<Term>{Term::Variable(0), Term::Variable(1)}));
  EXPECT_EQ(u.Resolve(Term::Variable(5)), Term::Variable(5));
}

// Variable indices far past the flat array's cap bind in the side list:
// the same atoms over indices 0..k and over 2^24.. or 2^40.. unify to the
// same bindings, up to the renaming.
TEST(UnifierTest, LargeVariableIndicesUnifyLikeSmallOnes) {
  for (uint64_t base : {uint64_t{0}, uint64_t{1} << 24,
                        (uint64_t{1} << 40) + 3}) {
    auto v = [base](uint64_t i) { return Term::Variable(base + i); };
    Unifier u;
    // p(X0, X1, X1, c5) = p(X2, X2, X3, X3): all four collapse onto c5.
    Atom lhs(0, {v(0), v(1), v(1), Term::Constant(5)});
    Atom rhs(0, {v(2), v(2), v(3), v(3)});
    ASSERT_TRUE(u.UnifyAtoms(lhs, rhs)) << base;
    for (uint64_t i = 0; i < 4; ++i) {
      EXPECT_EQ(u.Resolve(v(i)), Term::Constant(5)) << base << " " << i;
    }
    size_t members = 0;
    u.ForEachInClass(v(0), [&members](Term) {
      ++members;
      return true;
    });
    EXPECT_EQ(members, 4u) << base;
    // q(X0, X4) against q(c1, c2) after undoing everything: the offset
    // form reads the second atom's variables shifted past the first's.
    u.Rewind(0);
    Atom pattern(1, {v(0), v(4)});
    Atom rule(1, {Term::Variable(0), Term::Variable(0)});
    ASSERT_TRUE(u.UnifyAtoms(pattern, rule, base + 10)) << base;
    EXPECT_EQ(u.Resolve(v(0)), u.Resolve(v(4))) << base;
    EXPECT_EQ(u.Resolve(Term::Variable(base + 10)), u.Resolve(v(0))) << base;
    EXPECT_FALSE(u.UnifyAtoms(Atom(1, {v(0), Term::Constant(1)}),
                              Atom(1, {Term::Constant(2), v(0)})))
        << base;
  }
}

TEST(UnifierTest, AtomUnification) {
  // R(x, a) and R(b, y) unify with x→b, y→a.
  Atom lhs(0, {Term::Variable(0), Term::Constant(10)});
  Atom rhs(0, {Term::Constant(11), Term::Variable(1)});
  Unifier u;
  ASSERT_TRUE(u.UnifyAtoms(lhs, rhs));
  EXPECT_EQ(u.Resolve(Term::Variable(0)), Term::Constant(11));
  EXPECT_EQ(u.Resolve(Term::Variable(1)), Term::Constant(10));
}

TEST(UnifierTest, PredicateMismatchFails) {
  Atom lhs(0, {Term::Variable(0)});
  Atom rhs(1, {Term::Variable(1)});
  Unifier u;
  EXPECT_FALSE(u.UnifyAtoms(lhs, rhs));
}

struct ResolutionFixture {
  Program program;

  explicit ResolutionFixture(const char* text) {
    ParseResult parsed = ParseProgram(text);
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    program = std::move(*parsed.program);
  }

  std::vector<Atom> QueryAtoms(const char* query_text) {
    std::string err = ParseInto(query_text, &program);
    EXPECT_TRUE(err.empty()) << err;
    std::vector<Atom> atoms = program.queries().back().atoms;
    return atoms;
  }
};

TEST(ResolutionTest, PaperUnsoundExampleRejected) {
  // Section 4.1: Q(x) ← R(x,y), S(y) must NOT resolve R(x,y) alone with
  // P(x') → ∃y' R(x',y'), because the shared variable y would be lost.
  ResolutionFixture f("r(X2, Y2) :- p(X2).");
  std::vector<Atom> state = f.QueryAtoms("?(X) :- r(X, Y), s(Y).");
  std::vector<Resolvent> resolvents =
      ResolveWithTgd(state, f.program, 0, 100, 4);
  EXPECT_TRUE(resolvents.empty());
}

TEST(ResolutionTest, PaperSoundExampleAccepted) {
  // With σ = P(x') → ∃y' R(x',y'), S(y'), the chunk {R(x,y), S(y)}
  // resolves as a whole. After single-head normalization the same effect
  // is achieved through the auxiliary predicate in two steps; here we
  // verify the single-atom chunk against the normalized aux rules.
  ResolutionFixture f("r(X2, Y2), s(Y2) :- p(X2).");
  std::unordered_set<PredicateId> aux;
  NormalizeToSingleHead(&f.program, &aux);
  std::vector<Atom> state = f.QueryAtoms("?(X) :- r(X, Y), s(Y).");
  // Resolve s(Y) with Aux → s rule, then r with Aux → r rule; after both,
  // the state should consist of Aux atoms only, eventually resolvable to
  // p. Here we check the first step succeeds.
  bool any = false;
  for (size_t i = 0; i < f.program.tgds().size(); ++i) {
    std::vector<Resolvent> rs = ResolveWithTgd(state, f.program, i, 100, 4);
    any = any || !rs.empty();
  }
  EXPECT_TRUE(any);
}

TEST(ResolutionTest, SingleAtomResolution) {
  ResolutionFixture f("t(X2, Z2) :- e(X2, Y2), t(Y2, Z2).");
  std::vector<Atom> state = f.QueryAtoms("?(X) :- t(X, W).");
  std::vector<Resolvent> resolvents =
      ResolveWithTgd(state, f.program, 0, 100, 4);
  ASSERT_EQ(resolvents.size(), 1u);
  EXPECT_EQ(resolvents[0].atoms.size(), 2u);  // e and t
  EXPECT_EQ(resolvents[0].chunk.size(), 1u);
}

TEST(ResolutionTest, ConstantInStatePropagates) {
  ResolutionFixture f("t(X2, Z2) :- e(X2, Y2), t(Y2, Z2).");
  // Freeze the first output to a constant.
  Term a = f.program.symbols().InternConstant("a");
  PredicateId t = f.program.symbols().FindPredicate("t");
  std::vector<Atom> state = {Atom(t, {a, Term::Variable(0)})};
  std::vector<Resolvent> resolvents =
      ResolveWithTgd(state, f.program, 0, 100, 4);
  ASSERT_EQ(resolvents.size(), 1u);
  // The e-atom inherits the constant a in first position.
  bool found = false;
  for (const Atom& atom : resolvents[0].atoms) {
    if (f.program.symbols().PredicateName(atom.predicate) == "e" &&
        atom.args[0] == a) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ResolutionTest, ExistentialCannotMeetConstant) {
  // σ = p(X2) → ∃Z2 r(X2, Z2); query atom r(X, a): γ(Z2) = a violates
  // condition (1) of the chunk unifier.
  ResolutionFixture f("r(X2, Z2) :- p(X2).");
  Term a = f.program.symbols().InternConstant("a");
  PredicateId r = f.program.symbols().FindPredicate("r");
  std::vector<Atom> state = {Atom(r, {Term::Variable(0), a})};
  EXPECT_TRUE(ResolveWithTgd(state, f.program, 0, 100, 4).empty());
}

TEST(ResolutionTest, ExistentialUnifiableWithLocalVariable) {
  // Query atom r(X, Y) with Y occurring nowhere else: resolvable.
  ResolutionFixture f("r(X2, Z2) :- p(X2).");
  PredicateId r = f.program.symbols().FindPredicate("r");
  std::vector<Atom> state = {Atom(r, {Term::Variable(0), Term::Variable(1)})};
  std::vector<Resolvent> resolvents =
      ResolveWithTgd(state, f.program, 0, 100, 4);
  ASSERT_EQ(resolvents.size(), 1u);
  EXPECT_EQ(resolvents[0].atoms.size(), 1u);  // p(X)
}

TEST(ResolutionTest, TwoExistentialsCannotMerge) {
  // σ = p(X2) → ∃Z2 ∃W2 r(Z2, W2); query atom r(U, U) forces the two
  // existentials together — unsound, must be rejected.
  ResolutionFixture f("r(Z2, W2) :- p(X2).");
  PredicateId r = f.program.symbols().FindPredicate("r");
  std::vector<Atom> state = {Atom(r, {Term::Variable(0), Term::Variable(0)})};
  EXPECT_TRUE(ResolveWithTgd(state, f.program, 0, 100, 4).empty());
}

TEST(ResolutionTest, MultiAtomChunkSamePredicate) {
  // Two query atoms over r can unify into one head atom when consistent.
  ResolutionFixture f("r(X2, Z2) :- p(X2).");
  PredicateId r = f.program.symbols().FindPredicate("r");
  std::vector<Atom> state = {
      Atom(r, {Term::Variable(0), Term::Variable(1)}),
      Atom(r, {Term::Variable(0), Term::Variable(2)})};
  std::vector<Resolvent> resolvents =
      ResolveWithTgd(state, f.program, 0, 100, 4);
  // Expected chunks include the pair {atom0, atom1}: the second arguments
  // merge into the existential, both occurring only inside the chunk.
  bool has_pair_chunk = false;
  for (const Resolvent& res : resolvents) {
    if (res.chunk.size() == 2) has_pair_chunk = true;
  }
  EXPECT_TRUE(has_pair_chunk);
}

TEST(ResolutionTest, ResolveAllCoversAllRules) {
  ResolutionFixture f(R"(
    t(X2, Y2) :- e(X2, Y2).
    t(X2, Z2) :- e(X2, Y2), t(Y2, Z2).
  )");
  std::vector<Atom> state = f.QueryAtoms("?(X) :- t(X, W).");
  std::vector<Resolvent> resolvents = ResolveAll(state, f.program, 100, 4);
  EXPECT_EQ(resolvents.size(), 2u);
}

// The proof searches' resolution is dead-first: it returns exactly the
// unfiltered resolvents StateIsDead accepts, in the same order with the
// same chunks, and reports the rest as dropped.
TEST(ResolutionTest, DeadFirstFilterDropsExactlyTheDeadResolvents) {
  ResolutionFixture f(R"(
    subclassStar(X, Y) :- subclass(X, Y).
    subclassStar(X, Z) :- subclassStar(X, Y), subclass(Y, Z).
    type(X, Z) :- type(X, Y), subclassStar(Y, Z).
    triple(X, Z, W) :- type(X, Y), restriction(Y, Z).
    type(X, W) :- triple(X, Y, Z), restriction(W, Y).
    subclass(cat, mammal). subclass(mammal, animal).
    type(tom, cat). restriction(hunter, hunts). type(tom, hunter).
  )");
  NormalizeToSingleHead(&f.program, nullptr);
  Instance db = DatabaseFromFacts(f.program.facts());
  ProgramIndex index(f.program, db);
  SymbolTable& symbols = f.program.symbols();
  Term tom = symbols.InternConstant("tom");
  Term animal = symbols.InternConstant("animal");
  Term hunts = symbols.InternConstant("hunts");
  PredicateId type = symbols.FindPredicate("type");
  PredicateId triple = symbols.FindPredicate("triple");
  PredicateId star = symbols.FindPredicate("subclassStar");
  std::vector<std::vector<Atom>> states = {
      {Atom(type, {tom, animal})},
      {Atom(type, {tom, hunts})},
      {Atom(type, {Term::Variable(0), animal}),
       Atom(triple, {Term::Variable(0), hunts, Term::Variable(1)})},
      {Atom(star, {Term::Variable(0), animal}),
       Atom(type, {tom, Term::Variable(0)})},
  };
  size_t total_dropped = 0;
  size_t total_kept = 0;
  for (size_t s = 0; s < states.size(); ++s) {
    const std::vector<Atom>& state = states[s];
    for (size_t tgd = 0; tgd < f.program.tgds().size(); ++tgd) {
      for (size_t anchor = 0; anchor < state.size(); ++anchor) {
        SCOPED_TRACE(testing::Message() << "state " << s << " tgd " << tgd
                                        << " anchor " << anchor);
        std::vector<Resolvent> all =
            ResolveWithTgd(state, f.program, tgd, 100, 4, anchor);
        std::vector<Resolvent> kept;
        size_t dropped = ResolveWithTgd(state, f.program, index, db, tgd,
                                        100, 4, anchor, &kept);
        std::vector<const Resolvent*> alive;
        size_t dead_run = 0;
        std::vector<size_t> dead_before;
        for (const Resolvent& r : all) {
          if (index.StateIsDead(r.atoms, db)) {
            ++dead_run;
            continue;
          }
          alive.push_back(&r);
          dead_before.push_back(dead_run);
          dead_run = 0;
        }
        ASSERT_EQ(kept.size(), alive.size());
        EXPECT_EQ(dropped, all.size() - alive.size());
        for (size_t i = 0; i < kept.size(); ++i) {
          EXPECT_EQ(kept[i].atoms, alive[i]->atoms);
          EXPECT_EQ(kept[i].chunk, alive[i]->chunk);
          EXPECT_EQ(kept[i].tgd_index, alive[i]->tgd_index);
          EXPECT_EQ(kept[i].dead_before, dead_before[i]);
        }
        total_dropped += dropped;
        total_kept += kept.size();
      }
    }
  }
  // The fixture exercises both outcomes.
  EXPECT_GT(total_dropped, 0u);
  EXPECT_GT(total_kept, 0u);
}

// Match-and-drop without substitution maps: DropPlan's children are the
// database matcher's matches of the pivot applied to the other atoms, in
// the matcher's order, and its dead test agrees with StateIsDead.
TEST(DropPlanTest, ChildrenFollowTheMatcher) {
  ResolutionFixture f(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, c). e(a, c). e(c, a). g(b, a). g(c, c).
  )");
  NormalizeToSingleHead(&f.program, nullptr);
  Instance db = DatabaseFromFacts(f.program.facts());
  ProgramIndex index(f.program, db);
  SymbolTable& symbols = f.program.symbols();
  Term a = symbols.InternConstant("a");
  Term c = symbols.InternConstant("c");
  PredicateId e = symbols.FindPredicate("e");
  PredicateId g = symbols.FindPredicate("g");
  PredicateId t = symbols.FindPredicate("t");
  Term x = Term::Variable(0);
  Term y = Term::Variable(1);
  Term z = Term::Variable(2);
  std::vector<std::vector<Atom>> states = {
      {Atom(e, {x, y}), Atom(t, {y, z}), Atom(g, {y, x})},
      {Atom(e, {a, y}), Atom(g, {y, z}), Atom(t, {z, c})},
      {Atom(e, {x, x}), Atom(g, {x, y})},
      {Atom(e, {x, y}), Atom(e, {y, x})},
  };
  size_t children = 0;
  size_t dead = 0;
  DropPlan plan;  // reused across plans, like the linear search's
  for (size_t s = 0; s < states.size(); ++s) {
    const std::vector<Atom>& state = states[s];
    for (size_t selected = 0; selected < state.size(); ++selected) {
      SCOPED_TRACE(testing::Message() << "state " << s << " pivot "
                                      << selected);
      std::vector<Atom> rest;
      for (size_t i = 0; i < state.size(); ++i) {
        if (i != selected) rest.push_back(state[i]);
      }
      std::vector<std::vector<Atom>> expected;
      std::vector<Atom> facts;
      ForEachHomomorphism({state[selected]}, db, {},
                          [&](const Substitution& h) {
                            expected.push_back(ApplySubstitution(h, rest));
                            facts.push_back(
                                ApplySubstitution(h, state[selected]));
                            return true;
                          });
      plan.Plan(state, selected, index, db);
      ASSERT_EQ(plan.size(), expected.size());
      std::vector<Atom> child;
      for (size_t k = 0; k < plan.size(); ++k) {
        plan.BuildChild(k, &child);
        EXPECT_EQ(child, expected[k]) << k;
        EXPECT_EQ(Atom(plan.predicate(), plan.Tuple(k)), facts[k]) << k;
        EXPECT_EQ(plan.ChildIsDead(k), index.StateIsDead(child, db)) << k;
        ++children;
        dead += plan.ChildIsDead(k) ? 1 : 0;
      }
    }
  }
  EXPECT_GT(children, dead);
  EXPECT_GT(dead, 0u);
}

// The successor cursor yields exactly a hand-written loop of the two
// generators — DropPlan's live children, then each relevance-bucket TGD's
// ResolveWithTgd survivors — with the same atoms, dirty flags and steps,
// and its edge counts after each yield are the loop's running counts,
// dead successors included. A consumer that stops after the k-th yield
// reads the counts as of that yield.
TEST(SuccessorCursorTest, YieldsTheGeneratorsInOrder) {
  ResolutionFixture f(R"(
    subclassStar(X, Y) :- subclass(X, Y).
    subclassStar(X, Z) :- subclassStar(X, Y), subclass(Y, Z).
    type(X, Z) :- type(X, Y), subclassStar(Y, Z).
    triple(X, Z, W) :- type(X, Y), restriction(Y, Z).
    type(X, W) :- triple(X, Y, Z), restriction(W, Y).
    subclass(cat, mammal). subclass(mammal, animal).
    type(tom, cat). restriction(hunter, hunts). type(tom, hunter).
  )");
  NormalizeToSingleHead(&f.program, nullptr);
  Instance db = DatabaseFromFacts(f.program.facts());
  ProgramIndex index(f.program, db);
  SymbolTable& symbols = f.program.symbols();
  std::vector<PredicateId> predicates;
  for (const char* name :
       {"type", "subclassStar", "triple", "subclass", "restriction"}) {
    predicates.push_back(symbols.FindPredicate(name));
  }
  std::vector<Term> terms = {Term::Variable(0), Term::Variable(1),
                             Term::Variable(2), Term::Variable(3)};
  for (const char* name : {"tom", "cat", "mammal", "animal", "hunts"}) {
    terms.push_back(symbols.InternConstant(name));
  }
  const size_t kMaxChunk = 3;

  struct Yield {
    Successor successor;
    uint64_t drop_edges;
    uint64_t resolution_edges;
  };
  Rng rng(11);
  size_t states = 0;
  size_t drops = 0;
  size_t resolvents = 0;
  uint64_t all_drop_edges = 0;
  uint64_t all_resolution_edges = 0;
  for (int round = 0; round < 200; ++round) {
    std::vector<Atom> state;
    size_t size = rng.Range(1, 3);
    for (size_t i = 0; i < size; ++i) {
      PredicateId p = predicates[rng.Below(predicates.size())];
      std::vector<Term> args;
      for (size_t k = 0; k < symbols.PredicateArity(p); ++k) {
        args.push_back(terms[rng.Below(terms.size())]);
      }
      state.emplace_back(p, std::move(args));
    }
    EagerSimplify(&state, db);
    if (state.empty()) continue;
    ++states;
    SCOPED_TRACE(testing::Message() << "round " << round);

    // The hand loop.
    std::vector<Yield> expected;
    uint64_t drop_edges = 0;
    uint64_t resolution_edges = 0;
    size_t selected = SelectAtom(state, db);
    std::vector<int> components = ComponentIds(state);
    std::vector<char> rest_dirty;
    for (size_t i = 0; i < state.size(); ++i) {
      if (i != selected) {
        rest_dirty.push_back(components[i] == components[selected] ? 1 : 0);
      }
    }
    DropPlan plan;
    plan.Plan(state, selected, index, db);
    for (size_t k = 0; k < plan.size(); ++k) {
      ++drop_edges;
      if (plan.ChildIsDead(k)) continue;
      Yield& y = expected.emplace_back();
      plan.BuildChild(k, &y.successor.atoms);
      y.successor.dirty = rest_dirty;
      y.successor.kind = ProofStep::Kind::kMatchDrop;
      y.successor.matched_predicate = plan.predicate();
      y.successor.matched_tuple = &plan.Tuple(k);
      y.drop_edges = drop_edges;
      y.resolution_edges = resolution_edges;
    }
    uint64_t fresh_base = 0;
    for (const Atom& a : state) {
      for (Term t : a.args) {
        if (t.is_variable()) fresh_base = std::max(fresh_base, t.index() + 1);
      }
    }
    for (size_t tgd : index.TgdsWithHead(state[selected].predicate)) {
      std::vector<Resolvent> kept;
      size_t dead = ResolveWithTgd(state, f.program, index, db, tgd,
                                   fresh_base, kMaxChunk, selected, &kept);
      for (Resolvent& r : kept) {
        resolution_edges += r.dead_before + 1;
        dead -= r.dead_before;
        Yield& y = expected.emplace_back();
        ResolventDirtyFlags(components, r.chunk, r.atoms.size(),
                            &y.successor.dirty);
        y.successor.atoms = r.atoms;
        y.successor.kind = ProofStep::Kind::kResolution;
        y.successor.tgd_index = tgd;
        y.drop_edges = drop_edges;
        y.resolution_edges = resolution_edges;
      }
      resolution_edges += dead;
    }

    // The cursor, drained.
    SuccessorCursor cursor;
    cursor.Start(state, f.program, index, db, kMaxChunk);
    Successor out;
    size_t n = 0;
    while (cursor.Next(state, &out)) {
      ASSERT_LT(n, expected.size());
      const Yield& y = expected[n];
      EXPECT_EQ(out.atoms, y.successor.atoms) << n;
      EXPECT_EQ(out.dirty, y.successor.dirty) << n;
      EXPECT_EQ(out.kind, y.successor.kind) << n;
      EXPECT_EQ(out.tgd_index, y.successor.tgd_index) << n;
      EXPECT_EQ(out.matched_predicate, y.successor.matched_predicate) << n;
      EXPECT_EQ(out.matched_tuple, y.successor.matched_tuple) << n;
      EXPECT_EQ(cursor.drop_edges(), y.drop_edges) << n;
      EXPECT_EQ(cursor.resolution_edges(), y.resolution_edges) << n;
      drops += out.kind == ProofStep::Kind::kMatchDrop ? 1 : 0;
      resolvents += out.kind == ProofStep::Kind::kResolution ? 1 : 0;
      ++n;
    }
    EXPECT_EQ(n, expected.size());
    EXPECT_EQ(cursor.drop_edges(), drop_edges);
    EXPECT_EQ(cursor.resolution_edges(), resolution_edges);
    all_drop_edges += drop_edges;
    all_resolution_edges += resolution_edges;

    // Stopped after the k-th yield, on a cursor reused across starts.
    for (size_t k = 1; k <= expected.size(); ++k) {
      cursor.Start(state, f.program, index, db, kMaxChunk);
      for (size_t i = 0; i < k; ++i) ASSERT_TRUE(cursor.Next(state, &out));
      EXPECT_EQ(out.atoms, expected[k - 1].successor.atoms) << k;
      EXPECT_EQ(cursor.drop_edges(), expected[k - 1].drop_edges) << k;
      EXPECT_EQ(cursor.resolution_edges(), expected[k - 1].resolution_edges)
          << k;
    }
  }
  // The generated states exercise both generators, live and dead.
  EXPECT_GT(states, 100u);
  EXPECT_GT(drops, 0u);
  EXPECT_GT(resolvents, 0u);
  EXPECT_GT(all_drop_edges, drops);
  EXPECT_GT(all_resolution_edges, resolvents);
}

}  // namespace
}  // namespace vadalog
