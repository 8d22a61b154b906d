// Unit tests for terms, symbol tables, hashing, and the deterministic RNG.

#include <gtest/gtest.h>

#include <unordered_set>

#include "base/hash.h"
#include "base/rng.h"
#include "base/symbol_table.h"
#include "base/term.h"

namespace vadalog {
namespace {

TEST(TermTest, KindsAreDisjoint) {
  Term c = Term::Constant(7);
  Term n = Term::Null(7);
  Term v = Term::Variable(7);
  EXPECT_TRUE(c.is_constant());
  EXPECT_TRUE(n.is_null());
  EXPECT_TRUE(v.is_variable());
  EXPECT_NE(c, n);
  EXPECT_NE(c, v);
  EXPECT_NE(n, v);
  EXPECT_EQ(c.index(), 7u);
  EXPECT_EQ(n.index(), 7u);
  EXPECT_EQ(v.index(), 7u);
}

TEST(TermTest, RigidityMatchesKind) {
  EXPECT_TRUE(Term::Constant(0).is_rigid());
  EXPECT_TRUE(Term::Null(0).is_rigid());
  EXPECT_FALSE(Term::Variable(0).is_rigid());
}

TEST(TermTest, LargeIndicesRoundTrip) {
  uint64_t big = (uint64_t{1} << 62) - 1;
  EXPECT_EQ(Term::Variable(big).index(), big);
  EXPECT_TRUE(Term::Variable(big).is_variable());
}

TEST(TermTest, HashDistinguishesKinds) {
  std::unordered_set<Term> set;
  for (uint64_t i = 0; i < 100; ++i) {
    set.insert(Term::Constant(i));
    set.insert(Term::Null(i));
    set.insert(Term::Variable(i));
  }
  EXPECT_EQ(set.size(), 300u);
}

TEST(TermTest, OrderingIsStrict) {
  EXPECT_LT(Term::Constant(1), Term::Constant(2));
  // Kind bits dominate: constants < nulls < variables.
  EXPECT_LT(Term::Constant(99), Term::Null(0));
  EXPECT_LT(Term::Null(99), Term::Variable(0));
}

TEST(TermTest, DebugStringShowsKind) {
  EXPECT_EQ(DebugString(Term::Constant(3)), "c3");
  EXPECT_EQ(DebugString(Term::Null(4)), "n4");
  EXPECT_EQ(DebugString(Term::Variable(5)), "X5");
}

TEST(SymbolTableTest, InternConstantIsIdempotent) {
  SymbolTable symbols;
  Term a1 = symbols.InternConstant("alpha");
  Term a2 = symbols.InternConstant("alpha");
  Term b = symbols.InternConstant("beta");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(symbols.ConstantName(a1), "alpha");
  EXPECT_EQ(symbols.num_constants(), 2u);
}

TEST(SymbolTableTest, PredicateArityIsEnforced) {
  SymbolTable symbols;
  PredicateId p = symbols.InternPredicate("edge", 2);
  ASSERT_NE(p, kInvalidPredicate);
  EXPECT_EQ(symbols.InternPredicate("edge", 2), p);
  EXPECT_EQ(symbols.InternPredicate("edge", 3), kInvalidPredicate);
  EXPECT_EQ(symbols.PredicateArity(p), 2u);
  EXPECT_EQ(symbols.PredicateName(p), "edge");
}

TEST(SymbolTableTest, FindPredicateDoesNotCreate) {
  SymbolTable symbols;
  EXPECT_EQ(symbols.FindPredicate("missing"), kInvalidPredicate);
  symbols.InternPredicate("present", 1);
  EXPECT_NE(symbols.FindPredicate("present"), kInvalidPredicate);
}

TEST(SymbolTableTest, FreshPredicatesAreUnique) {
  SymbolTable symbols;
  PredicateId a = symbols.MakeFreshPredicate("Aux", 2);
  PredicateId b = symbols.MakeFreshPredicate("Aux", 2);
  EXPECT_NE(a, b);
  EXPECT_NE(symbols.PredicateName(a), symbols.PredicateName(b));
}

TEST(SymbolTableTest, TermToStringRendersAllKinds) {
  SymbolTable symbols;
  Term c = symbols.InternConstant("alice");
  EXPECT_EQ(symbols.TermToString(c), "alice");
  EXPECT_EQ(symbols.TermToString(Term::Null(2)), "_:n2");
  EXPECT_EQ(symbols.TermToString(Term::Variable(0)), "X0");
}

TEST(HashTest, HashRangeDependsOnOrder) {
  std::vector<uint64_t> a = {1, 2, 3};
  std::vector<uint64_t> b = {3, 2, 1};
  EXPECT_NE(HashRange(a.begin(), a.end()), HashRange(b.begin(), b.end()));
}

TEST(RngTest, DeterministicForSeed) {
  Rng r1(42), r2(42), r3(43);
  EXPECT_EQ(r1.Next(), r2.Next());
  EXPECT_NE(r1.Next(), r3.Next());
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(10), 10u);
    uint64_t x = rng.Range(5, 9);
    EXPECT_GE(x, 5u);
    EXPECT_LE(x, 9u);
  }
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

}  // namespace
}  // namespace vadalog
