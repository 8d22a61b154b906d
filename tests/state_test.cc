// Tests for proof-state canonicalization, decomposition into components,
// and eager simplification.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "ast/parser.h"
#include "base/hash.h"
#include "base/rng.h"
#include "engine/state.h"
#include "storage/homomorphism.h"

namespace vadalog {
namespace {

Atom MakeAtom(PredicateId p, std::initializer_list<Term> args) {
  return Atom(p, std::vector<Term>(args));
}

TEST(CanonicalizeTest, VariableRenamingInvariance) {
  // {e(X5, X9)} and {e(X0, X1)} canonicalize identically.
  CanonicalState a =
      Canonicalize({MakeAtom(0, {Term::Variable(5), Term::Variable(9)})});
  CanonicalState b =
      Canonicalize({MakeAtom(0, {Term::Variable(0), Term::Variable(1)})});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(CanonicalizeTest, AtomOrderInvariance) {
  std::vector<Atom> forward = {
      MakeAtom(0, {Term::Variable(0), Term::Variable(1)}),
      MakeAtom(1, {Term::Variable(1), Term::Variable(2)})};
  std::vector<Atom> backward = {
      MakeAtom(1, {Term::Variable(7), Term::Variable(3)}),
      MakeAtom(0, {Term::Variable(9), Term::Variable(7)})};
  EXPECT_EQ(Canonicalize(forward), Canonicalize(backward));
}

TEST(CanonicalizeTest, DistinguishesJoinStructure) {
  // e(X,Y), e(Y,Z)  vs  e(X,Y), e(Z,Y): different join shapes.
  std::vector<Atom> chain = {
      MakeAtom(0, {Term::Variable(0), Term::Variable(1)}),
      MakeAtom(0, {Term::Variable(1), Term::Variable(2)})};
  std::vector<Atom> vee = {
      MakeAtom(0, {Term::Variable(0), Term::Variable(1)}),
      MakeAtom(0, {Term::Variable(2), Term::Variable(1)})};
  EXPECT_FALSE(Canonicalize(chain) == Canonicalize(vee));
}

TEST(CanonicalizeTest, ConstantsAreRigid) {
  std::vector<Atom> with_a = {MakeAtom(0, {Term::Constant(1)})};
  std::vector<Atom> with_b = {MakeAtom(0, {Term::Constant(2)})};
  EXPECT_FALSE(Canonicalize(with_a) == Canonicalize(with_b));
}

TEST(CanonicalizeTest, SymmetricStatesMerge) {
  // {e(X,Y), e(Y,X)} under either atom order.
  std::vector<Atom> one = {
      MakeAtom(0, {Term::Variable(0), Term::Variable(1)}),
      MakeAtom(0, {Term::Variable(1), Term::Variable(0)})};
  std::vector<Atom> two = {
      MakeAtom(0, {Term::Variable(1), Term::Variable(0)}),
      MakeAtom(0, {Term::Variable(0), Term::Variable(1)})};
  EXPECT_EQ(Canonicalize(one), Canonicalize(two));
}

TEST(CanonicalizeTest, EmptyState) {
  CanonicalState state = Canonicalize({});
  EXPECT_TRUE(state.atoms.empty());
  EXPECT_TRUE(state.encoding.empty());
}

TEST(CanonicalizeTest, SentinelModeRenamesNulls) {
  std::vector<Atom> one = {MakeAtom(0, {Term::Null(7), Term::Variable(0)})};
  std::vector<Atom> two = {MakeAtom(0, {Term::Null(2), Term::Variable(5)})};
  EXPECT_EQ(Canonicalize(one, /*rename_nulls=*/true),
            Canonicalize(two, /*rename_nulls=*/true));
  // Without renaming, the nulls are rigid and distinct.
  EXPECT_FALSE(Canonicalize(one) == Canonicalize(two));
}

TEST(CanonicalizeTest, SentinelsStayDistinctFromVariables) {
  std::vector<Atom> null_version = {MakeAtom(0, {Term::Null(0)})};
  std::vector<Atom> var_version = {MakeAtom(0, {Term::Variable(0)})};
  EXPECT_FALSE(Canonicalize(null_version, /*rename_nulls=*/true) ==
               Canonicalize(var_version, /*rename_nulls=*/true));
}

TEST(CanonicalizeTest, MappingReportsRenaming) {
  std::unordered_map<Term, Term> mapping;
  Canonicalize({MakeAtom(0, {Term::Variable(8), Term::Null(4)})},
               /*rename_nulls=*/true, &mapping);
  EXPECT_EQ(mapping.at(Term::Variable(8)), Term::Variable(0));
  EXPECT_EQ(mapping.at(Term::Null(4)), Term::Null(0));
}

TEST(CanonicalizeTest, SentinelModeInvariantUnderNullRenaming) {
  // {p(Na,X), p(Nb,Y), q(X,Y)} and its copy with the two nulls swapped
  // are equal up to renaming nulls, so sentinel mode must merge them,
  // whichever nulls they are: the refinement round must see a renameable
  // null's color, never its raw index.
  for (uint64_t a = 0; a < 8; ++a) {
    for (uint64_t b = 0; b < 8; ++b) {
      if (a == b) continue;
      auto state = [](Term first, Term second) {
        return std::vector<Atom>{
            MakeAtom(0, {first, Term::Variable(0)}),
            MakeAtom(0, {second, Term::Variable(1)}),
            MakeAtom(1, {Term::Variable(0), Term::Variable(1)})};
      };
      EXPECT_EQ(
          Canonicalize(state(Term::Null(a), Term::Null(b)), true),
          Canonicalize(state(Term::Null(b), Term::Null(a)), true))
          << "nulls " << a << ", " << b;
    }
  }
}

TEST(CanonicalizeTest, LargeTermIndices) {
  // Scratch is sized by the state, not by term indices: a variable (or,
  // in sentinel mode, a null) with a huge index canonicalizes exactly
  // like its small-index renaming.
  Term big_null = Term::Null(uint64_t{1} << 40);
  std::vector<Atom> large = {
      MakeAtom(0, {Term::Variable(100000), Term::Variable(7)}),
      MakeAtom(1, {Term::Variable(7), big_null})};
  std::vector<Atom> small_vars = {
      MakeAtom(0, {Term::Variable(2), Term::Variable(7)}),
      MakeAtom(1, {Term::Variable(7), big_null})};
  CanonicalState canonical = Canonicalize(large);
  CanonicalState renamed = Canonicalize(small_vars);
  EXPECT_EQ(canonical.encoding, renamed.encoding);
  EXPECT_EQ(canonical.atoms, renamed.atoms);
  EXPECT_EQ(canonical.hash, renamed.hash);

  std::vector<Atom> small = {
      MakeAtom(0, {Term::Variable(0), Term::Variable(1)}),
      MakeAtom(1, {Term::Variable(1), Term::Null(3)})};
  EXPECT_EQ(Canonicalize(large, /*rename_nulls=*/true),
            Canonicalize(small, /*rename_nulls=*/true));
}

TEST(SplitComponentsTest, DisjointAtomsSplit) {
  std::vector<std::vector<Atom>> components = SplitComponents(
      {MakeAtom(0, {Term::Variable(0)}), MakeAtom(1, {Term::Variable(1)})});
  EXPECT_EQ(components.size(), 2u);
}

TEST(SplitComponentsTest, SharedVariableConnects) {
  std::vector<std::vector<Atom>> components = SplitComponents(
      {MakeAtom(0, {Term::Variable(0), Term::Variable(1)}),
       MakeAtom(1, {Term::Variable(1)}), MakeAtom(2, {Term::Variable(2)})});
  EXPECT_EQ(components.size(), 2u);
}

TEST(SplitComponentsTest, ConstantsDoNotConnect) {
  std::vector<std::vector<Atom>> components = SplitComponents(
      {MakeAtom(0, {Term::Constant(5), Term::Variable(0)}),
       MakeAtom(1, {Term::Constant(5), Term::Variable(1)})});
  EXPECT_EQ(components.size(), 2u);
}

TEST(SplitComponentsTest, TransitiveConnection) {
  std::vector<std::vector<Atom>> components = SplitComponents(
      {MakeAtom(0, {Term::Variable(0), Term::Variable(1)}),
       MakeAtom(0, {Term::Variable(1), Term::Variable(2)}),
       MakeAtom(0, {Term::Variable(2), Term::Variable(3)})});
  EXPECT_EQ(components.size(), 1u);
}

/// A random state built around symmetric "stars": a hub variable joined
/// to 2..7 interchangeable leaves, optionally tagged by a second atom per
/// leaf (a second tie group) and partly extended (splitting the group).
/// A 7-leaf star, or two tagged 6-leaf groups, exceed the 720-combination
/// brute-force cap; smaller ones stay under it. Noise atoms, constants
/// and repeated atoms are mixed in, then variables are renamed apart and
/// the atom order is shuffled.
std::vector<Atom> RandomSymmetricState(Rng* rng) {
  std::vector<Atom> atoms;
  uint64_t num_vars = 0;
  auto some_term = [&]() {
    if (num_vars == 0 || rng->Chance(0.3)) {
      return Term::Constant(rng->Below(3));
    }
    return Term::Variable(rng->Below(num_vars));
  };
  size_t stars = 1 + rng->Below(2);
  for (size_t g = 0; g < stars; ++g) {
    Term hub =
        rng->Chance(0.2) ? Term::Constant(g) : Term::Variable(num_vars++);
    size_t leaves = 2 + rng->Below(6);
    bool tagged = rng->Chance(0.5);
    Term tag = rng->Chance(0.5) ? Term::Constant(1) : hub;
    for (size_t i = 0; i < leaves; ++i) {
      Term leaf = Term::Variable(num_vars++);
      atoms.push_back(MakeAtom(static_cast<PredicateId>(g), {hub, leaf}));
      if (tagged) atoms.push_back(MakeAtom(2, {leaf, tag}));
      if (rng->Chance(0.2)) {
        atoms.push_back(MakeAtom(3, {leaf, Term::Variable(num_vars++)}));
      }
    }
  }
  size_t noise = rng->Below(3);
  for (size_t i = 0; i < noise; ++i) {
    atoms.push_back(MakeAtom(4, {some_term(), some_term()}));
  }
  size_t repeats = rng->Below(3);
  for (size_t i = 0; i < repeats; ++i) {
    atoms.push_back(atoms[rng->Below(atoms.size())]);
  }

  std::vector<uint64_t> names(200);
  std::iota(names.begin(), names.end(), 0);
  for (size_t i = names.size() - 1; i > 0; --i) {
    std::swap(names[i], names[rng->Below(i + 1)]);
  }
  for (Atom& a : atoms) {
    for (Term& t : a.args) {
      if (t.is_variable()) t = Term::Variable(names[t.index()]);
    }
  }
  for (size_t i = atoms.size() - 1; i > 0; --i) {
    std::swap(atoms[i], atoms[rng->Below(i + 1)]);
  }
  return atoms;
}

/// Reference canonicalization, kept only as a test oracle: the same
/// colors and keys computed with hash maps, and every permutation of the
/// tie groups tried by brute force (the first least encoding wins).
class ReferenceCanonicalizer {
 public:
  ReferenceCanonicalizer(const std::vector<Atom>& atoms, bool rename_nulls)
      : atoms_(atoms), rename_nulls_(rename_nulls) {}

  CanonicalState Run(std::unordered_map<Term, Term>* mapping) {
    size_t n = atoms_.size();
    // Occurrence-profile colors, then one refinement round.
    std::unordered_map<Term, std::vector<uint64_t>> occurrences;
    for (const Atom& a : atoms_) {
      for (size_t i = 0; i < a.args.size(); ++i) {
        if (Renameable(a.args[i])) {
          occurrences[a.args[i]].push_back(
              (static_cast<uint64_t>(a.predicate) << 8) | i);
        }
      }
    }
    for (auto& [term, profile] : occurrences) {
      std::sort(profile.begin(), profile.end());
      color_[term] = HashRange(profile.begin(), profile.end());
    }
    if (n > 2) {
      std::unordered_map<Term, std::vector<uint64_t>> refined;
      for (const Atom& a : atoms_) {
        size_t atom_sig = a.predicate;
        for (Term t : a.args) {
          HashCombine(&atom_sig, Renameable(t) ? color_.at(t) : t.bits());
        }
        for (size_t i = 0; i < a.args.size(); ++i) {
          if (!Renameable(a.args[i])) continue;
          size_t occ = atom_sig;
          HashCombine(&occ, i);
          refined[a.args[i]].push_back(occ);
        }
      }
      for (auto& [term, profile] : refined) {
        std::sort(profile.begin(), profile.end());
        size_t color = HashRange(profile.begin(), profile.end());
        HashCombine(&color, color_.at(term));
        color_[term] = color;
      }
    }

    std::vector<std::vector<uint64_t>> keys;
    for (const Atom& a : atoms_) keys.push_back(Key(a));
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&keys](size_t a, size_t b) { return keys[a] < keys[b]; });
    size_t combinations = 1;
    for (size_t i = 0; i < n;) {
      size_t j = i + 1;
      while (j < n && keys[order[i]] == keys[order[j]]) ++j;
      if (j - i > 1) {
        groups_.emplace_back(i, j);
        for (size_t k = 2; k <= j - i && combinations <= 720; ++k) {
          combinations *= k;
        }
      }
      i = j;
    }
    if (combinations > 720) groups_.clear();
    current_ = order;
    best_order_ = order;
    Permute(0);

    CanonicalState state;
    state.encoding = best_;
    std::unordered_map<Term, uint64_t> var_rank, null_rank;
    for (size_t idx : best_order_) {
      Atom renamed = atoms_[idx];
      for (Term& t : renamed.args) {
        Term original = t;
        if (t.is_variable()) {
          t = Term::Variable(
              var_rank.try_emplace(t, var_rank.size()).first->second);
        } else if (Renameable(t)) {
          t = Term::Null(
              null_rank.try_emplace(t, null_rank.size()).first->second);
        }
        if (mapping != nullptr && Renameable(original)) {
          (*mapping)[original] = t;
        }
      }
      state.atoms.push_back(std::move(renamed));
    }
    state.hash = HashRange(state.encoding.begin(), state.encoding.end());
    return state;
  }

 private:
  bool Renameable(Term t) const {
    return t.is_variable() || (rename_nulls_ && t.is_null());
  }

  std::vector<uint64_t> Key(const Atom& a) const {
    std::vector<uint64_t> key = {a.predicate};
    std::unordered_map<Term, uint64_t> local_rank;
    for (Term t : a.args) {
      if (!Renameable(t)) {
        key.push_back(t.bits());
        continue;
      }
      uint64_t rank =
          local_rank.try_emplace(t, local_rank.size()).first->second;
      key.push_back((uint64_t{t.is_variable() ? 3u : 1u} << 62) | rank);
      key.push_back(color_.at(t));
    }
    return key;
  }

  std::vector<uint64_t> Encode(const std::vector<size_t>& order) const {
    std::vector<uint64_t> enc;
    std::unordered_map<Term, uint64_t> var_rank, null_rank;
    for (size_t idx : order) {
      enc.push_back((uint64_t{2} << 62) | atoms_[idx].predicate);
      for (Term t : atoms_[idx].args) {
        if (t.is_variable()) {
          enc.push_back((uint64_t{3} << 62) |
                        var_rank.try_emplace(t, var_rank.size()).first->second);
        } else if (Renameable(t)) {
          enc.push_back(
              (uint64_t{1} << 62) |
              null_rank.try_emplace(t, null_rank.size()).first->second);
        } else {
          enc.push_back(t.bits());
        }
      }
    }
    return enc;
  }

  void Permute(size_t group) {
    if (group == groups_.size()) {
      std::vector<uint64_t> enc = Encode(current_);
      if (!have_best_ || enc < best_) {
        best_ = std::move(enc);
        best_order_ = current_;
        have_best_ = true;
      }
      return;
    }
    auto [begin, end] = groups_[group];
    std::vector<size_t> members(current_.begin() + begin,
                                current_.begin() + end);
    std::sort(members.begin(), members.end());
    do {
      std::copy(members.begin(), members.end(), current_.begin() + begin);
      Permute(group + 1);
    } while (std::next_permutation(members.begin(), members.end()));
  }

  const std::vector<Atom>& atoms_;
  bool rename_nulls_;
  std::unordered_map<Term, uint64_t> color_;
  std::vector<std::pair<size_t, size_t>> groups_;
  std::vector<size_t> current_;
  std::vector<size_t> best_order_;
  std::vector<uint64_t> best_;
  bool have_best_ = false;
};

TEST(CanonicalizeTest, MatchesBruteForceReference) {
  // The branch-and-bound canonical search on dense term ids must return
  // the reference's encoding, atoms, hash and renaming, in both modes:
  // over symmetric states, and over the same states with part of their
  // variables turned into nulls (rigid, or renamed in sentinel mode).
  Rng rng(20261017);
  for (int round = 0; round < 400; ++round) {
    std::vector<Atom> atoms = RandomSymmetricState(&rng);
    if (round % 2 == 1) {
      for (Atom& a : atoms) {
        for (Term& t : a.args) {
          if (t.is_variable() && t.index() % 3 == 0) t = Term::Null(t.index());
        }
      }
    }
    for (bool rename_nulls : {false, true}) {
      std::unordered_map<Term, Term> mapping, expected_mapping;
      CanonicalState actual = Canonicalize(atoms, rename_nulls, &mapping);
      CanonicalState expected =
          ReferenceCanonicalizer(atoms, rename_nulls).Run(&expected_mapping);
      EXPECT_EQ(actual.encoding, expected.encoding) << "round " << round;
      EXPECT_EQ(actual.atoms, expected.atoms) << "round " << round;
      EXPECT_EQ(actual.hash, expected.hash) << "round " << round;
      EXPECT_EQ(mapping, expected_mapping) << "round " << round;
      EXPECT_EQ(Canonicalize(atoms, rename_nulls), actual) << "round " << round;
    }
  }
}

struct DbFixture {
  Program program;
  Instance db;
  PredicateId e, t;

  DbFixture() {
    ParseResult parsed = ParseProgram("e(a, b). e(b, c).");
    program = std::move(*parsed.program);
    db = DatabaseFromFacts(program.facts());
    e = program.symbols().FindPredicate("e");
    t = program.symbols().InternPredicate("t", 2);
  }
};

// Component labelling is sized by the state, not by its variable
// indices: states whose variables sit at 2^24 or 2^40 + 3 decompose and
// simplify exactly like their small-index renaming.
TEST(EagerSimplifyTest, LargeVariableIndicesLikeSmallOnes) {
  DbFixture f;
  Term a = f.program.symbols().InternConstant("a");
  auto v = [](uint64_t i) { return Term::Variable(i); };
  std::vector<Atom> small = {
      MakeAtom(f.t, {v(0), a}),    MakeAtom(f.e, {v(2), v(3)}),  // embeds
      MakeAtom(f.e, {v(0), v(1)}), MakeAtom(f.t, {v(4), v(5)}),
      MakeAtom(f.e, {v(5), v(6)}), MakeAtom(f.t, {v(0), a}),
      MakeAtom(f.e, {v(6), v(4)})};
  auto rename = [](const std::vector<Atom>& atoms,
                   const std::vector<uint64_t>& to) {
    std::vector<Atom> out = atoms;
    for (Atom& atom : out) {
      for (Term& t : atom.args) {
        if (t.is_variable()) t = Term::Variable(to[t.index()]);
      }
    }
    return out;
  };
  const uint64_t k24 = uint64_t{1} << 24;
  const uint64_t k40 = (uint64_t{1} << 40) + 3;
  std::vector<std::vector<uint64_t>> renamings = {
      {k24, k24 + 1, k24 + 2, k24 + 3, k24 + 4, k24 + 5, k24 + 6},
      {k40, k40 + 1, k40 + 2, k40 + 3, k40 + 4, k40 + 5, k40 + 6},
      {k40, 7, k24, k40 + 9, 0, k24 + 1, 1}};
  std::vector<int> small_ids = ComponentIds(small);
  std::vector<std::vector<Atom>> small_split = SplitComponents(small);
  std::vector<Atom> small_simplified = small;
  size_t small_removed = EagerSimplify(&small_simplified, f.db);
  ASSERT_EQ(small_split.size(), 3u);
  // The embedding component and the duplicate t(X0, a) go.
  ASSERT_EQ(small_simplified.size(), 5u);
  EXPECT_EQ(small_removed, 2u);
  for (const std::vector<uint64_t>& to : renamings) {
    SCOPED_TRACE(to[0]);
    std::vector<Atom> large = rename(small, to);
    EXPECT_EQ(ComponentIds(large), small_ids);
    std::vector<std::vector<Atom>> split = SplitComponents(large);
    ASSERT_EQ(split.size(), small_split.size());
    for (size_t c = 0; c < split.size(); ++c) {
      EXPECT_EQ(split[c], rename(small_split[c], to)) << c;
    }
    std::vector<Atom> simplified = large;
    EXPECT_EQ(EagerSimplify(&simplified, f.db), small_removed);
    EXPECT_EQ(simplified, rename(small_simplified, to));
  }
}

TEST(EagerSimplifyTest, RemovesSatisfiableComponents) {
  DbFixture f;
  std::vector<Atom> atoms = {
      MakeAtom(f.e, {Term::Variable(0), Term::Variable(1)}),  // matches db
      MakeAtom(f.t, {Term::Variable(2), Term::Variable(3)})}; // t is empty
  size_t removed = EagerSimplify(&atoms, f.db);
  EXPECT_EQ(removed, 1u);
  ASSERT_EQ(atoms.size(), 1u);
  EXPECT_EQ(atoms[0].predicate, f.t);
}

TEST(EagerSimplifyTest, KeepsConnectedUnsatisfiedPart) {
  DbFixture f;
  // e(X,Y) joined with t(Y,Z): one component, t unmatched, nothing drops.
  std::vector<Atom> atoms = {
      MakeAtom(f.e, {Term::Variable(0), Term::Variable(1)}),
      MakeAtom(f.t, {Term::Variable(1), Term::Variable(2)})};
  EXPECT_EQ(EagerSimplify(&atoms, f.db), 0u);
  EXPECT_EQ(atoms.size(), 2u);
}

TEST(EagerSimplifyTest, GroundAtomInDatabase) {
  DbFixture f;
  Term a = f.program.symbols().InternConstant("a");
  Term b = f.program.symbols().InternConstant("b");
  std::vector<Atom> atoms = {MakeAtom(f.e, {a, b})};
  EXPECT_EQ(EagerSimplify(&atoms, f.db), 1u);
  EXPECT_TRUE(atoms.empty());
}

/// Reference simplification, independent of the in-place code: merge
/// duplicates (OR-ing dirtiness), label components by flood fill in
/// first-occurrence order, and drop each dirty component that has a
/// match according to ForEachHomomorphism. Survivors are emitted grouped
/// by component.
size_t ReferenceSimplify(std::vector<Atom>* atoms, std::vector<char> dirty,
                         const Instance& db) {
  std::vector<Atom> unique;
  std::vector<char> unique_dirty;
  for (size_t i = 0; i < atoms->size(); ++i) {
    auto it = std::find(unique.begin(), unique.end(), (*atoms)[i]);
    if (it == unique.end()) {
      unique.push_back((*atoms)[i]);
      unique_dirty.push_back(dirty[i]);
    } else {
      unique_dirty[it - unique.begin()] |= dirty[i];
    }
  }
  size_t n = unique.size();
  auto share_variable = [&unique](size_t a, size_t b) {
    for (Term s : unique[a].args) {
      for (Term t : unique[b].args) {
        if (s.is_variable() && s == t) return true;
      }
    }
    return false;
  };
  std::vector<int> id(n, -1);
  int components = 0;
  for (size_t i = 0; i < n; ++i) {
    if (id[i] >= 0) continue;
    std::vector<size_t> work = {i};
    id[i] = components;
    while (!work.empty()) {
      size_t a = work.back();
      work.pop_back();
      for (size_t b = 0; b < n; ++b) {
        if (id[b] < 0 && share_variable(a, b)) {
          id[b] = components;
          work.push_back(b);
        }
      }
    }
    ++components;
  }
  std::vector<Atom> kept;
  for (int c = 0; c < components; ++c) {
    std::vector<Atom> members;
    bool is_dirty = false;
    for (size_t i = 0; i < n; ++i) {
      if (id[i] != c) continue;
      members.push_back(unique[i]);
      is_dirty = is_dirty || unique_dirty[i] != 0;
    }
    bool embeds = false;
    ForEachHomomorphism(members, db, {}, [&embeds](const Substitution&) {
      embeds = true;
      return false;
    });
    if (!(is_dirty && embeds)) {
      kept.insert(kept.end(), members.begin(), members.end());
    }
  }
  size_t removed = atoms->size() - kept.size();  // duplicates included
  *atoms = std::move(kept);
  return removed;
}

TEST(EagerSimplifyTest, InPlaceSimplifyMatchesReference) {
  // Random states (duplicates, constants, a predicate with no relation,
  // variable indices past 4096) under random dirty flags: the in-place
  // incremental simplification must return the reference's atoms in the
  // reference's order, and with every atom dirty it must agree with
  // EagerSimplify.
  ParseResult parsed = ParseProgram(R"(
    e(a, b). e(b, c). e(c, a). e(c, d). p(a). p(c). q(a, b, c). q(b, b, d).
  )");
  ASSERT_TRUE(parsed.ok());
  Program program = std::move(*parsed.program);
  Instance db = DatabaseFromFacts(program.facts());
  SymbolTable& symbols = program.symbols();
  const PredicateId predicates[] = {
      symbols.FindPredicate("e"), symbols.FindPredicate("p"),
      symbols.FindPredicate("q"), symbols.InternPredicate("t", 2)};
  const Term constants[] = {
      symbols.InternConstant("a"), symbols.InternConstant("b"),
      symbols.InternConstant("c"), symbols.InternConstant("d")};

  Rng rng(20261017);
  for (int round = 0; round < 400; ++round) {
    std::vector<Atom> atoms;
    size_t n = 1 + rng.Below(8);
    for (size_t i = 0; i < n; ++i) {
      if (!atoms.empty() && rng.Chance(0.1)) {
        atoms.push_back(atoms[rng.Below(atoms.size())]);
        continue;
      }
      PredicateId p = predicates[rng.Chance(0.1) ? 3 : rng.Below(3)];
      std::vector<Term> args;
      for (uint32_t k = 0; k < symbols.PredicateArity(p); ++k) {
        if (rng.Chance(0.3)) {
          args.push_back(constants[rng.Below(4)]);
        } else {
          uint64_t v = rng.Below(6);
          args.push_back(Term::Variable(rng.Chance(0.1) ? 4096 + v : v));
        }
      }
      atoms.push_back(Atom(p, std::move(args)));
    }

    std::vector<char> dirty(atoms.size());
    for (char& d : dirty) d = rng.Chance(0.6) ? 1 : 0;
    std::vector<Atom> expected = atoms;
    size_t expected_removed = ReferenceSimplify(&expected, dirty, db);
    std::vector<Atom> actual = atoms;
    EXPECT_EQ(EagerSimplifyIncremental(&actual, db, &dirty),
              expected_removed)
        << "round " << round;
    EXPECT_EQ(actual, expected) << "round " << round;

    std::vector<Atom> all_dirty = atoms;
    std::vector<char> ones(atoms.size(), 1);
    size_t removed_incremental =
        EagerSimplifyIncremental(&all_dirty, db, &ones);
    std::vector<Atom> full = atoms;
    EXPECT_EQ(EagerSimplify(&full, db), removed_incremental)
        << "round " << round;
    EXPECT_EQ(full, all_dirty) << "round " << round;
    std::vector<Atom> reference = atoms;
    ReferenceSimplify(&reference, std::vector<char>(atoms.size(), 1), db);
    EXPECT_EQ(full, reference) << "round " << round;
  }
}

TEST(SelectAtomTest, PrefersMoreRigidArguments) {
  DbFixture f;
  Term a = f.program.symbols().InternConstant("a");
  std::vector<Atom> atoms = {
      MakeAtom(f.e, {Term::Variable(0), Term::Variable(1)}),
      MakeAtom(f.e, {a, Term::Variable(2)})};
  EXPECT_EQ(SelectAtom(atoms, f.db), 1u);
}

}  // namespace
}  // namespace vadalog
