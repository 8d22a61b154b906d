// CQ proof states: canonical renaming, decomposition into variable-disjoint
// components (Definition 4.4 with frozen outputs), and eager simplification
// against the database.
//
// A proof state is the body of a CQ whose output variables have been frozen
// to constants (Section 4.3). Two states that differ only by a bijective
// renaming of variables are interchangeable, so the search canonicalizes
// states before deduplicating them: variables are numbered densely,
// atoms are ordered by a renaming-invariant key (refined once by variable
// "colors"), residual symmetric groups are resolved by a branch-and-bound
// search for the least encoding, and variables are renamed by first
// occurrence. One routine serves the proof searches and, with sentinel
// nulls renamed as well, the Lemma 6.4 rewriter.

#ifndef VADALOG_ENGINE_STATE_H_
#define VADALOG_ENGINE_STATE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ast/atom.h"
#include "storage/instance.h"

namespace vadalog {

/// A canonicalized proof state.
struct CanonicalState {
  std::vector<Atom> atoms;        // canonical atom order, variables 0..k-1
  std::vector<uint64_t> encoding; // flat injective encoding of `atoms`
  size_t hash = 0;                // hash of `encoding`, fixed at creation

  /// The hash is computed once during canonicalization and stored, so
  /// visited-set operations never re-walk the encoding.
  size_t Hash() const { return hash; }
  bool operator==(const CanonicalState& other) const {
    return encoding == other.encoding;
  }
  size_t ApproximateBytes() const {
    return encoding.size() * sizeof(uint64_t);
  }
};

struct CanonicalStateHash {
  size_t operator()(const CanonicalState& s) const { return s.Hash(); }
};

/// Canonicalizes a state: sorts its atoms and renames its variables so
/// that states equal up to a bijective variable renaming get the same
/// canonical form, whatever the variable indices.
///
/// The Lemma 6.4 rewriter encodes frozen output variables as labeled
/// nulls ("sentinels"): when `rename_nulls` is set, nulls are renamed
/// canonically too, as a class of their own (distinct from variables). If
/// `mapping` is non-null it receives the renaming original term →
/// canonical term for every variable and (when renamed) null of the input.
CanonicalState Canonicalize(std::vector<Atom> atoms, bool rename_nulls = false,
                            std::unordered_map<Term, Term>* mapping = nullptr);

/// Splits a state into connected components: atoms sharing a variable are
/// in the same component (constants never connect — they are frozen).
/// This is exactly the finest decomposition of Definition 4.4.
std::vector<std::vector<Atom>> SplitComponents(const std::vector<Atom>& atoms);

/// Per-atom connected-component ids (same connectivity as SplitComponents;
/// ids are dense, in first-occurrence order). No database work.
std::vector<int> ComponentIds(const std::vector<Atom>& atoms);

/// Removes every connected component that maps homomorphically into the
/// database (such components are proof-tree leaves: they can be specialized
/// to database facts and decomposed away without constraining the rest).
/// Returns the number of atoms removed.
size_t EagerSimplify(std::vector<Atom>* atoms, const Instance& database);

/// EagerSimplify for a successor of an already-simplified parent state.
/// `dirty` marks, per atom, whether the resolution/match step could have
/// re-enabled a database embedding: new body atoms, and atoms whose parent
/// component lost a member to the step. Components made of clean atoms
/// only inherit the parent's certificate — no component of a simplified
/// state maps into the database, the step's substitution binds no variable
/// of an untouched component (it would share a variable with the chunk and
/// hence be in a touched component), and a union of γ-instances of
/// non-embeddable components cannot embed — so only dirty components are
/// re-checked. Exact duplicates are still dropped globally. `dirty` is
/// consumed as scratch; its size must equal atoms->size().
size_t EagerSimplifyIncremental(std::vector<Atom>* atoms,
                                const Instance& database,
                                std::vector<char>* dirty);

/// Computes the dirty flags for a resolvent built by ResolveWithTgd from a
/// simplified parent state: kept parent atoms (parent order minus the
/// sorted `chunk`) are dirty iff their component lost a chunk member; the
/// trailing body atoms (up to `resolvent_size`) are new and always dirty.
/// `components` are the parent's ComponentIds. Both searches use this —
/// the certificate logic must never diverge between them.
void ResolventDirtyFlags(const std::vector<int>& components,
                         const std::vector<size_t>& chunk,
                         size_t resolvent_size, std::vector<char>* dirty);

/// Selects the atom the search works on next (the SLD selection
/// function): the database-matchable atom with the fewest candidate rows
/// (to be dropped, mirroring eager leaf decomposition), else the most
/// constrained atom (to be resolved). atoms must be non-empty.
size_t SelectAtom(const std::vector<Atom>& atoms, const Instance& database);

/// Upper bound on the database rows matching `atom` through its most
/// selective bound position (0 means provably no match).
size_t EstimateMatches(const Atom& atom, const Instance& database);

/// True if some atom can never be discharged: it has no database match
/// and its predicate is not derived by any rule (not in `derivable`).
/// States containing such an atom are dead and can be pruned — further
/// bindings only shrink an atom's match set.
bool HasDeadAtom(const std::vector<Atom>& atoms, const Instance& database,
                 const std::unordered_set<PredicateId>& derivable);

}  // namespace vadalog

#endif  // VADALOG_ENGINE_STATE_H_
