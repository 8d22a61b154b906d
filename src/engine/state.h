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
//
// The canonical encoding identifies a state on its own, so the searches
// encode first: a successor is encoded (CanonicalEncoding), probed
// against the visited set and the cache on its encoding alone, and only a
// survivor gets its atoms, decoded from the encoding (DecodeAtoms).

#ifndef VADALOG_ENGINE_STATE_H_
#define VADALOG_ENGINE_STATE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ast/atom.h"
#include "storage/instance.h"

namespace vadalog {

/// A canonicalized proof state. The encoding is a flat word sequence: per
/// atom a predicate word (tag 2 in the top two bits, the predicate id
/// below), then one word per argument — a rigid term's packed bits (tags
/// 0/1), or a canonical variable rank under tag 3.
struct CanonicalState {
  std::vector<Atom> atoms;        // canonical atom order, variables 0..k-1
  std::vector<uint64_t> encoding; // flat injective encoding of `atoms`
  size_t hash = 0;                // hash of `encoding`, fixed at creation
  // Subsumption prefilter masks, set with the atoms: one bit per
  // predicate id mod 64, and one per hashed rigid term.
  uint64_t predicate_mask = 0;
  uint64_t rigid_mask = 0;

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
CanonicalState Canonicalize(const std::vector<Atom>& atoms,
                            bool rename_nulls = false,
                            std::unordered_map<Term, Term>* mapping = nullptr);

/// The first half of Canonicalize: the canonical encoding and its hash
/// only (`atoms` of the result stay empty). Equal to Canonicalize's
/// encoding, so it decides visited-set and cache membership by itself.
CanonicalState CanonicalEncoding(const std::vector<Atom>& atoms);

/// The second half: materializes `state->atoms` (and the subsumption
/// masks) from `state->encoding`, with exact reserves.
void DecodeAtoms(CanonicalState* state);

/// True iff `word` of a canonical encoding is a predicate word, i.e.
/// starts an atom.
inline bool IsPredicateWord(uint64_t word) { return (word >> 62) == 2; }

/// The predicate of a predicate word.
inline PredicateId EncodedPredicate(uint64_t word) {
  return static_cast<PredicateId>(word & ((uint64_t{1} << 62) - 1));
}

/// One past the last word of the encoded atom starting at `begin`.
inline size_t EncodedAtomEnd(const std::vector<uint64_t>& encoding,
                             size_t begin) {
  size_t end = begin + 1;
  while (end < encoding.size() && !IsPredicateWord(encoding[end])) ++end;
  return end;
}

/// Splits a state into connected components: atoms sharing a variable are
/// in the same component (constants never connect — they are frozen).
/// This is exactly the finest decomposition of Definition 4.4.
std::vector<std::vector<Atom>> SplitComponents(const std::vector<Atom>& atoms);

/// Per-atom connected-component ids (same connectivity as SplitComponents;
/// ids are dense, in first-occurrence order). No database work.
std::vector<int> ComponentIds(const std::vector<Atom>& atoms);

/// ComponentIds into `ids`, reusing its buffer.
void ComponentIds(const std::vector<Atom>& atoms, std::vector<int>* ids);

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
/// `components` are the parent's ComponentIds. SuccessorCursor applies it
/// for both searches.
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

}  // namespace vadalog

#endif  // VADALOG_ENGINE_STATE_H_
