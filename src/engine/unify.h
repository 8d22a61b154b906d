// Most general unifiers for atoms over constants, nulls, and variables
// (no function symbols). Used by chunk-based resolution (Definition 4.3).
//
// The unifier is flat: a variable's binding sits in an array slot indexed
// by the variable's index, so binding, resolving and undoing never touch
// a hash map. Proof states are canonically renamed and a rule's variables
// are shifted just past the state's, so indices are small and dense; an
// index at or past Unifier::kMaxNear goes to a short side list instead,
// which keeps the array bounded by the cap whatever the indices (the rule
// HasStateHomomorphism and the database matcher follow as well).

#ifndef VADALOG_ENGINE_UNIFY_H_
#define VADALOG_ENGINE_UNIFY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "ast/atom.h"

namespace vadalog {

/// A unifier under construction: a union-find-style binding table. Rigid
/// terms (constants/nulls) are never bound; variables may be bound to
/// variables or rigid terms. Resolve() follows binding chains.
///
/// Bindings are only ever inserted, so the unifier keeps an insertion
/// journal: Mark()/Rewind() give cheap backtracking (the chunk DFS of
/// resolution extends one shared unifier instead of copying it per
/// branch), and a rewound unifier keeps its buffers for the next use.
class Unifier {
 public:
  /// Variables with smaller indices bind in the flat array; the rest in
  /// the side list (renumbered densely in binding order).
  static constexpr uint64_t kMaxNear = 4096;

  /// Follows bindings until a rigid term or an unbound variable.
  Term Resolve(Term t) const {
    while (t.is_variable()) {
      Term next = Binding(t);
      if (next == t) return t;
      t = next;
    }
    return t;
  }

  /// Unifies two terms; returns false on clash (two distinct rigids).
  bool Unify(Term a, Term b);

  /// Unifies two atoms position-wise; false on predicate/arity mismatch or
  /// clash. On failure, bindings added by the partial walk remain; use
  /// Mark()/Rewind() to restore.
  bool UnifyAtoms(const Atom& a, const Atom& b) { return UnifyAtoms(a, b, 0); }

  /// UnifyAtoms with every variable i of `b` read as variable
  /// i + `b_offset`: the σ^o renaming of Definition 4.6 applied on the
  /// fly, without copying the rule.
  bool UnifyAtoms(const Atom& a, const Atom& b, uint64_t b_offset);

  /// Journal position for Rewind().
  size_t Mark() const { return journal_.size(); }

  /// Erases every binding inserted after `mark` (LIFO undo).
  void Rewind(size_t mark);

  /// The class walk: calls `visit(y)` for every variable y whose resolved
  /// representative equals Resolve(t) — t itself when t is a variable,
  /// every bound member, and the representative when it is a variable.
  /// Stops and returns false as soon as `visit` does. Resolution checks
  /// the equivalence class of each existential variable with it, without
  /// collecting the class.
  template <typename Visit>
  bool ForEachInClass(Term t, Visit visit) const {
    Term representative = Resolve(t);
    for (Term v : journal_) {
      if (Resolve(v) == representative && !visit(v)) return false;
    }
    // Unbound members: the representative (a bound t is in the journal).
    if (representative.is_variable()) return visit(representative);
    return true;
  }

 private:
  /// The direct binding of variable `v`, or `v` itself when unbound.
  Term Binding(Term v) const {
    uint64_t i = v.index();
    if (i < kMaxNear) return i < near_.size() ? near_[i] : v;
    for (auto it = far_.rbegin(); it != far_.rend(); ++it) {
      if (it->first == i) return it->second;
    }
    return v;
  }

  void Bind(Term v, Term to);

  std::vector<Term> near_;  // per index < kMaxNear: binding, or self
  std::vector<std::pair<uint64_t, Term>> far_;  // larger indices, LIFO
  std::vector<Term> journal_;  // bound variables, in insertion order
};

}  // namespace vadalog

#endif  // VADALOG_ENGINE_UNIFY_H_
