// Homomorphism enumeration: matching conjunctions of atoms (with
// variables) against an instance. This is the workhorse behind chase-step
// applicability, CQ evaluation (Proposition 2.1), and the match-and-drop
// step of the bounded proof search.
//
// One matcher serves every entry point below: a greedy join order (most
// bound terms first, ties to the smaller relation), each atom matched
// through the positional index of its most selective bound position, and
// bindings in flat per-variable-index arrays on a grow-only thread-local
// scratch (one per nesting level, so a callback may match again). The
// entry points differ only in what they do at a match.

#ifndef VADALOG_STORAGE_HOMOMORPHISM_H_
#define VADALOG_STORAGE_HOMOMORPHISM_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "ast/atom.h"
#include "ast/rule.h"
#include "storage/instance.h"

namespace vadalog {

/// Callback invoked once per homomorphism with the full substitution
/// (bindings for every variable of the matched atoms, plus whatever was in
/// the seed). Return false to stop enumeration early.
using HomomorphismCallback = std::function<bool(const Substitution&)>;

/// Enumerates homomorphisms h extending `seed` with h(atoms) ⊆ instance.
/// Terms in the atoms that are constants or nulls must match exactly
/// (homomorphisms are the identity on C; nulls in a *pattern* are treated
/// as rigid names, which is what chase-step applicability needs). The
/// seed binds variables to constants or nulls; its bound variables count
/// as bound for the join order. The callback's substitution is one map,
/// refilled per match, so it is valid only during the call. Returns true
/// if enumeration ran to completion (callback never returned false).
bool ForEachHomomorphism(const std::vector<Atom>& atoms,
                         const Instance& instance, const Substitution& seed,
                         const HomomorphismCallback& callback);

/// Anchored semi-naive trigger enumeration for one rule body: the one
/// bottom-up join routine behind RunChase and the delta rounds of
/// EvaluateDatalog. For each body position, in body order, and each atom
/// of `delta` with that position's predicate, in delta order, binds the
/// position's pattern against the delta atom and completes the match of
/// the other body atoms against `instance`. The matches of one delta atom
/// are buffered, then handed to `apply` one at a time, so `apply` may
/// insert into `instance` (never into `delta`): later delta atoms see its
/// insertions. A match touching k delta atoms is delivered k times.
/// Returning false from `apply` stops the enumeration. Returns the number
/// of matches enumerated (those buffered when `apply` stopped included).
uint64_t ForEachDeltaTrigger(std::span<const Atom> body,
                             std::span<const Atom> delta,
                             const Instance& instance,
                             const HomomorphismCallback& apply);

/// True if at least one homomorphism h with h(atoms) ⊆ instance exists:
/// the enumeration of ForEachHomomorphism (empty seed), stopped at its
/// first match. No allocation once warm.
bool HasHomomorphism(std::span<const Atom> atoms, const Instance& instance);

/// Evaluates a CQ over an instance: the set of output tuples h(x̄) over all
/// homomorphisms. When `certain_only` is set, tuples containing nulls are
/// discarded (certain answers contain constants only).
std::vector<std::vector<Term>> EvaluateQuery(const ConjunctiveQuery& query,
                                             const Instance& instance,
                                             bool certain_only = true);

/// Deduplicated + sorted variant for stable comparisons in tests.
std::vector<std::vector<Term>> EvaluateQuerySorted(
    const ConjunctiveQuery& query, const Instance& instance,
    bool certain_only = true);

/// True iff `from` maps homomorphically into `onto` as CQ states: a map h
/// on the variables of `from` (identity on constants and nulls) such that
/// h(a) is an atom of `onto` for every atom a of `from`. The variables of
/// `onto` are frozen — they act as distinct rigid names, never renamed —
/// which is CQ containment of `onto` in `from` (Chandra–Merlin). This is
/// the primitive behind subsumption-based state pruning: when it holds,
/// any proof of `onto` restricts to a proof of `from`, so a refutation of
/// `from` refutes `onto`.
bool HasStateHomomorphism(const std::vector<Atom>& from,
                          const std::vector<Atom>& onto);

}  // namespace vadalog

#endif  // VADALOG_STORAGE_HOMOMORPHISM_H_
