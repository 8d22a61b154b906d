// The successor operations of the proof searches: chunk-based resolution
// (Definition 4.3) and match-and-drop.
//
// Given a CQ state q (whose output variables are already frozen to
// constants, per the Section 4.3 algorithm box) and a single-head TGD σ
// with variables disjoint from q, a chunk unifier is a triple (S1, S2, γ)
// with S1 ⊆ atoms(q), S2 = head(σ), and γ a unifier such that every
// existential variable x of σ occurring in S2 satisfies:
//   (1) γ(x) is not a constant (nor a null), and
//   (2) γ(x) = γ(y) implies y occurs in S1 and is not shared, where a
//       variable of S1 is shared iff it also occurs in atoms(q) \ S1.
// (Output variables are constants here, so the "output variables are
// shared" clause of the paper is subsumed by (1).)
//
// The σ-resolvent is γ((atoms(q) \ S1) ∪ body(σ)).
//
// Match-and-drop fuses specialization and leaf decomposition: each
// database row the selected atom matches binds that atom's variables,
// and the atom is dropped as a leaf.
//
// Both operations are dead-first for the searches: a successor containing
// an atom that can never be discharged (ProgramIndex::AtomIsDead) is
// rejected before it is built. Only the γ-images of the atoms the step
// binds can turn dead — the others are the parent's atoms unchanged,
// tested once per call — so only those are rebuilt, in a scratch atom,
// and tested. Every atom of a successor is thus tested, and the searches
// run no dead test of their own on it.
// SuccessorCursor runs both operations in the searches' order.

#ifndef VADALOG_ENGINE_RESOLUTION_H_
#define VADALOG_ENGINE_RESOLUTION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ast/program.h"
#include "ast/rule.h"
#include "engine/proof_tree.h"
#include "storage/instance.h"

namespace vadalog {

class ProgramIndex;

/// The existential variables of `tgd` (head variables absent from the
/// body), in first-occurrence order of the head. ProgramIndex keeps them
/// per TGD, so the searches never recompute them per step.
std::vector<Term> ExistentialVariablesOf(const Tgd& tgd);

struct Resolvent {
  std::vector<Atom> atoms;   // the resolved CQ state
  size_t tgd_index;          // which σ was applied
  std::vector<size_t> chunk; // indices of the resolved S1 atoms in the state
  /// Dead resolvents the dead-first filter dropped just before this one
  /// in enumeration order (always 0 without the filter), so callers can
  /// count every edge in the unfiltered order.
  size_t dead_before = 0;
};

/// Sentinel for `anchor`: enumerate chunks without an anchoring atom.
inline constexpr size_t kNoAnchor = static_cast<size_t>(-1);

/// Enumerates all σ-resolvents of `state` with the single-head TGD at
/// `tgd_index` of `program`. `max_chunk` bounds |S1| (chunks larger than
/// the node width can never be needed). Fresh body variables are renamed
/// starting at `fresh_variable_base` to stay disjoint from state variables.
/// When `anchor` names a state atom, only chunks containing that atom are
/// enumerated (the SLD selection restriction of the searches), skipping
/// the non-anchored chunks instead of generating and discarding them.
std::vector<Resolvent> ResolveWithTgd(const std::vector<Atom>& state,
                                      const Program& program,
                                      size_t tgd_index,
                                      uint64_t fresh_variable_base,
                                      size_t max_chunk = 4,
                                      size_t anchor = kNoAnchor);

/// The proof searches' resolution: the same enumeration, with the
/// existential variables `index` precomputed for `tgd_index` (`index`
/// must be built for `program`), dead-first — a resolvent containing an
/// atom `index` finds dead against `database` is dropped before it is
/// built. The rule is never copied: its variable i is read as
/// i + `fresh_variable_base`. `out` is cleared and refilled with the
/// survivors, in enumeration order; returns the number dropped.
size_t ResolveWithTgd(const std::vector<Atom>& state, const Program& program,
                      const ProgramIndex& index, const Instance& database,
                      size_t tgd_index, uint64_t fresh_variable_base,
                      size_t max_chunk, size_t anchor,
                      std::vector<Resolvent>* out);

/// Enumerates resolvents over every TGD of the program.
std::vector<Resolvent> ResolveAll(const std::vector<Atom>& state,
                                  const Program& program,
                                  uint64_t fresh_variable_base,
                                  size_t max_chunk = 4);

/// Match-and-drop of one selected state atom, without substitution maps:
/// the database rows the atom matches (in the order the database matcher
/// enumerates them: through the positional index of the most selective
/// rigid position, else every row) and, per variable slot of the other
/// atoms, the selected atom's position whose value binds it. A plan is
/// reusable: Plan() keeps the buffers of the previous one.
class DropPlan {
 public:
  /// Plans dropping `state[selected]` against `database`. `index` marks
  /// the matches whose child is dead (see ChildIsDead).
  void Plan(const std::vector<Atom>& state, size_t selected,
            const ProgramIndex& index, const Instance& database);

  /// Number of matching rows.
  size_t size() const { return rows_.size(); }

  /// The database tuple of match `k`: matched fact = (predicate, tuple).
  const std::vector<Term>& Tuple(size_t k) const {
    return relation_->TupleAt(rows_[k]);
  }
  PredicateId predicate() const { return predicate_; }

  /// True iff the child of match `k` contains an atom the plan's index
  /// finds dead. Only atoms the match binds are rebuilt and tested.
  bool ChildIsDead(size_t k) const;

  /// Writes the child of match `k` — rest() with the match's bindings
  /// applied — into `child`, reusing its buffers.
  void BuildChild(size_t k, std::vector<Atom>* child) const;

  /// Frees the matched rows (size() becomes 0). The other buffers stay
  /// for the next Plan().
  void ReleaseRows() { std::vector<uint32_t>().swap(rows_); }

 private:
  struct Slot {
    uint32_t atom;   // index into rest_
    uint32_t arg;    // argument position
    uint32_t pivot;  // position of the selected atom binding it
  };

  const ProgramIndex* index_ = nullptr;
  const Instance* database_ = nullptr;
  const Relation* relation_ = nullptr;
  PredicateId predicate_ = kInvalidPredicate;
  std::vector<uint32_t> rows_;
  std::vector<Atom> rest_;
  std::vector<Slot> slots_;     // grouped by atom, ascending
  std::vector<uint32_t> test_;  // rest atoms a match can turn dead
  bool untouched_dead_ = false;  // a rest atom no match binds is dead
};

/// One successor of a proof state, as SuccessorCursor::Next yields it:
/// its atoms before simplification, the EagerSimplifyIncremental dirty
/// flags that go with them, and the step that made it.
struct Successor {
  std::vector<Atom> atoms;
  std::vector<char> dirty;
  ProofStep::Kind kind = ProofStep::Kind::kMatchDrop;
  size_t tgd_index = 0;  // kResolution: the TGD resolved with
  /// kMatchDrop: the database fact the selected atom matched, as its
  /// predicate and a tuple owned by the database (for explanations).
  PredicateId matched_predicate = kInvalidPredicate;
  const std::vector<Term>* matched_tuple = nullptr;
};

/// The move set of both proof searches (Section 4.3) over one state, one
/// successor per call: first match-and-drop of the selected atom, one
/// child per matching database row in the DropPlan's order, then the
/// chunk resolvents through the selected atom, TGD by TGD over the
/// relevance bucket of its predicate, each TGD resolved only once the
/// previous one is drained. Dead successors are skipped unbuilt, so
/// every successor yielded has passed the dead test; the edge counts
/// still include them, in enumeration order, up to the successor just
/// yielded.
///
/// The cursor keeps no pointer to the state: Next() takes the state's
/// atoms again, so their owner (a search frame) may move between calls.
/// The matched rows are freed once the drops are drained, so a cursor
/// parked mid-resolution holds nothing sized by the database.
class SuccessorCursor {
 public:
  /// Starts the successors of `state`, which must be non-empty and
  /// simplified (the dirty flags rely on it). The program, index and
  /// database must outlive the enumeration.
  void Start(const std::vector<Atom>& state, const Program& program,
             const ProgramIndex& index, const Instance& database,
             size_t max_chunk);

  /// Writes the next successor of `state` — the atoms Start() got — into
  /// `out`, reusing its buffers. Returns false when none is left.
  bool Next(const std::vector<Atom>& state, Successor* out);

  /// Match-and-drop and resolution edges, dead ones included, up to the
  /// last successor yielded (all of them once Next() returned false).
  uint64_t drop_edges() const { return drop_edges_; }
  uint64_t resolution_edges() const { return resolution_edges_; }

 private:
  const Program* program_ = nullptr;
  const ProgramIndex* index_ = nullptr;
  const Instance* database_ = nullptr;
  size_t max_chunk_ = 0;
  size_t selected_ = 0;
  std::vector<int> components_;  // the state's ComponentIds
  std::vector<char> rest_dirty_;  // dirty flags of every drop child
  DropPlan drop_;
  size_t next_drop_ = 0;
  const std::vector<size_t>* tgds_ = nullptr;  // relevance bucket
  size_t next_tgd_ = 0;
  uint64_t fresh_base_ = 0;
  std::vector<Resolvent> resolvents_;  // survivors of the current TGD
  size_t next_resolvent_ = 0;
  size_t dead_left_ = 0;  // the current TGD's dead ones not yet counted
  uint64_t drop_edges_ = 0;
  uint64_t resolution_edges_ = 0;
};

}  // namespace vadalog

#endif  // VADALOG_ENGINE_RESOLUTION_H_
