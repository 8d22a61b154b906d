#include "engine/resolution.h"

#include <algorithm>
#include <cassert>

#include "engine/search_cache.h"
#include "engine/state.h"
#include "engine/unify.h"

namespace vadalog {
namespace {

/// Grow-only per-thread scratch for one enumeration: the unifier, the
/// chunk DFS and the dead test reuse it, so a warm call allocates only
/// the resolvents it emits.
struct ResolveScratch {
  Unifier unifier;
  std::vector<size_t> candidates;
  std::vector<size_t> chunk;
  std::vector<char> in_chunk;
  std::vector<char> dead_as_is;  // per state atom, for the dead test
  Atom image;                    // γ-image of one atom, for the dead test
};

ResolveScratch* ThreadResolveScratch() {
  static thread_local ResolveScratch scratch;
  return &scratch;
}

/// The chunk DFS of one ResolveWithTgd call.
class ChunkResolver {
 public:
  ChunkResolver(const std::vector<Atom>& state, const Tgd& tgd,
                const std::vector<Term>& existentials, size_t tgd_index,
                uint64_t fresh_variable_base, size_t max_chunk,
                const ProgramIndex* index, const Instance* database,
                ResolveScratch* s, std::vector<Resolvent>* out)
      : state_(state),
        head_(tgd.head[0]),
        body_(tgd.body),
        existentials_(existentials),
        tgd_index_(tgd_index),
        base_(fresh_variable_base),
        max_chunk_(max_chunk),
        index_(index),
        database_(database),
        s_(s),
        out_(out) {}

  /// Runs the enumeration; returns the number of dead resolvents dropped.
  size_t Run(size_t anchor) {
    PredicateId head_predicate = head_.predicate;
    if (anchor != kNoAnchor && state_[anchor].predicate != head_predicate) {
      return 0;  // the anchor can never join a chunk of this TGD
    }
    s_->candidates.clear();
    for (size_t i = 0; i < state_.size(); ++i) {
      if (state_[i].predicate == head_predicate && i != anchor) {
        s_->candidates.push_back(i);
      }
    }
    s_->chunk.clear();
    s_->unifier.Rewind(0);
    if (anchor != kNoAnchor) {
      // Pre-seed the chunk with the anchor; every emitted chunk extends it.
      if (!s_->unifier.UnifyAtoms(state_[anchor], head_, base_)) {
        s_->unifier.Rewind(0);
        return 0;
      }
      s_->chunk.push_back(anchor);
    } else if (s_->candidates.empty()) {
      return 0;
    }
    s_->in_chunk.assign(state_.size(), 0);
    if (index_ != nullptr) {
      // A kept atom no binding touches is the parent's atom as is.
      s_->dead_as_is.resize(state_.size());
      for (size_t i = 0; i < state_.size(); ++i) {
        s_->dead_as_is[i] = index_->AtomIsDead(state_[i], *database_);
      }
    }
    Extend(0);
    s_->unifier.Rewind(0);
    return dropped_;
  }

 private:
  Term Shifted(Term t) const {
    return t.is_variable() ? Term::Variable(t.index() + base_) : t;
  }

  /// DFS over chunks S1 ⊆ candidate atoms: extends the chunk one atom at
  /// a time, unifying incrementally (a chunk that fails to unify prunes
  /// all of its supersets). The shared unifier is extended in place and
  /// rewound via its journal instead of being copied per branch.
  void Extend(size_t start) {
    if (!s_->chunk.empty()) TryEmit();
    if (s_->chunk.size() >= max_chunk_) return;
    Unifier& unifier = s_->unifier;
    for (size_t i = start; i < s_->candidates.size(); ++i) {
      size_t mark = unifier.Mark();
      size_t atom = s_->candidates[i];
      if (unifier.UnifyAtoms(state_[atom], head_, base_)) {
        s_->chunk.push_back(atom);
        Extend(i + 1);
        s_->chunk.pop_back();
      }
      unifier.Rewind(mark);
    }
  }

  /// True iff state variable `y` occurs in the chunk and nowhere else.
  bool OnlyInChunk(Term y) const {
    bool in_chunk = false;
    for (size_t i = 0; i < state_.size(); ++i) {
      const std::vector<Term>& args = state_[i].args;
      if (std::find(args.begin(), args.end(), y) == args.end()) continue;
      if (s_->in_chunk[i] == 0) return false;  // shared
      in_chunk = true;
    }
    return in_chunk;
  }

  /// The existential-variable conditions of a chunk unifier.
  bool ExistentialsHold() const {
    const Unifier& unifier = s_->unifier;
    for (Term existential : existentials_) {
      Term x = Shifted(existential);
      // (1) γ(x) must not be rigid: a fresh null can never equal a
      // constant or a pre-existing null.
      if (unifier.Resolve(x).is_rigid()) return false;
      // (2) every variable unified with x must be a non-shared variable
      // of the chunk. Unifying x with any variable of σ (a frontier
      // variable or another existential) is unsound as well: a fresh null
      // is distinct from every other term of the chase.
      bool ok = unifier.ForEachInClass(x, [&](Term y) {
        if (y == x) return true;
        if (y.index() >= base_) return false;  // a variable of σ
        return OnlyInChunk(y);
      });
      if (!ok) return false;
    }
    return true;
  }

  /// Writes γ(atom) into the scratch image; `shift` reads the atom as a
  /// rule atom. Returns false if γ binds none of its variables.
  bool Image(const Atom& atom, bool shift) {
    Atom& image = s_->image;
    image.predicate = atom.predicate;
    image.args.resize(atom.args.size());
    bool moved = false;
    for (size_t i = 0; i < atom.args.size(); ++i) {
      Term t = shift ? Shifted(atom.args[i]) : atom.args[i];
      Term resolved = s_->unifier.Resolve(t);
      moved = moved || resolved != t;
      image.args[i] = resolved;
    }
    return moved;
  }

  /// The dead-first test on the would-be resolvent, atom by atom, without
  /// building it.
  bool ResolventIsDead() {
    for (size_t i = 0; i < state_.size(); ++i) {
      if (s_->in_chunk[i] != 0) continue;
      if (index_->NeverDead(state_[i].predicate)) continue;
      if (!Image(state_[i], /*shift=*/false)) {
        if (s_->dead_as_is[i] != 0) return true;
        continue;
      }
      if (index_->AtomIsDead(s_->image, *database_)) return true;
    }
    for (const Atom& b : body_) {
      if (index_->NeverDead(b.predicate)) continue;
      Image(b, /*shift=*/true);
      if (index_->AtomIsDead(s_->image, *database_)) return true;
    }
    return false;
  }

  void TryEmit() {
    const std::vector<size_t>& chunk = s_->chunk;
    for (size_t i : chunk) s_->in_chunk[i] = 1;
    bool valid = ExistentialsHold();
    if (valid && index_ != nullptr && ResolventIsDead()) {
      ++dropped_;
      ++dead_run_;
      valid = false;
    }
    if (valid) Emit();
    for (size_t i : chunk) s_->in_chunk[i] = 0;
  }

  /// Builds the resolvent γ((atoms(q) \ S1) ∪ body(σ)), sized exactly.
  void Emit() {
    const Unifier& unifier = s_->unifier;
    Resolvent& resolvent = out_->emplace_back();
    resolvent.tgd_index = tgd_index_;
    resolvent.dead_before = dead_run_;
    dead_run_ = 0;
    resolvent.chunk = s_->chunk;
    std::sort(resolvent.chunk.begin(), resolvent.chunk.end());
    resolvent.atoms.reserve(state_.size() - s_->chunk.size() +
                            body_.size());
    auto emit = [&](const Atom& atom, bool shift) {
      Atom& resolved = resolvent.atoms.emplace_back();
      resolved.predicate = atom.predicate;
      resolved.args.reserve(atom.args.size());
      for (Term t : atom.args) {
        resolved.args.push_back(unifier.Resolve(shift ? Shifted(t) : t));
      }
    };
    for (size_t i = 0; i < state_.size(); ++i) {
      if (s_->in_chunk[i] == 0) emit(state_[i], /*shift=*/false);
    }
    for (const Atom& b : body_) emit(b, /*shift=*/true);
  }

  const std::vector<Atom>& state_;
  const Atom& head_;
  const std::vector<Atom>& body_;
  const std::vector<Term>& existentials_;
  const size_t tgd_index_;
  const uint64_t base_;
  const size_t max_chunk_;
  const ProgramIndex* index_;  // null: no dead-first filter
  const Instance* database_;
  ResolveScratch* s_;
  std::vector<Resolvent>* out_;
  size_t dropped_ = 0;
  size_t dead_run_ = 0;  // dropped since the last emitted resolvent
};

}  // namespace

std::vector<Term> ExistentialVariablesOf(const Tgd& tgd) {
  std::vector<Term> existentials;
  for (const Atom& head : tgd.head) {
    for (Term t : head.args) {
      if (!t.is_variable()) continue;
      bool in_body = false;
      for (const Atom& b : tgd.body) {
        in_body = in_body ||
                  std::find(b.args.begin(), b.args.end(), t) != b.args.end();
      }
      if (!in_body && std::find(existentials.begin(), existentials.end(),
                                t) == existentials.end()) {
        existentials.push_back(t);
      }
    }
  }
  return existentials;
}

std::vector<Resolvent> ResolveWithTgd(const std::vector<Atom>& state,
                                      const Program& program,
                                      size_t tgd_index,
                                      uint64_t fresh_variable_base,
                                      size_t max_chunk, size_t anchor) {
  std::vector<Resolvent> out;
  const Tgd& tgd = program.tgds()[tgd_index];
  assert(tgd.head.size() == 1 &&
         "resolution requires single-head TGDs (normalize first)");
  ChunkResolver(state, tgd, ExistentialVariablesOf(tgd), tgd_index,
                fresh_variable_base, max_chunk, /*index=*/nullptr,
                /*database=*/nullptr, ThreadResolveScratch(), &out)
      .Run(anchor);
  return out;
}

size_t ResolveWithTgd(const std::vector<Atom>& state, const Program& program,
                      const ProgramIndex& index, const Instance& database,
                      size_t tgd_index, uint64_t fresh_variable_base,
                      size_t max_chunk, size_t anchor,
                      std::vector<Resolvent>* out) {
  out->clear();
  const Tgd& tgd = program.tgds()[tgd_index];
  assert(tgd.head.size() == 1 &&
         "resolution requires single-head TGDs (normalize first)");
  return ChunkResolver(state, tgd, index.Existentials(tgd_index), tgd_index,
                       fresh_variable_base, max_chunk, &index, &database,
                       ThreadResolveScratch(), out)
      .Run(anchor);
}

std::vector<Resolvent> ResolveAll(const std::vector<Atom>& state,
                                  const Program& program,
                                  uint64_t fresh_variable_base,
                                  size_t max_chunk) {
  std::vector<Resolvent> out;
  for (size_t i = 0; i < program.tgds().size(); ++i) {
    std::vector<Resolvent> partial = ResolveWithTgd(
        state, program, i, fresh_variable_base, max_chunk);
    for (Resolvent& r : partial) out.push_back(std::move(r));
  }
  return out;
}

void DropPlan::Plan(const std::vector<Atom>& state, size_t selected,
                    const ProgramIndex& index, const Instance& database) {
  const Atom& pivot = state[selected];
  index_ = &index;
  database_ = &database;
  predicate_ = pivot.predicate;
  relation_ = database.RelationFor(pivot.predicate);
  rows_.clear();
  rest_.resize(state.size() - 1);
  slots_.clear();
  test_.clear();
  untouched_dead_ = false;

  // The pivot position first holding each variable (binds it), and the
  // matching rows: rigid positions equal, repeated variables consistent.
  auto first_position = [&pivot](size_t k) {
    size_t p = 0;
    while (pivot.args[p] != pivot.args[k]) ++p;
    return p;
  };
  if (relation_ != nullptr) {
    auto matches = [&](const std::vector<Term>& tuple) {
      for (size_t k = 0; k < pivot.args.size(); ++k) {
        Term arg = pivot.args[k];
        if (!arg.is_variable()) {
          if (tuple[k] != arg) return false;
        } else if (tuple[k] != tuple[first_position(k)]) {
          return false;
        }
      }
      return true;
    };
    const std::vector<uint32_t>* best_rows = nullptr;
    for (size_t k = 0; k < pivot.args.size(); ++k) {
      if (pivot.args[k].is_variable()) continue;
      const std::vector<uint32_t>& rows =
          relation_->RowsWith(static_cast<uint32_t>(k), pivot.args[k]);
      if (best_rows == nullptr || rows.size() < best_rows->size()) {
        best_rows = &rows;
      }
    }
    if (best_rows != nullptr) {
      for (uint32_t row : *best_rows) {
        if (matches(relation_->TupleAt(row))) rows_.push_back(row);
      }
    } else {
      for (size_t row = 0; row < relation_->size(); ++row) {
        if (matches(relation_->TupleAt(row))) {
          rows_.push_back(static_cast<uint32_t>(row));
        }
      }
    }
  }

  size_t j = 0;
  for (size_t i = 0; i < state.size(); ++i) {
    if (i == selected) continue;
    const Atom& atom = state[i];
    rest_[j] = atom;
    bool touched = false;
    for (size_t k = 0; k < atom.args.size(); ++k) {
      Term t = atom.args[k];
      if (!t.is_variable()) continue;
      auto at = std::find(pivot.args.begin(), pivot.args.end(), t);
      if (at == pivot.args.end()) continue;
      slots_.push_back({static_cast<uint32_t>(j), static_cast<uint32_t>(k),
                        static_cast<uint32_t>(at - pivot.args.begin())});
      touched = true;
    }
    if (index.NeverDead(atom.predicate)) {
      // Never dead, whatever a match binds.
    } else if (touched) {
      test_.push_back(static_cast<uint32_t>(j));
    } else if (index.AtomIsDead(atom, database)) {
      untouched_dead_ = true;
    }
    ++j;
  }
}

bool DropPlan::ChildIsDead(size_t k) const {
  if (untouched_dead_) return true;
  static thread_local Atom image;
  const std::vector<Term>& tuple = Tuple(k);
  size_t slot = 0;
  for (uint32_t atom : test_) {
    image = rest_[atom];
    while (slot < slots_.size() && slots_[slot].atom < atom) ++slot;
    for (size_t s = slot; s < slots_.size() && slots_[s].atom == atom; ++s) {
      image.args[slots_[s].arg] = tuple[slots_[s].pivot];
    }
    if (index_->AtomIsDead(image, *database_)) return true;
  }
  return false;
}

void DropPlan::BuildChild(size_t k, std::vector<Atom>* child) const {
  *child = rest_;
  const std::vector<Term>& tuple = Tuple(k);
  for (const Slot& slot : slots_) {
    (*child)[slot.atom].args[slot.arg] = tuple[slot.pivot];
  }
}

void SuccessorCursor::Start(const std::vector<Atom>& state,
                            const Program& program, const ProgramIndex& index,
                            const Instance& database, size_t max_chunk) {
  program_ = &program;
  index_ = &index;
  database_ = &database;
  max_chunk_ = max_chunk;
  selected_ = SelectAtom(state, database);
  // A drop removes the selected atom and binds only variables of its
  // component, so only that component's remnants need re-simplification.
  ComponentIds(state, &components_);
  int pivot_component = components_[selected_];
  rest_dirty_.clear();
  rest_dirty_.reserve(state.size() - 1);
  for (size_t i = 0; i < state.size(); ++i) {
    if (i != selected_) {
      rest_dirty_.push_back(components_[i] == pivot_component ? 1 : 0);
    }
  }
  drop_.Plan(state, selected_, index, database);
  next_drop_ = 0;
  // Chunks through the selected atom exist only for TGDs whose head
  // predicate matches it; their body variables are renamed past the
  // state's.
  fresh_base_ = 0;
  for (const Atom& a : state) {
    for (Term t : a.args) {
      if (t.is_variable()) fresh_base_ = std::max(fresh_base_, t.index() + 1);
    }
  }
  tgds_ = &index.TgdsWithHead(state[selected_].predicate);
  next_tgd_ = 0;
  resolvents_.clear();
  next_resolvent_ = 0;
  dead_left_ = 0;
  drop_edges_ = 0;
  resolution_edges_ = 0;
}

bool SuccessorCursor::Next(const std::vector<Atom>& state, Successor* out) {
  while (next_drop_ < drop_.size()) {
    size_t k = next_drop_++;
    ++drop_edges_;
    bool live = !drop_.ChildIsDead(k);
    if (live) {
      drop_.BuildChild(k, &out->atoms);
      out->dirty = rest_dirty_;
      out->kind = ProofStep::Kind::kMatchDrop;
      out->tgd_index = 0;
      out->matched_predicate = drop_.predicate();
      out->matched_tuple = &drop_.Tuple(k);
    }
    if (next_drop_ == drop_.size()) {
      drop_.ReleaseRows();
      next_drop_ = 0;
    }
    if (live) return true;
  }
  while (true) {
    if (next_resolvent_ < resolvents_.size()) {
      Resolvent& r = resolvents_[next_resolvent_++];
      resolution_edges_ += r.dead_before + 1;
      dead_left_ -= r.dead_before;
      ResolventDirtyFlags(components_, r.chunk, r.atoms.size(), &out->dirty);
      out->atoms = std::move(r.atoms);
      out->kind = ProofStep::Kind::kResolution;
      out->tgd_index = r.tgd_index;
      out->matched_predicate = kInvalidPredicate;
      out->matched_tuple = nullptr;
      return true;
    }
    resolution_edges_ += dead_left_;  // dropped after the last survivor
    dead_left_ = 0;
    if (tgds_ == nullptr || next_tgd_ >= tgds_->size()) return false;
    dead_left_ = ResolveWithTgd(state, *program_, *index_, *database_,
                                (*tgds_)[next_tgd_++], fresh_base_, max_chunk_,
                                /*anchor=*/selected_, &resolvents_);
    next_resolvent_ = 0;
  }
}

}  // namespace vadalog
