#include "storage/homomorphism.h"

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <unordered_map>

namespace vadalog {
namespace {

/// Grow-only matcher scratch: bindings live in flat arrays indexed by
/// variable index (variables are numbered per statement, so indices stay
/// small and dense), so matching does not allocate once warm.
struct HomScratch {
  std::vector<Term> binding;              // per variable index
  std::vector<char> bound;                // per variable index
  std::vector<uint32_t> touched;          // bound indices to reset
  std::vector<const Relation*> relation;  // per pattern atom
  std::vector<char> placed;               // per pattern atom
  std::vector<uint32_t> order;            // join order
  std::vector<uint32_t> free_vars;        // pattern variables the seed misses
  std::vector<Term> images;               // per free variable, at a match
};

void Unbind(HomScratch* s, size_t mark) {
  while (s->touched.size() > mark) {
    s->bound[s->touched.back()] = 0;
    s->touched.pop_back();
  }
}

/// Lends each matcher call a thread-local scratch. A callback may run the
/// matcher again (the linear search simplifies each match-and-drop child,
/// which calls HasHomomorphism), so every nesting level gets its own.
class ScratchLease {
 public:
  ScratchLease() {
    Pool& pool = ThisThreadPool();
    if (pool.depth == pool.levels.size()) {
      pool.levels.push_back(std::make_unique<HomScratch>());
    }
    scratch_ = pool.levels[pool.depth++].get();
    Unbind(scratch_, 0);  // left bound if a callback threw
  }
  ~ScratchLease() { --ThisThreadPool().depth; }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  HomScratch* get() const { return scratch_; }

 private:
  struct Pool {
    std::vector<std::unique_ptr<HomScratch>> levels;
    size_t depth = 0;
  };
  static Pool& ThisThreadPool() {
    static thread_local Pool pool;
    return pool;
  }

  HomScratch* scratch_;
};

/// A pattern whose variable indices address the flat scratch arrays.
/// The parser and the searches number variables densely, so a pattern is
/// used as is while every index stays below kMaxVar; past that, its
/// variables are renumbered 0, 1, ... in first-occurrence order (a
/// bijection, so matches are unchanged). Either way the scratch grows
/// with the number of distinct variables, never with their indices, and
/// every flat index fits in 32 bits.
class FlatPattern {
 public:
  static constexpr uint64_t kMaxVar = 4096;

  explicit FlatPattern(std::span<const Atom> atoms) : atoms_(atoms) {
    uint64_t max_var = 0;
    bool any = false;
    for (const Atom& a : atoms) {
      for (Term t : a.args) {
        if (!t.is_variable()) continue;
        any = true;
        max_var = std::max(max_var, t.index());
      }
    }
    if (!any) return;
    if (max_var < kMaxVar) {
      num_vars_ = max_var + 1;
      return;
    }
    dense_.assign(atoms.begin(), atoms.end());
    for (Atom& a : dense_) {
      for (Term& t : a.args) {
        if (!t.is_variable()) continue;
        auto [it, inserted] = renaming_.try_emplace(
            t.index(), static_cast<uint32_t>(original_.size()));
        if (inserted) original_.push_back(t);
        t = Term::Variable(it->second);
      }
    }
    atoms_ = dense_;
    num_vars_ = original_.size();
  }

  /// The atoms to match, over flat indices.
  std::span<const Atom> atoms() const { return atoms_; }

  /// One past the largest flat index.
  uint64_t num_vars() const { return num_vars_; }

  /// The pattern's own variable behind flat index `v`.
  Term Original(uint32_t v) const {
    return original_.empty() ? Term::Variable(v) : original_[v];
  }

  /// The flat index of the pattern variable `t`; false if `t` is not one.
  bool FlatIndex(Term t, uint32_t* v) const {
    if (original_.empty()) {
      if (t.index() >= num_vars_) return false;
      *v = static_cast<uint32_t>(t.index());
      return true;
    }
    auto it = renaming_.find(t.index());
    if (it == renaming_.end()) return false;
    *v = it->second;
    return true;
  }

 private:
  std::span<const Atom> atoms_;
  uint64_t num_vars_ = 0;
  std::vector<Atom> dense_;
  std::vector<Term> original_;  // empty unless renumbered
  std::unordered_map<uint64_t, uint32_t> renaming_;
};

/// Grows the binding arrays to cover every variable of `pattern`.
void Reserve(const FlatPattern& pattern, HomScratch* s) {
  if (s->binding.size() < pattern.num_vars()) {
    s->binding.resize(pattern.num_vars());
    s->bound.resize(pattern.num_vars(), 0);
  }
}

void Bind(HomScratch* s, uint32_t v, Term image) {
  s->bound[v] = 1;
  s->binding[v] = image;
  s->touched.push_back(v);
}

/// Looks up each atom's relation; false if one has none (no match then).
bool FindRelations(std::span<const Atom> atoms, const Instance& instance,
                   HomScratch* s) {
  s->relation.clear();
  for (const Atom& a : atoms) {
    const Relation* rel = instance.RelationFor(a.predicate);
    if (rel == nullptr) return false;
    s->relation.push_back(rel);
  }
  return true;
}

/// Extends the bindings so that `atom` maps onto `tuple`: constants and
/// nulls match exactly, bound variables their image. Returns false on a
/// mismatch, leaving partial bindings for the caller to unbind.
bool BindTuple(const Atom& atom, const std::vector<Term>& tuple,
               HomScratch* s) {
  for (size_t i = 0; i < atom.args.size(); ++i) {
    Term arg = atom.args[i];
    if (!arg.is_variable()) {
      if (arg != tuple[i]) return false;
      continue;
    }
    uint32_t v = static_cast<uint32_t>(arg.index());
    if (s->bound[v] != 0) {
      if (s->binding[v] != tuple[i]) return false;
    } else {
      Bind(s, v, tuple[i]);
    }
  }
  return true;
}

/// Chooses the join order greedily: the atom with the most bound terms
/// first (ties: smaller relation, then lower index), counting what is
/// already bound. Records the variables it binds in `s->free_vars`, in
/// order of first binding, and leaves the bindings as it found them.
void PlanJoin(std::span<const Atom> atoms, HomScratch* s) {
  size_t mark = s->touched.size();
  s->order.clear();
  s->placed.assign(atoms.size(), 0);
  for (size_t step = 0; step < atoms.size(); ++step) {
    size_t best = atoms.size();
    size_t best_bound = 0;
    size_t best_size = ~size_t{0};
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (s->placed[i] != 0) continue;
      size_t bound = 0;
      for (Term t : atoms[i].args) {
        if (t.is_rigid() || s->bound[t.index()] != 0) ++bound;
      }
      size_t size = s->relation[i]->size();
      if (best == atoms.size() || bound > best_bound ||
          (bound == best_bound && size < best_size)) {
        best = i;
        best_bound = bound;
        best_size = size;
      }
    }
    s->placed[best] = 1;
    s->order.push_back(static_cast<uint32_t>(best));
    for (Term t : atoms[best].args) {
      if (t.is_variable() && s->bound[t.index()] == 0) {
        Bind(s, static_cast<uint32_t>(t.index()), t);
      }
    }
  }
  s->free_vars.assign(s->touched.begin() + mark, s->touched.end());
  Unbind(s, mark);
}

/// The substitution handed to callbacks, keyed by the pattern's own
/// variables. Every match binds the same variables, so their map nodes
/// are made once and each match overwrites their images through pointers
/// (map nodes never move): no map churn.
class ReusedSubstitution {
 public:
  ReusedSubstitution(const Substitution& seed, std::span<const uint32_t> vars,
                     const FlatPattern& pattern)
      : h_(seed) {
    slot_.reserve(vars.size());
    for (uint32_t v : vars) slot_.push_back(&h_[pattern.Original(v)]);
  }

  /// Sets the images of the variables, in constructor order.
  const Substitution& Fill(const Term* images) {
    for (size_t i = 0; i < slot_.size(); ++i) *slot_[i] = images[i];
    return h_;
  }

 private:
  Substitution h_;
  std::vector<Term*> slot_;
};

/// Enumerates the matches of `atoms` (in `s->order`, from `depth`) that
/// extend the current bindings, calling `leaf()` on each with every
/// variable bound. Each atom is matched through the positional index of
/// its most selective bound position, rows in index order. Returns false
/// as soon as `leaf` does.
template <typename Leaf>
bool Match(std::span<const Atom> atoms, HomScratch* s, size_t depth,
           Leaf& leaf) {
  if (depth == s->order.size()) return leaf();
  const Atom& atom = atoms[s->order[depth]];
  const Relation* rel = s->relation[s->order[depth]];

  const std::vector<uint32_t>* best_rows = nullptr;
  for (size_t i = 0; i < atom.args.size(); ++i) {
    Term t = atom.args[i];
    if (t.is_variable()) {
      if (s->bound[t.index()] == 0) continue;
      t = s->binding[t.index()];
    }
    const std::vector<uint32_t>& rows =
        rel->RowsWith(static_cast<uint32_t>(i), t);
    if (best_rows == nullptr || rows.size() < best_rows->size()) {
      best_rows = &rows;
    }
  }

  auto try_row = [&](size_t row) {
    size_t mark = s->touched.size();
    bool go_on = !BindTuple(atom, rel->TupleAt(row), s) ||
                 Match(atoms, s, depth + 1, leaf);
    Unbind(s, mark);
    return go_on;
  };
  if (best_rows != nullptr) {
    for (uint32_t row : *best_rows) {
      if (!try_row(row)) return false;
    }
  } else {
    for (size_t row = 0; row < rel->size(); ++row) {
      if (!try_row(row)) return false;
    }
  }
  return true;
}

}  // namespace

bool ForEachHomomorphism(const std::vector<Atom>& original_atoms,
                         const Instance& instance, const Substitution& seed,
                         const HomomorphismCallback& callback) {
  if (original_atoms.empty()) return callback(seed);
  ScratchLease lease;
  HomScratch* s = lease.get();
  if (!FindRelations(original_atoms, instance, s)) return true;
  FlatPattern pattern(original_atoms);
  std::span<const Atom> atoms = pattern.atoms();
  Reserve(pattern, s);
  for (const auto& [from, to] : seed) {
    uint32_t v;
    if (!from.is_variable() || !pattern.FlatIndex(from, &v)) continue;
    Bind(s, v, to);
  }
  PlanJoin(atoms, s);

  ReusedSubstitution h(seed, s->free_vars, pattern);
  s->images.resize(s->free_vars.size());
  auto leaf = [&] {
    for (size_t i = 0; i < s->free_vars.size(); ++i) {
      s->images[i] = s->binding[s->free_vars[i]];
    }
    return callback(h.Fill(s->images.data()));
  };
  return Match(atoms, s, 0, leaf);
}

uint64_t ForEachDeltaTrigger(std::span<const Atom> original_body,
                             std::span<const Atom> delta,
                             const Instance& instance,
                             const HomomorphismCallback& apply) {
  ScratchLease lease;
  HomScratch* s = lease.get();
  FlatPattern flat(original_body);
  std::span<const Atom> body = flat.atoms();
  Reserve(flat, s);
  // Every match binds exactly the body's variables, so a match is buffered
  // as one flat row of their images and replayed into one reused
  // substitution.
  std::vector<uint32_t> vars;
  for (const Atom& atom : body) {
    for (Term t : atom.args) {
      if (!t.is_variable()) continue;
      uint32_t v = static_cast<uint32_t>(t.index());
      if (std::find(vars.begin(), vars.end(), v) == vars.end()) {
        vars.push_back(v);
      }
    }
  }
  ReusedSubstitution h({}, vars, flat);

  uint64_t enumerated = 0;
  std::vector<Term> rows;
  size_t matches = 0;
  auto leaf = [&] {
    for (uint32_t v : vars) rows.push_back(s->binding[v]);
    ++matches;
    return true;
  };
  std::vector<Atom> rest;
  for (size_t anchor = 0; anchor < body.size(); ++anchor) {
    const Atom& pattern = body[anchor];
    // The body atoms the anchored match completes against the full
    // instance: fixed per anchor, so built once for the whole delta.
    rest.clear();
    for (size_t i = 0; i < body.size(); ++i) {
      if (i != anchor) rest.push_back(body[i]);
    }
    for (const Atom& delta_atom : delta) {
      if (delta_atom.predicate != pattern.predicate) continue;
      // Matching must not run concurrently with insertions (relation
      // storage may reallocate): buffer the matches, apply after. The
      // anchor binds straight into the scratch; relations and the join
      // order are looked up afresh, as `apply` may have inserted.
      rows.clear();
      matches = 0;
      if (BindTuple(pattern, delta_atom.args, s) &&
          FindRelations(rest, instance, s)) {
        PlanJoin(rest, s);
        Match(rest, s, 0, leaf);
      }
      Unbind(s, 0);
      enumerated += matches;
      for (size_t k = 0; k < matches; ++k) {
        if (!apply(h.Fill(rows.data() + k * vars.size()))) return enumerated;
      }
    }
  }
  return enumerated;
}

bool HasHomomorphism(std::span<const Atom> original_atoms,
                     const Instance& instance) {
  ScratchLease lease;
  HomScratch* s = lease.get();
  if (!FindRelations(original_atoms, instance, s)) return false;
  FlatPattern pattern(original_atoms);
  std::span<const Atom> atoms = pattern.atoms();
  Reserve(pattern, s);
  PlanJoin(atoms, s);
  auto stop = [] { return false; };
  return !Match(atoms, s, 0, stop);
}

std::vector<std::vector<Term>> EvaluateQuery(const ConjunctiveQuery& query,
                                             const Instance& instance,
                                             bool certain_only) {
  std::vector<std::vector<Term>> results;
  std::set<std::vector<Term>> seen;
  ForEachHomomorphism(
      query.atoms, instance, {}, [&](const Substitution& h) {
        std::vector<Term> tuple;
        tuple.reserve(query.output.size());
        bool ok = true;
        for (Term t : query.output) {
          Term image = ApplySubstitution(h, t);
          if (certain_only && !image.is_constant()) {
            ok = false;
            break;
          }
          tuple.push_back(image);
        }
        if (ok && seen.insert(tuple).second) results.push_back(tuple);
        return true;
      });
  return results;
}

std::vector<std::vector<Term>> EvaluateQuerySorted(
    const ConjunctiveQuery& query, const Instance& instance,
    bool certain_only) {
  std::vector<std::vector<Term>> results =
      EvaluateQuery(query, instance, certain_only);
  std::sort(results.begin(), results.end());
  return results;
}

namespace {

/// Grow-only scratch for HasStateHomomorphism: the subsumption pruning of
/// the proof searches calls it millions of times on tiny states, so the
/// matcher must not allocate. Variable bindings live in a flat array
/// indexed by variable index (states are canonically renamed, so indices
/// are small and dense); candidate lists are one flat arena.
struct StateHomScratch {
  std::vector<Term> binding;        // per from-variable index
  std::vector<char> bound;          // per from-variable index
  std::vector<uint32_t> touched;    // bound indices to reset
  std::vector<const Atom*> arena;   // concatenated candidate lists
  std::vector<std::pair<uint32_t, uint32_t>> span;  // per from-atom [b, e)
  std::vector<size_t> order;
};

bool MatchStateFrom(std::span<const Atom> from, StateHomScratch* s,
                    size_t depth) {
  if (depth == s->order.size()) return true;
  const Atom& atom = from[s->order[depth]];
  auto [begin, end] = s->span[s->order[depth]];
  for (uint32_t c = begin; c < end; ++c) {
    const Atom* target = s->arena[c];
    size_t touched_mark = s->touched.size();
    bool ok = true;
    for (size_t i = 0; i < atom.args.size() && ok; ++i) {
      Term arg = atom.args[i];
      Term t = target->args[i];
      if (!arg.is_variable()) {
        ok = arg == t;  // constants and nulls map to themselves
        continue;
      }
      uint32_t v = static_cast<uint32_t>(arg.index());
      if (s->bound[v] != 0) {
        ok = s->binding[v] == t;
      } else {
        s->bound[v] = 1;
        s->binding[v] = t;
        s->touched.push_back(v);
      }
    }
    if (ok && MatchStateFrom(from, s, depth + 1)) return true;
    while (s->touched.size() > touched_mark) {
      s->bound[s->touched.back()] = 0;
      s->touched.pop_back();
    }
  }
  return false;
}

}  // namespace

bool HasStateHomomorphism(const std::vector<Atom>& original_from,
                          const std::vector<Atom>& onto) {
  if (original_from.empty()) return true;
  // Proof states are canonically renamed, so their indices are small and
  // match in place; larger ones are renumbered densely (FlatPattern).
  FlatPattern pattern(original_from);
  std::span<const Atom> from = pattern.atoms();

  static thread_local StateHomScratch scratch;
  StateHomScratch* s = &scratch;
  if (s->binding.size() < pattern.num_vars()) {
    s->binding.resize(pattern.num_vars());
    s->bound.resize(pattern.num_vars(), 0);
  }
  s->arena.clear();
  s->span.clear();

  // Per-atom candidate targets (same predicate and arity, rigid positions
  // compatible up front). An atom with no candidate kills the match.
  for (const Atom& a : from) {
    uint32_t begin = static_cast<uint32_t>(s->arena.size());
    for (const Atom& target : onto) {
      if (target.predicate != a.predicate ||
          target.args.size() != a.args.size()) {
        continue;
      }
      bool compatible = true;
      for (size_t k = 0; k < a.args.size() && compatible; ++k) {
        if (!a.args[k].is_variable()) {
          compatible = a.args[k] == target.args[k];
        }
      }
      if (compatible) s->arena.push_back(&target);
    }
    if (s->arena.size() == begin) return false;
    s->span.emplace_back(begin, static_cast<uint32_t>(s->arena.size()));
  }
  // Most-constrained-first: fewer candidates earlier prunes harder.
  s->order.resize(from.size());
  for (size_t i = 0; i < from.size(); ++i) s->order[i] = i;
  std::sort(s->order.begin(), s->order.end(), [s](size_t a, size_t b) {
    return s->span[a].second - s->span[a].first <
           s->span[b].second - s->span[b].first;
  });
  bool found = MatchStateFrom(from, s, 0);
  // A successful match leaves its bindings in place — reset them so the
  // flat arrays are clean for the next call.
  for (uint32_t v : s->touched) s->bound[v] = 0;
  s->touched.clear();
  return found;
}

}  // namespace vadalog

