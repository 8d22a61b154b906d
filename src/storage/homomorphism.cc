#include "storage/homomorphism.h"

#include <algorithm>
#include <set>
#include <span>

namespace vadalog {
namespace {

/// Chooses a join order greedily: the atom with the most bound terms first
/// (ties: smaller relation). Returns indices into `atoms`.
std::vector<size_t> JoinOrder(const std::vector<Atom>& atoms,
                              const Instance& instance,
                              const Substitution& seed) {
  std::vector<size_t> order;
  std::vector<bool> used(atoms.size(), false);
  std::unordered_set<Term> bound_vars;
  for (const auto& [from, to] : seed) {
    if (from.is_variable()) bound_vars.insert(from);
  }
  auto bound_terms = [&](const Atom& atom) {
    size_t bound = 0;
    for (Term t : atom.args) {
      if (t.is_rigid() || bound_vars.count(t) > 0) ++bound;
    }
    return bound;
  };
  for (size_t step = 0; step < atoms.size(); ++step) {
    size_t best = atoms.size();
    size_t best_bound = 0;
    size_t best_size = ~size_t{0};
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (used[i]) continue;
      size_t bound = bound_terms(atoms[i]);
      const Relation* rel = instance.RelationFor(atoms[i].predicate);
      size_t size = rel == nullptr ? 0 : rel->size();
      if (best == atoms.size() || bound > best_bound ||
          (bound == best_bound && size < best_size)) {
        best = i;
        best_bound = bound;
        best_size = size;
      }
    }
    used[best] = true;
    order.push_back(best);
    for (Term t : atoms[best].args) {
      if (t.is_variable()) bound_vars.insert(t);
    }
  }
  return order;
}

/// Attempts to extend `subst` so that `atom` maps onto `tuple`; appends the
/// newly bound variables to `newly_bound`. Returns false on mismatch (in
/// which case the caller must roll back `newly_bound`).
bool TryExtend(const Atom& atom, const std::vector<Term>& tuple,
               Substitution* subst, std::vector<Term>* newly_bound) {
  for (size_t i = 0; i < atom.args.size(); ++i) {
    Term pattern = ApplySubstitution(*subst, atom.args[i]);
    if (pattern.is_rigid()) {
      if (pattern != tuple[i]) return false;
    } else {
      subst->emplace(pattern, tuple[i]);
      newly_bound->push_back(pattern);
    }
  }
  return true;
}

bool MatchFrom(const std::vector<Atom>& atoms,
               const std::vector<size_t>& order, size_t depth,
               const Instance& instance, Substitution* subst,
               const HomomorphismCallback& callback) {
  if (depth == order.size()) return callback(*subst);
  const Atom& atom = atoms[order[depth]];
  const Relation* rel = instance.RelationFor(atom.predicate);
  if (rel == nullptr) return true;  // no tuples: zero matches, keep going

  // Pick the most selective bound position to drive the index lookup.
  int best_position = -1;
  size_t best_candidates = ~size_t{0};
  for (size_t i = 0; i < atom.args.size(); ++i) {
    Term t = ApplySubstitution(*subst, atom.args[i]);
    if (!t.is_rigid()) continue;
    size_t n = rel->RowsWith(static_cast<uint32_t>(i), t).size();
    if (n < best_candidates) {
      best_candidates = n;
      best_position = static_cast<int>(i);
    }
  }

  auto try_row = [&](size_t row) {
    std::vector<Term> newly_bound;
    if (TryExtend(atom, rel->TupleAt(row), subst, &newly_bound)) {
      if (!MatchFrom(atoms, order, depth + 1, instance, subst, callback)) {
        for (Term t : newly_bound) subst->erase(t);
        return false;
      }
    }
    for (Term t : newly_bound) subst->erase(t);
    return true;
  };

  if (best_position >= 0) {
    Term key = ApplySubstitution(
        *subst, atom.args[static_cast<size_t>(best_position)]);
    for (uint32_t row :
         rel->RowsWith(static_cast<uint32_t>(best_position), key)) {
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

bool ForEachHomomorphism(const std::vector<Atom>& atoms,
                         const Instance& instance, const Substitution& seed,
                         const HomomorphismCallback& callback) {
  if (atoms.empty()) return callback(seed);
  std::vector<size_t> order = JoinOrder(atoms, instance, seed);
  Substitution subst = seed;
  return MatchFrom(atoms, order, 0, instance, &subst, callback);
}

uint64_t ForEachDeltaTrigger(std::span<const Atom> body,
                             std::span<const Atom> delta,
                             const Instance& instance,
                             const HomomorphismCallback& apply) {
  // Every match binds exactly the body's variables, so a match is buffered
  // as one flat row of their images and replayed into one reused
  // substitution: no hash-map copy per match. `slot[i]` points at the
  // image of vars[i] in `h` (map nodes never move).
  std::vector<Term> vars;
  for (const Atom& atom : body) {
    for (Term t : atom.args) {
      if (t.is_variable() && std::find(vars.begin(), vars.end(), t) ==
                                 vars.end()) {
        vars.push_back(t);
      }
    }
  }
  Substitution h;
  std::vector<Term*> slot;
  for (Term v : vars) slot.push_back(&h[v]);

  uint64_t enumerated = 0;
  std::vector<Term> rows;
  std::vector<Term> newly_bound;
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
      // Bind the anchor pattern against the delta atom.
      Substitution seed;
      newly_bound.clear();
      if (!TryExtend(pattern, delta_atom.args, &seed, &newly_bound)) continue;

      // Matching must not run concurrently with insertions (relation
      // storage may reallocate): buffer the matches, apply after.
      rows.clear();
      size_t matches = 0;
      ForEachHomomorphism(rest, instance, seed, [&](const Substitution& m) {
        for (Term v : vars) rows.push_back(m.at(v));
        ++matches;
        return true;
      });
      enumerated += matches;
      for (size_t k = 0; k < matches; ++k) {
        for (size_t i = 0; i < vars.size(); ++i) {
          *slot[i] = rows[k * vars.size() + i];
        }
        if (!apply(h)) return enumerated;
      }
    }
  }
  return enumerated;
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

/// Grow-only scratch for HasHomomorphism: the proof searches' eager
/// simplification runs it on every dirty component of every successor,
/// so the matcher must not allocate. Bindings live in flat arrays indexed
/// by variable index (variables are numbered per statement, so indices
/// stay small and dense).
struct HomScratch {
  std::vector<Term> binding;              // per variable index
  std::vector<char> bound;                // per variable index
  std::vector<uint32_t> touched;          // bound indices to reset
  std::vector<const Relation*> relation;  // per pattern atom
  std::vector<char> placed;               // per pattern atom
  std::vector<uint32_t> order;            // join order
};

void Unbind(HomScratch* s, size_t mark) {
  while (s->touched.size() > mark) {
    s->bound[s->touched.back()] = 0;
    s->touched.pop_back();
  }
}

/// JoinOrder on flat arrays: the atom with the most bound terms first
/// (ties: smaller relation, then lower index). Marks every variable of
/// the pattern bound; the caller resets them.
void FlatJoinOrder(std::span<const Atom> atoms, HomScratch* s) {
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
        s->bound[t.index()] = 1;
        s->touched.push_back(static_cast<uint32_t>(t.index()));
      }
    }
  }
}

bool MatchFlatFrom(std::span<const Atom> atoms, HomScratch* s, size_t depth) {
  if (depth == s->order.size()) return true;
  const Atom& atom = atoms[s->order[depth]];
  const Relation* rel = s->relation[s->order[depth]];

  // Pick the most selective bound position to drive the index lookup.
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
    const std::vector<Term>& tuple = rel->TupleAt(row);
    size_t mark = s->touched.size();
    bool ok = true;
    for (size_t i = 0; i < atom.args.size() && ok; ++i) {
      Term arg = atom.args[i];
      if (!arg.is_variable()) {
        ok = arg == tuple[i];  // constants and nulls match exactly
        continue;
      }
      uint32_t v = static_cast<uint32_t>(arg.index());
      if (s->bound[v] != 0) {
        ok = s->binding[v] == tuple[i];
      } else {
        s->bound[v] = 1;
        s->binding[v] = tuple[i];
        s->touched.push_back(v);
      }
    }
    if (ok && MatchFlatFrom(atoms, s, depth + 1)) return true;
    Unbind(s, mark);
    return false;
  };

  if (best_rows != nullptr) {
    for (uint32_t row : *best_rows) {
      if (try_row(row)) return true;
    }
  } else {
    for (size_t row = 0; row < rel->size(); ++row) {
      if (try_row(row)) return true;
    }
  }
  return false;
}

}  // namespace

bool HasHomomorphism(std::span<const Atom> atoms, const Instance& instance) {
  static thread_local HomScratch scratch;
  HomScratch* s = &scratch;
  s->relation.clear();
  uint64_t num_vars = 0;
  for (const Atom& a : atoms) {
    const Relation* rel = instance.RelationFor(a.predicate);
    if (rel == nullptr) return false;  // an atom with no tuples never maps
    s->relation.push_back(rel);
    for (Term t : a.args) {
      if (t.is_variable()) num_vars = std::max(num_vars, t.index() + 1);
    }
  }
  if (s->binding.size() < num_vars) {
    s->binding.resize(num_vars);
    s->bound.resize(num_vars, 0);
  }
  FlatJoinOrder(atoms, s);
  Unbind(s, 0);
  bool found = MatchFlatFrom(atoms, s, 0);
  // A successful match leaves its bindings in place.
  Unbind(s, 0);
  return found;
}

namespace {

/// Grow-only scratch for HasStateHomomorphism: the subsumption pruning of
/// the proof searches calls it millions of times on tiny states, so the
/// matcher must not allocate. Variable bindings live in a flat array
/// indexed by variable index (states are canonically renamed, so indices
/// are small and dense); candidate lists are one flat arena.
struct StateHomScratch {
  static constexpr uint64_t kMaxVar = 4096;
  std::vector<Term> binding;        // per from-variable index
  std::vector<char> bound;          // per from-variable index
  std::vector<uint32_t> touched;    // bound indices to reset
  std::vector<const Atom*> arena;   // concatenated candidate lists
  std::vector<std::pair<uint32_t, uint32_t>> span;  // per from-atom [b, e)
  std::vector<size_t> order;
};

bool MatchStateFrom(const std::vector<Atom>& from, StateHomScratch* s,
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

bool HasStateHomomorphism(const std::vector<Atom>& from,
                          const std::vector<Atom>& onto) {
  if (from.empty()) return true;
  uint64_t max_var = 0;
  for (const Atom& a : from) {
    for (Term t : a.args) {
      if (t.is_variable()) max_var = std::max(max_var, t.index());
    }
  }
  // Proof states are canonically renamed, so this never triggers there;
  // it guards arbitrary callers against unbounded scratch growth.
  if (max_var >= StateHomScratch::kMaxVar) return false;

  static thread_local StateHomScratch scratch;
  StateHomScratch* s = &scratch;
  if (s->binding.size() <= max_var) {
    s->binding.resize(max_var + 1);
    s->bound.resize(max_var + 1, 0);
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

