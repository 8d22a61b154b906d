#include "engine/state.h"

#include <algorithm>
#include <functional>
#include <span>
#include <unordered_map>

#include "base/hash.h"
#include "storage/homomorphism.h"

namespace vadalog {
namespace {

/// Renaming context for one encoding pass: variables always rename;
/// nulls rename only in extended (sentinel) mode.
struct RankMaps {
  bool rename_nulls = false;
  std::unordered_map<Term, uint64_t> var_rank;
  std::unordered_map<Term, uint64_t> null_rank;
};

// Encoded argument. Kind tags: constants/nulls keep their packed bits
// (tags 0/1); canonical variables use the unused tag 3; renamed nulls use
// tag 1 with a rank (safe: in sentinel mode no raw null bits are emitted).
uint64_t EncodeArg(Term t, RankMaps* ranks) {
  if (t.is_constant()) return t.bits();
  if (t.is_null()) {
    if (!ranks->rename_nulls) return t.bits();
    auto [it, inserted] =
        ranks->null_rank.try_emplace(t, ranks->null_rank.size());
    return (uint64_t{1} << 62) | it->second;
  }
  auto [it, inserted] = ranks->var_rank.try_emplace(t, ranks->var_rank.size());
  return (uint64_t{3} << 62) | it->second;
}

/// Encodes the atoms in the given order, ranking variables (and, in
/// sentinel mode, nulls) by first occurrence.
std::vector<uint64_t> EncodeOrder(const std::vector<Atom>& atoms,
                                  const std::vector<size_t>& order,
                                  bool rename_nulls) {
  std::vector<uint64_t> enc;
  size_t words = 0;
  for (const Atom& a : atoms) words += 1 + a.args.size();
  enc.reserve(words);
  RankMaps ranks;
  ranks.rename_nulls = rename_nulls;
  for (size_t idx : order) {
    const Atom& a = atoms[idx];
    enc.push_back((uint64_t{2} << 62) | a.predicate);
    for (Term t : a.args) enc.push_back(EncodeArg(t, &ranks));
  }
  return enc;
}

/// Variable-invariant key of an atom: predicate, constants verbatim,
/// renameable terms abstracted to kind + intra-atom first-occurrence index
/// + a refinement color from the global occurrence profile.
std::vector<uint64_t> InvariantKey(
    const Atom& atom, bool rename_nulls,
    const std::unordered_map<Term, uint64_t>& term_color) {
  std::vector<uint64_t> key;
  key.push_back(atom.predicate);
  std::unordered_map<Term, uint64_t> local_rank;
  for (Term t : atom.args) {
    bool renameable = t.is_variable() || (rename_nulls && t.is_null());
    if (!renameable) {
      key.push_back(t.bits());
      continue;
    }
    auto [it, inserted] = local_rank.try_emplace(t, local_rank.size());
    uint64_t kind_tag = t.is_variable() ? 3 : 1;
    key.push_back((kind_tag << 62) | it->second);
    auto color = term_color.find(t);
    key.push_back(color == term_color.end() ? 0 : color->second);
  }
  return key;
}

constexpr uint32_t kUnranked = 0xffffffffu;
constexpr uint64_t kFlatVarLimit = 4096;

/// Grow-only per-thread scratch for the flat canonicalization fast path:
/// every per-term lookup is an array indexed by variable index, and no
/// allocation survives between calls.
struct FlatScratch {
  std::vector<uint64_t> color;     // per variable index
  std::vector<uint32_t> var_rank;  // per variable index; kUnranked = unseen
  std::vector<uint32_t> touched;   // var indices to reset in var_rank
  std::vector<std::pair<uint64_t, uint64_t>> occ;  // (var, code) pairs
  std::vector<uint64_t> run_codes;
  std::vector<uint64_t> keys;  // concatenated per-atom invariant keys
  std::vector<std::pair<uint32_t, uint32_t>> key_span;  // per atom [b, e)
  // Branch-and-bound canonical search (LeastGroupOrder).
  std::vector<std::pair<uint32_t, uint32_t>> tie;  // per slot: its group
  std::vector<char> placed;                        // per slot of `order`
  std::vector<size_t> current;                     // order being built
  std::vector<uint64_t> prefix;                    // encoding of `current`

  void Prepare(size_t num_vars) {
    if (color.size() < num_vars) {
      color.resize(num_vars, 0);
      var_rank.resize(num_vars, kUnranked);
    }
    occ.clear();
    keys.clear();
    key_span.clear();
  }
};

/// EncodeOrder for the flat path: identical output, array-backed ranks.
void FlatEncode(const std::vector<Atom>& atoms,
                const std::vector<size_t>& order, FlatScratch* s,
                std::vector<uint64_t>* enc) {
  enc->clear();
  uint32_t next = 0;
  for (size_t idx : order) {
    const Atom& a = atoms[idx];
    enc->push_back((uint64_t{2} << 62) | a.predicate);
    for (Term t : a.args) {
      if (!t.is_variable()) {
        enc->push_back(t.bits());
        continue;
      }
      uint32_t v = static_cast<uint32_t>(t.index());
      if (s->var_rank[v] == kUnranked) {
        s->var_rank[v] = next++;
        s->touched.push_back(v);
      }
      enc->push_back((uint64_t{3} << 62) | s->var_rank[v]);
    }
  }
  for (uint32_t v : s->touched) s->var_rank[v] = kUnranked;
  s->touched.clear();
}

/// Branch-and-bound search for the least encoding over the orders that
/// permute each tie group within its slots — the same set of orders, and
/// the same least encoding, as brute-forcing every group permutation.
/// Atoms are placed one slot at a time and encoded incrementally; a
/// prefix is abandoned only when it is strictly greater than the best
/// complete encoding (McKay & Piperno's pruning of the search tree).
class LeastGroupOrder {
 public:
  LeastGroupOrder(const std::vector<Atom>& atoms,
                  const std::vector<size_t>& order, FlatScratch* s,
                  std::vector<uint64_t>* best, std::vector<size_t>* best_order)
      : atoms_(atoms),
        order_(order),
        s_(s),
        best_(best),
        best_order_(best_order) {}

  void Run() {
    size_t n = order_.size();
    s_->placed.assign(n, 0);
    s_->current.resize(n);
    s_->prefix.clear();
    next_rank_ = 0;
    have_best_ = false;
    Place(0, /*tight=*/false);
  }

 private:
  /// Extends the prefix at `slot`. `tight` means the prefix so far equals
  /// the best encoding's prefix (false while no best exists, or once the
  /// prefix is already smaller). Returns true if the best changed.
  bool Place(size_t slot, bool tight) {
    if (slot == order_.size()) {
      if (have_best_ && tight) return false;  // equal, not smaller
      *best_ = s_->prefix;
      *best_order_ = s_->current;
      have_best_ = true;
      return true;
    }
    bool improved = false;
    auto [begin, end] = s_->tie[slot];
    for (uint32_t k = begin; k < end; ++k) {
      if (s_->placed[k] != 0) continue;
      size_t mark = s_->prefix.size();
      size_t touched_mark = s_->touched.size();
      uint32_t rank_mark = next_rank_;
      Append(atoms_[order_[k]]);
      int cmp = 0;
      for (size_t w = mark; tight && cmp == 0 && w < s_->prefix.size(); ++w) {
        if (s_->prefix[w] != (*best_)[w]) {
          cmp = s_->prefix[w] < (*best_)[w] ? -1 : 1;
        }
      }
      if (!tight || cmp <= 0) {
        s_->placed[k] = 1;
        s_->current[slot] = order_[k];
        if (Place(slot + 1, tight && cmp == 0)) {
          // The new best shares this prefix: compare against it again.
          improved = true;
          tight = true;
        }
        s_->placed[k] = 0;
      }
      s_->prefix.resize(mark);
      while (s_->touched.size() > touched_mark) {
        s_->var_rank[s_->touched.back()] = kUnranked;
        s_->touched.pop_back();
      }
      next_rank_ = rank_mark;
    }
    return improved;
  }

  /// Appends one atom's words to the prefix (FlatEncode, one atom).
  void Append(const Atom& a) {
    s_->prefix.push_back((uint64_t{2} << 62) | a.predicate);
    for (Term t : a.args) {
      if (!t.is_variable()) {
        s_->prefix.push_back(t.bits());
        continue;
      }
      uint32_t v = static_cast<uint32_t>(t.index());
      if (s_->var_rank[v] == kUnranked) {
        s_->var_rank[v] = next_rank_++;
        s_->touched.push_back(v);
      }
      s_->prefix.push_back((uint64_t{3} << 62) | s_->var_rank[v]);
    }
  }

  const std::vector<Atom>& atoms_;
  const std::vector<size_t>& order_;
  FlatScratch* s_;
  std::vector<uint64_t>* best_;
  std::vector<size_t>* best_order_;
  uint32_t next_rank_ = 0;
  bool have_best_ = false;
};

/// Sorts the (var, code) pairs in `s->occ` and folds each variable's code
/// run into its color (combining with the previous color when refining).
/// The hash formulas mirror the map-based general path exactly, so both
/// paths produce identical canonical encodings.
void FoldColorRuns(FlatScratch* s, bool combine_old) {
  std::sort(s->occ.begin(), s->occ.end());
  for (size_t i = 0; i < s->occ.size();) {
    uint64_t var = s->occ[i].first;
    s->run_codes.clear();
    size_t j = i;
    while (j < s->occ.size() && s->occ[j].first == var) {
      s->run_codes.push_back(s->occ[j].second);
      ++j;
    }
    size_t c = HashRange(s->run_codes.begin(), s->run_codes.end());
    if (combine_old) HashCombine(&c, s->color[var]);
    s->color[var] = c;
    i = j;
  }
}

/// The common-case canonicalization (no null renaming, no mapping out,
/// variable indices < kFlatVarLimit): same algorithm and identical output
/// as the general path below, with flat arrays replacing the hash maps.
CanonicalState FlatCanonicalize(std::vector<Atom> atoms, size_t num_vars) {
  static thread_local FlatScratch scratch;
  FlatScratch* s = &scratch;
  s->Prepare(num_vars);
  CanonicalState state;
  size_t n = atoms.size();

  // Pass 1: occurrence-profile colors.
  for (const Atom& a : atoms) {
    for (size_t i = 0; i < a.args.size(); ++i) {
      if (a.args[i].is_variable()) {
        s->occ.emplace_back(a.args[i].index(),
                            (static_cast<uint64_t>(a.predicate) << 8) | i);
      }
    }
  }
  FoldColorRuns(s, /*combine_old=*/false);

  // Pass 1b: one WL refinement round (see the general path).
  if (n > 2) {
    s->occ.clear();
    for (const Atom& a : atoms) {
      size_t atom_sig = a.predicate;
      for (Term t : a.args) {
        HashCombine(&atom_sig,
                    t.is_variable() ? s->color[t.index()] : t.bits());
      }
      for (size_t i = 0; i < a.args.size(); ++i) {
        if (a.args[i].is_variable()) {
          size_t code = atom_sig;
          HashCombine(&code, i);
          s->occ.emplace_back(a.args[i].index(), code);
        }
      }
    }
    FoldColorRuns(s, /*combine_old=*/true);
  }

  // Invariant keys, concatenated into one arena. A variable's local rank
  // is its first-occurrence index among the atom's distinct variables,
  // exactly as the general path's per-atom rank map.
  std::vector<uint64_t> atom_seen;
  for (const Atom& a : atoms) {
    uint32_t begin = static_cast<uint32_t>(s->keys.size());
    s->keys.push_back(a.predicate);
    atom_seen.clear();
    for (Term t : a.args) {
      if (!t.is_variable()) {
        s->keys.push_back(t.bits());
        continue;
      }
      size_t local_rank = 0;
      while (local_rank < atom_seen.size() &&
             atom_seen[local_rank] != t.index()) {
        ++local_rank;
      }
      if (local_rank == atom_seen.size()) atom_seen.push_back(t.index());
      s->keys.push_back((uint64_t{3} << 62) | local_rank);
      s->keys.push_back(s->color[t.index()]);
    }
    s->key_span.emplace_back(begin, static_cast<uint32_t>(s->keys.size()));
  }

  auto key_less = [s](size_t a, size_t b) {
    auto [ab, ae] = s->key_span[a];
    auto [bb, be] = s->key_span[b];
    return std::lexicographical_compare(s->keys.begin() + ab,
                                        s->keys.begin() + ae,
                                        s->keys.begin() + bb,
                                        s->keys.begin() + be);
  };
  auto key_eq = [s](size_t a, size_t b) {
    auto [ab, ae] = s->key_span[a];
    auto [bb, be] = s->key_span[b];
    return ae - ab == be - bb &&
           std::equal(s->keys.begin() + ab, s->keys.begin() + ae,
                      s->keys.begin() + bb);
  };

  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), key_less);

  std::vector<std::pair<size_t, size_t>> groups;  // [begin, end) in `order`
  size_t combinations = 1;
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && key_eq(order[i], order[j])) ++j;
    if (j - i > 1) {
      groups.emplace_back(i, j);
      for (size_t k = 2; k <= j - i && combinations <= 720; ++k) {
        combinations *= k;
      }
    }
    i = j;
  }

  if (groups.empty() || combinations > 720) {
    FlatEncode(atoms, order, s, &state.encoding);
  } else {
    s->tie.resize(n);
    for (uint32_t i = 0; i < n; ++i) s->tie[i] = {i, i + 1};
    for (auto [begin, end] : groups) {
      for (size_t i = begin; i < end; ++i) {
        s->tie[i] = {static_cast<uint32_t>(begin), static_cast<uint32_t>(end)};
      }
    }
    std::vector<size_t> best_order;
    LeastGroupOrder(atoms, order, s, &state.encoding, &best_order).Run();
    order = std::move(best_order);
  }

  // Materialize atoms in canonical order with canonical names.
  uint32_t next_rank = 0;
  state.atoms.reserve(n);
  for (size_t idx : order) {
    Atom renamed;
    renamed.predicate = atoms[idx].predicate;
    renamed.args.reserve(atoms[idx].args.size());
    for (Term t : atoms[idx].args) {
      if (t.is_variable()) {
        uint32_t v = static_cast<uint32_t>(t.index());
        if (s->var_rank[v] == kUnranked) {
          s->var_rank[v] = next_rank++;
          s->touched.push_back(v);
        }
        renamed.args.push_back(Term::Variable(s->var_rank[v]));
      } else {
        renamed.args.push_back(t);
      }
    }
    state.atoms.push_back(std::move(renamed));
  }
  for (uint32_t v : s->touched) s->var_rank[v] = kUnranked;
  s->touched.clear();

  state.hash = HashRange(state.encoding.begin(), state.encoding.end());
  return state;
}

}  // namespace

CanonicalState Canonicalize(std::vector<Atom> atoms) {
  return CanonicalizeEx(std::move(atoms), /*rename_nulls=*/false, nullptr);
}

CanonicalState CanonicalizeEx(std::vector<Atom> atoms, bool rename_nulls,
                              std::unordered_map<Term, Term>* mapping) {
  CanonicalState state;
  size_t n = atoms.size();
  if (n == 0) {
    state.atoms = std::move(atoms);
    state.hash = HashRange(state.encoding.begin(), state.encoding.end());
    return state;
  }
  if (!rename_nulls && mapping == nullptr) {
    uint64_t max_var = 0;
    for (const Atom& a : atoms) {
      for (Term t : a.args) {
        if (t.is_variable() && t.index() > max_var) max_var = t.index();
      }
    }
    if (max_var < kFlatVarLimit) {
      return FlatCanonicalize(std::move(atoms), max_var + 1);
    }
  }

  auto renameable = [rename_nulls](Term t) {
    return t.is_variable() || (rename_nulls && t.is_null());
  };

  // Pass 1: color renameable terms by their occurrence profile (multiset
  // of (predicate, position) pairs) to break most ties.
  std::unordered_map<Term, std::vector<uint64_t>> occurrences;
  for (const Atom& a : atoms) {
    for (size_t i = 0; i < a.args.size(); ++i) {
      if (renameable(a.args[i])) {
        occurrences[a.args[i]].push_back(
            (static_cast<uint64_t>(a.predicate) << 8) | i);
      }
    }
  }
  std::unordered_map<Term, uint64_t> term_color;
  for (auto& [term, profile] : occurrences) {
    std::sort(profile.begin(), profile.end());
    term_color[term] = HashRange(profile.begin(), profile.end());
  }

  // Pass 1b: one Weisfeiler–Leman-style refinement round — recolor each
  // term by the multiset of its occurrences *including the colors of the
  // co-occurring terms*. This separates most structurally distinct but
  // profile-identical variables, collapsing the tie groups the brute-force
  // pass below would otherwise have to permute.
  if (n > 2) {
    auto context_color = [&term_color](Term t) -> uint64_t {
      if (t.is_constant() || t.is_null()) return t.bits();
      auto it = term_color.find(t);
      return it == term_color.end() ? 0 : it->second;
    };
    std::unordered_map<Term, std::vector<uint64_t>> refined;
    for (const Atom& a : atoms) {
      uint64_t atom_sig = a.predicate;
      for (Term t : a.args) HashCombine(&atom_sig, context_color(t));
      for (size_t i = 0; i < a.args.size(); ++i) {
        if (renameable(a.args[i])) {
          uint64_t occ = atom_sig;
          HashCombine(&occ, i);
          refined[a.args[i]].push_back(occ);
        }
      }
    }
    for (auto& [term, profile] : refined) {
      std::sort(profile.begin(), profile.end());
      uint64_t color = HashRange(profile.begin(), profile.end());
      HashCombine(&color, term_color[term]);
      term_color[term] = color;
    }
  }

  // Sort atom indices by invariant key; collect tie groups.
  std::vector<std::vector<uint64_t>> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = InvariantKey(atoms[i], rename_nulls, term_color);
  }
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&keys](size_t a, size_t b) { return keys[a] < keys[b]; });

  std::vector<std::pair<size_t, size_t>> groups;  // [begin, end) in `order`
  size_t combinations = 1;
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && keys[order[i]] == keys[order[j]]) ++j;
    if (j - i > 1) {
      groups.emplace_back(i, j);
      for (size_t k = 2; k <= j - i && combinations <= 720; ++k) {
        combinations *= k;
      }
    }
    i = j;
  }

  if (groups.empty() || combinations > 720) {
    state.encoding = EncodeOrder(atoms, order, rename_nulls);
  } else {
    // Brute-force tie-group permutations for the lexicographically
    // smallest encoding (exact canonical form on symmetric states).
    std::vector<uint64_t> best;
    std::vector<size_t> current = order;
    std::function<void(size_t)> recurse = [&](size_t group_index) {
      if (group_index == groups.size()) {
        std::vector<uint64_t> enc = EncodeOrder(atoms, current, rename_nulls);
        if (best.empty() || enc < best) {
          best = std::move(enc);
          order = current;
        }
        return;
      }
      auto [begin, end] = groups[group_index];
      std::vector<size_t> members(current.begin() + begin,
                                  current.begin() + end);
      std::sort(members.begin(), members.end());
      do {
        std::copy(members.begin(), members.end(), current.begin() + begin);
        recurse(group_index + 1);
      } while (std::next_permutation(members.begin(), members.end()));
    };
    recurse(0);
    state.encoding = std::move(best);
  }

  // Materialize atoms in canonical order with canonical names.
  std::unordered_map<Term, uint64_t> var_rank;
  std::unordered_map<Term, uint64_t> null_rank;
  state.atoms.reserve(n);
  for (size_t idx : order) {
    Atom renamed;
    renamed.predicate = atoms[idx].predicate;
    renamed.args.reserve(atoms[idx].args.size());
    for (Term t : atoms[idx].args) {
      Term out = t;
      if (t.is_variable()) {
        auto [it, inserted] = var_rank.try_emplace(t, var_rank.size());
        out = Term::Variable(it->second);
      } else if (rename_nulls && t.is_null()) {
        auto [it, inserted] = null_rank.try_emplace(t, null_rank.size());
        out = Term::Null(it->second);
      }
      if (mapping != nullptr && renameable(t)) (*mapping)[t] = out;
      renamed.args.push_back(out);
    }
    state.atoms.push_back(std::move(renamed));
  }
  state.hash = HashRange(state.encoding.begin(), state.encoding.end());
  return state;
}

namespace {

/// Grow-only per-thread scratch for component labelling and in-place
/// simplification: both run once per successor, so neither allocates once
/// warm.
struct ComponentScratch {
  std::vector<int> first_seen;    // per variable index; -1 = unseen
  std::vector<uint32_t> touched;  // variable indices to reset
  std::vector<int> parent;        // union-find over atoms
  std::vector<int> id_of_root;    // per root: dense component id
  std::vector<int> ids;           // EagerSimplifyIncremental's labels
  std::vector<uint32_t> start;    // per component: first grouped slot
  std::vector<uint32_t> dest;     // per atom: grouped slot
};

ComponentScratch* ThreadComponentScratch() {
  static thread_local ComponentScratch scratch;
  return &scratch;
}

/// Writes dense per-atom component ids (first-occurrence order of the
/// roots) to `ids` and returns the number of components.
int LabelComponents(const std::vector<Atom>& atoms, ComponentScratch* s,
                    std::vector<int>* ids) {
  size_t n = atoms.size();
  s->parent.resize(n);
  for (size_t i = 0; i < n; ++i) s->parent[i] = static_cast<int>(i);
  auto find = [s](int x) {
    while (s->parent[x] != x) {
      s->parent[x] = s->parent[s->parent[x]];
      x = s->parent[x];
    }
    return x;
  };

  for (size_t i = 0; i < n; ++i) {
    for (Term t : atoms[i].args) {
      if (!t.is_variable()) continue;
      uint64_t v = t.index();
      if (v >= s->first_seen.size()) s->first_seen.resize(v + 1, -1);
      if (s->first_seen[v] < 0) {
        s->first_seen[v] = static_cast<int>(i);
        s->touched.push_back(static_cast<uint32_t>(v));
      } else {
        s->parent[find(static_cast<int>(i))] = find(s->first_seen[v]);
      }
    }
  }
  for (uint32_t v : s->touched) s->first_seen[v] = -1;
  s->touched.clear();

  s->id_of_root.assign(n, -1);
  ids->resize(n);
  int next = 0;
  for (size_t i = 0; i < n; ++i) {
    int root = find(static_cast<int>(i));
    if (s->id_of_root[root] < 0) s->id_of_root[root] = next++;
    (*ids)[i] = s->id_of_root[root];
  }
  return next;
}

}  // namespace

std::vector<int> ComponentIds(const std::vector<Atom>& atoms) {
  std::vector<int> ids;
  LabelComponents(atoms, ThreadComponentScratch(), &ids);
  return ids;
}

std::vector<std::vector<Atom>> SplitComponents(
    const std::vector<Atom>& atoms) {
  std::vector<int> ids = ComponentIds(atoms);
  std::vector<std::vector<Atom>> components;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (static_cast<size_t>(ids[i]) >= components.size()) {
      components.resize(ids[i] + 1);
    }
    components[ids[i]].push_back(atoms[i]);
  }
  return components;
}

size_t EagerSimplify(std::vector<Atom>* atoms, const Instance& database) {
  std::vector<char> dirty(atoms->size(), 1);
  return EagerSimplifyIncremental(atoms, database, &dirty);
}

size_t EagerSimplifyIncremental(std::vector<Atom>* atoms,
                                const Instance& database,
                                std::vector<char>* dirty) {
  // A CQ state is a *set* of atoms: conjunction is idempotent, so exact
  // duplicates (frequent in resolvents) are dropped first. This shrinks
  // states against the width bound and merges otherwise-distinct states.
  // A surviving copy inherits the dirtiness of every duplicate it absorbs.
  size_t n = atoms->size();
  {
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      bool duplicate = false;
      for (size_t j = 0; j < kept && !duplicate; ++j) {
        if ((*atoms)[i] == (*atoms)[j]) {
          (*dirty)[j] = static_cast<char>((*dirty)[j] | (*dirty)[i]);
          duplicate = true;
        }
      }
      if (!duplicate) {
        if (kept != i) {
          (*atoms)[kept] = std::move((*atoms)[i]);
          (*dirty)[kept] = (*dirty)[i];
        }
        ++kept;
      }
    }
    atoms->resize(kept);
    dirty->resize(kept);
    n = kept;
  }

  // Group atoms by component in place — a stable counting sort on the
  // component id, applied by following permutation cycles with swaps —
  // so each component is one contiguous range the matcher reads as is.
  ComponentScratch* s = ThreadComponentScratch();
  int num_components = LabelComponents(*atoms, s, &s->ids);
  s->start.assign(num_components + 1, 0);
  for (size_t i = 0; i < n; ++i) ++s->start[s->ids[i] + 1];
  for (int c = 0; c < num_components; ++c) s->start[c + 1] += s->start[c];
  s->dest.resize(n);
  for (size_t i = 0; i < n; ++i) s->dest[i] = s->start[s->ids[i]]++;
  // Filling advanced each component's start to the next one's: shift back.
  for (int c = num_components; c > 0; --c) s->start[c] = s->start[c - 1];
  s->start[0] = 0;
  for (size_t i = 0; i < n; ++i) {
    while (s->dest[i] != i) {
      uint32_t j = s->dest[i];
      std::swap((*atoms)[i], (*atoms)[j]);
      std::swap((*dirty)[i], (*dirty)[j]);
      std::swap(s->dest[i], s->dest[j]);
    }
  }

  // Check each dirty component (clean ones keep the parent certificate)
  // and compact the survivors forward: grouped by component, in
  // first-occurrence order — byte-identical to the SplitComponents-based
  // full simplification.
  const Atom* base = atoms->data();
  size_t out = 0;
  for (int c = 0; c < num_components; ++c) {
    uint32_t begin = s->start[c];
    uint32_t end = s->start[c + 1];
    bool is_dirty = std::any_of(dirty->begin() + begin, dirty->begin() + end,
                                [](char d) { return d != 0; });
    if (is_dirty &&
        HasHomomorphism(std::span<const Atom>(base + begin, end - begin),
                        database)) {
      continue;
    }
    for (uint32_t i = begin; i < end; ++i, ++out) {
      if (out != i) (*atoms)[out] = std::move((*atoms)[i]);
    }
  }
  size_t removed = n - out;
  atoms->resize(out);
  return removed;
}

void ResolventDirtyFlags(const std::vector<int>& components,
                         const std::vector<size_t>& chunk,
                         size_t resolvent_size, std::vector<char>* dirty) {
  // Components disjoint from the chunk pass through the resolution
  // untouched (the unifier binds none of their variables — a shared
  // variable would put them in a chunk atom's component), so only
  // components that lost a member need re-checking, plus the new body
  // atoms appended after the kept parent atoms.
  static thread_local std::vector<char> component_hit;
  component_hit.assign(components.size(), 0);
  for (size_t idx : chunk) component_hit[components[idx]] = 1;
  dirty->clear();
  size_t chunk_cursor = 0;
  for (size_t i = 0; i < components.size(); ++i) {
    if (chunk_cursor < chunk.size() && chunk[chunk_cursor] == i) {
      ++chunk_cursor;
      continue;
    }
    dirty->push_back(component_hit[components[i]]);
  }
  dirty->resize(resolvent_size, 1);  // the body atoms are new
}

bool HasDeadAtom(const std::vector<Atom>& atoms, const Instance& database,
                 const std::unordered_set<PredicateId>& derivable) {
  for (const Atom& atom : atoms) {
    if (derivable.count(atom.predicate) == 0 &&
        EstimateMatches(atom, database) == 0) {
      return true;
    }
  }
  return false;
}

size_t EstimateMatches(const Atom& atom, const Instance& database) {
  const Relation* rel = database.RelationFor(atom.predicate);
  if (rel == nullptr) return 0;
  size_t rows = rel->size();
  for (size_t pos = 0; pos < atom.args.size(); ++pos) {
    if (atom.args[pos].is_rigid()) {
      rows = std::min(
          rows,
          rel->RowsWith(static_cast<uint32_t>(pos), atom.args[pos]).size());
    }
  }
  return rows;
}

size_t SelectAtom(const std::vector<Atom>& atoms, const Instance& database) {
  // Mirror the proof tree's eager leaf decomposition: prefer the
  // database-matchable atom with the fewest candidate rows (it will be
  // dropped with few branches). Only when nothing is matchable do we pick
  // a resolution target, preferring the most-constrained atom.
  size_t best_droppable = atoms.size();
  size_t best_rows = ~size_t{0};
  size_t best_resolvable = 0;
  size_t best_rigid = 0;
  bool have_resolvable = false;
  for (size_t i = 0; i < atoms.size(); ++i) {
    size_t rows = EstimateMatches(atoms[i], database);
    if (rows > 0 && rows < best_rows) {
      best_rows = rows;
      best_droppable = i;
    }
    size_t rigid = 0;
    for (Term t : atoms[i].args) {
      if (t.is_rigid()) ++rigid;
    }
    if (!have_resolvable || rigid > best_rigid) {
      best_rigid = rigid;
      best_resolvable = i;
      have_resolvable = true;
    }
  }
  return best_droppable != atoms.size() ? best_droppable : best_resolvable;
}

}  // namespace vadalog
