#include "engine/state.h"

#include <algorithm>
#include <span>
#include <unordered_map>

#include "base/hash.h"
#include "storage/homomorphism.h"

namespace vadalog {
namespace {

constexpr uint32_t kRigid = 0xffffffffu;     // argument is not renameable
constexpr uint32_t kUnranked = 0xffffffffu;  // term has no canonical rank yet

/// One occurrence of a renameable term: the term (its bits in the first
/// pass, its dense id when refining), the occurrence's code, and the
/// argument slot it sits in.
struct Occurrence {
  uint64_t term;
  uint64_t code;
  uint32_t arg;
};

/// Rank state to rewind to: the `touched` size and both rank counters.
struct RankMark {
  size_t touched;
  uint32_t next_var;
  uint32_t next_null;
};

/// Grow-only per-thread scratch for canonicalization. Renameable terms
/// (variables, plus nulls in sentinel mode) are numbered densely by the
/// first pass's occurrence sort, so every per-term lookup is an array
/// indexed by that number: the scratch is bounded by the state's size
/// whatever the term indices, and no allocation survives between calls.
struct CanonScratch {
  std::vector<uint32_t> arg_begin;  // per atom: its first slot in `id`
  std::vector<uint32_t> id;         // per argument slot: dense id or kRigid
  std::vector<uint64_t> color;      // per dense id
  std::vector<uint32_t> rank;       // per dense id; kUnranked = unseen
  std::vector<uint32_t> touched;    // dense ids ranked so far
  uint32_t next_var = 0;            // next canonical variable rank
  uint32_t next_null = 0;           // next canonical null rank
  std::vector<Occurrence> occ;
  std::vector<uint64_t> run_codes;
  std::vector<uint64_t> keys;  // concatenated per-atom invariant keys
  std::vector<std::pair<uint32_t, uint32_t>> key_span;  // per atom [b, e)
  std::vector<uint32_t> atom_seen;  // one atom's distinct dense ids
  std::vector<size_t> order;        // atoms in canonical order
  std::vector<std::pair<size_t, size_t>> groups;  // tie groups in `order`
  std::vector<size_t> best_order;   // LeastGroupOrder's result
  // Branch-and-bound canonical search (LeastGroupOrder).
  std::vector<std::pair<uint32_t, uint32_t>> tie;  // per slot: its group
  std::vector<char> placed;                        // per slot of `order`
  std::vector<size_t> current;                     // order being built
  std::vector<uint64_t> prefix;                    // encoding of `current`

  /// Encoded argument `k` of atom `idx`. Kind tags: rigid terms keep their
  /// packed bits (tags 0/1); canonical variables use the unused tag 3;
  /// renamed nulls use tag 1 with their rank (safe: in sentinel mode no
  /// raw null bits are emitted). Ranks follow first occurrence, with one
  /// counter per kind.
  uint64_t Word(const Atom& a, size_t idx, size_t k) {
    uint32_t d = id[arg_begin[idx] + k];
    if (d == kRigid) return a.args[k].bits();
    bool is_variable = a.args[k].is_variable();
    uint32_t& r = rank[d];
    if (r == kUnranked) {
      r = is_variable ? next_var++ : next_null++;
      touched.push_back(d);
    }
    return (uint64_t{is_variable ? 3u : 1u} << 62) | r;
  }

  RankMark Mark() const { return {touched.size(), next_var, next_null}; }

  void Rewind(RankMark mark) {
    while (touched.size() > mark.touched) {
      rank[touched.back()] = kUnranked;
      touched.pop_back();
    }
    next_var = mark.next_var;
    next_null = mark.next_null;
  }
};

/// Branch-and-bound search for the least encoding over the orders that
/// permute each tie group within its slots — the same set of orders, and
/// the same least encoding, as brute-forcing every group permutation.
/// Atoms are placed one slot at a time and encoded incrementally; a
/// prefix is abandoned only when it is strictly greater than the best
/// complete encoding (McKay & Piperno's pruning of the search tree).
/// Slots are tried in order, so with each group's atoms in ascending
/// index order the first least order found is the brute force's first.
class LeastGroupOrder {
 public:
  LeastGroupOrder(const std::vector<Atom>& atoms,
                  const std::vector<size_t>& order, CanonScratch* s,
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
      RankMark ranks = s_->Mark();
      size_t idx = order_[k];
      const Atom& a = atoms_[idx];
      s_->prefix.push_back((uint64_t{2} << 62) | a.predicate);
      for (size_t i = 0; i < a.args.size(); ++i) {
        s_->prefix.push_back(s_->Word(a, idx, i));
      }
      int cmp = 0;
      for (size_t w = mark; tight && cmp == 0 && w < s_->prefix.size(); ++w) {
        if (s_->prefix[w] != (*best_)[w]) {
          cmp = s_->prefix[w] < (*best_)[w] ? -1 : 1;
        }
      }
      if (!tight || cmp <= 0) {
        s_->placed[k] = 1;
        s_->current[slot] = idx;
        if (Place(slot + 1, tight && cmp == 0)) {
          // The new best shares this prefix: compare against it again.
          improved = true;
          tight = true;
        }
        s_->placed[k] = 0;
      }
      s_->prefix.resize(mark);
      s_->Rewind(ranks);
    }
    return improved;
  }

  const std::vector<Atom>& atoms_;
  const std::vector<size_t>& order_;
  CanonScratch* s_;
  std::vector<uint64_t>* best_;
  std::vector<size_t>* best_order_;
  bool have_best_ = false;
};

/// Sorts `s->occ` by term and folds each term's run of codes into its
/// color. The first pass (`refine` false) keys runs by term bits and hands
/// out dense ids in run order; the refinement pass keys runs by dense id
/// and combines each new color with the previous one.
void FoldColorRuns(CanonScratch* s, bool refine) {
  std::sort(s->occ.begin(), s->occ.end(),
            [](const Occurrence& a, const Occurrence& b) {
              return a.term != b.term ? a.term < b.term : a.code < b.code;
            });
  uint32_t next_id = 0;
  for (size_t i = 0; i < s->occ.size();) {
    uint64_t term = s->occ[i].term;
    s->run_codes.clear();
    size_t j = i;
    while (j < s->occ.size() && s->occ[j].term == term) {
      s->run_codes.push_back(s->occ[j].code);
      ++j;
    }
    size_t c = HashRange(s->run_codes.begin(), s->run_codes.end());
    if (refine) {
      HashCombine(&c, s->color[term]);
      s->color[term] = c;
    } else {
      for (size_t k = i; k < j; ++k) s->id[s->occ[k].arg] = next_id;
      s->color.push_back(c);
      ++next_id;
    }
    i = j;
  }
}

/// Canonical order and encoding of `atoms`: sets `state->encoding`
/// (reserved exactly) and `state->hash`, and, when `mapping` is
/// non-null, the renaming. Leaves `state->atoms` alone.
void EncodeCanonical(const std::vector<Atom>& atoms, bool rename_nulls,
                     std::unordered_map<Term, Term>* mapping,
                     CanonicalState* state) {
  static thread_local CanonScratch scratch;
  CanonScratch* s = &scratch;
  size_t n = atoms.size();
  auto renameable = [rename_nulls](Term t) {
    return t.is_variable() || (rename_nulls && t.is_null());
  };

  // Pass 1: color renameable terms by their occurrence profile (multiset
  // of (predicate, position) pairs) to break most ties; the sort also
  // numbers the terms densely.
  s->arg_begin.clear();
  s->id.clear();
  s->occ.clear();
  s->color.clear();
  for (const Atom& a : atoms) {
    s->arg_begin.push_back(static_cast<uint32_t>(s->id.size()));
    for (size_t i = 0; i < a.args.size(); ++i) {
      if (renameable(a.args[i])) {
        s->occ.push_back({a.args[i].bits(),
                          (static_cast<uint64_t>(a.predicate) << 8) | i,
                          static_cast<uint32_t>(s->id.size())});
      }
      s->id.push_back(kRigid);
    }
  }
  FoldColorRuns(s, /*refine=*/false);
  s->rank.assign(s->color.size(), kUnranked);
  state->encoding.clear();
  state->encoding.reserve(n + s->id.size());  // a word per atom and arg

  // Pass 1b: one Weisfeiler–Leman-style refinement round — recolor each
  // term by the multiset of its occurrences *including the colors of the
  // co-occurring terms*. This separates most structurally distinct but
  // profile-identical terms, collapsing the tie groups the canonical
  // search below would otherwise have to permute.
  if (n > 2) {
    s->occ.clear();
    for (size_t idx = 0; idx < n; ++idx) {
      const Atom& a = atoms[idx];
      const uint32_t* ids = s->id.data() + s->arg_begin[idx];
      size_t atom_sig = a.predicate;
      for (size_t i = 0; i < a.args.size(); ++i) {
        HashCombine(&atom_sig,
                    ids[i] == kRigid ? a.args[i].bits() : s->color[ids[i]]);
      }
      for (size_t i = 0; i < a.args.size(); ++i) {
        if (ids[i] == kRigid) continue;
        size_t code = atom_sig;
        HashCombine(&code, i);
        s->occ.push_back({ids[i], code, 0});
      }
    }
    FoldColorRuns(s, /*refine=*/true);
  }

  // Renaming-invariant key of each atom, concatenated into one arena:
  // predicate, rigid terms verbatim, renameable terms as kind + rank of
  // first occurrence among the atom's distinct renameable terms + color.
  s->keys.clear();
  s->key_span.clear();
  for (size_t idx = 0; idx < n; ++idx) {
    const Atom& a = atoms[idx];
    const uint32_t* ids = s->id.data() + s->arg_begin[idx];
    uint32_t begin = static_cast<uint32_t>(s->keys.size());
    s->keys.push_back(a.predicate);
    s->atom_seen.clear();
    for (size_t i = 0; i < a.args.size(); ++i) {
      if (ids[i] == kRigid) {
        s->keys.push_back(a.args[i].bits());
        continue;
      }
      size_t local_rank = 0;
      while (local_rank < s->atom_seen.size() &&
             s->atom_seen[local_rank] != ids[i]) {
        ++local_rank;
      }
      if (local_rank == s->atom_seen.size()) s->atom_seen.push_back(ids[i]);
      uint64_t kind_tag = a.args[i].is_variable() ? 3 : 1;
      s->keys.push_back((kind_tag << 62) | local_rank);
      s->keys.push_back(s->color[ids[i]]);
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

  // Sort atoms by key; runs of equal keys are the tie groups.
  std::vector<size_t>& order = s->order;
  order.resize(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), key_less);

  s->groups.clear();
  size_t combinations = 1;
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && key_eq(order[i], order[j])) ++j;
    if (j - i > 1) {
      s->groups.emplace_back(i, j);
      for (size_t k = 2; k <= j - i && combinations <= 720; ++k) {
        combinations *= k;
      }
    }
    i = j;
  }

  // Up to 720 group orders, take the one with the least encoding (exact
  // canonical form on symmetric states); beyond, keep the sorted order.
  if (!s->groups.empty() && combinations <= 720) {
    s->tie.resize(n);
    for (uint32_t i = 0; i < n; ++i) s->tie[i] = {i, i + 1};
    for (auto [begin, end] : s->groups) {
      std::sort(order.begin() + begin, order.begin() + end);
      for (size_t i = begin; i < end; ++i) {
        s->tie[i] = {static_cast<uint32_t>(begin), static_cast<uint32_t>(end)};
      }
    }
    LeastGroupOrder(atoms, order, s, &state->encoding, &s->best_order).Run();
    order.swap(s->best_order);
  }

  // Encode in canonical order unless the canonical search already did;
  // the renaming walk is only needed for `mapping`.
  bool encode = state->encoding.empty();
  if (encode || mapping != nullptr) {
    for (size_t idx : order) {
      const Atom& a = atoms[idx];
      if (encode) state->encoding.push_back((uint64_t{2} << 62) | a.predicate);
      for (size_t i = 0; i < a.args.size(); ++i) {
        uint64_t word = s->Word(a, idx, i);
        if (encode) state->encoding.push_back(word);
        if (mapping != nullptr && s->id[s->arg_begin[idx] + i] != kRigid) {
          Term t = a.args[i];
          uint64_t rank = word & ((uint64_t{1} << 62) - 1);
          (*mapping)[t] = t.is_variable() ? Term::Variable(rank)
                                          : Term::Null(rank);
        }
      }
    }
  }
  s->Rewind({0, 0, 0});

  state->hash = HashRange(state->encoding.begin(), state->encoding.end());
}

}  // namespace

CanonicalState CanonicalEncoding(const std::vector<Atom>& atoms) {
  CanonicalState state;
  EncodeCanonical(atoms, /*rename_nulls=*/false, nullptr, &state);
  return state;
}

void DecodeAtoms(CanonicalState* state) {
  const std::vector<uint64_t>& encoding = state->encoding;
  constexpr uint64_t kLow = (uint64_t{1} << 62) - 1;
  size_t num_atoms = 0;
  for (uint64_t word : encoding) num_atoms += IsPredicateWord(word) ? 1 : 0;
  std::vector<Atom>& atoms = state->atoms;
  atoms.clear();
  atoms.reserve(num_atoms);
  uint64_t predicate_mask = 0;
  uint64_t rigid_mask = 0;
  for (size_t begin = 0; begin < encoding.size();) {
    size_t end = EncodedAtomEnd(encoding, begin);
    Atom& atom = atoms.emplace_back();
    atom.predicate = EncodedPredicate(encoding[begin]);
    predicate_mask |= uint64_t{1} << (atom.predicate % 64);
    atom.args.reserve(end - begin - 1);
    for (size_t w = begin + 1; w < end; ++w) {
      uint64_t low = encoding[w] & kLow;
      Term t;
      switch (encoding[w] >> 62) {
        case 0: t = Term::Constant(low); break;
        case 1: t = Term::Null(low); break;
        default: t = Term::Variable(low); break;  // tag 3: canonical rank
      }
      if (t.is_rigid()) {
        rigid_mask |= uint64_t{1} << (std::hash<Term>{}(t) & 63);
      }
      atom.args.push_back(t);
    }
    begin = end;
  }
  state->predicate_mask = predicate_mask;
  state->rigid_mask = rigid_mask;
}

CanonicalState Canonicalize(const std::vector<Atom>& atoms, bool rename_nulls,
                            std::unordered_map<Term, Term>* mapping) {
  CanonicalState state;
  EncodeCanonical(atoms, rename_nulls, mapping, &state);
  DecodeAtoms(&state);
  return state;
}

namespace {

/// Grow-only per-thread scratch for component labelling and in-place
/// simplification: both run once per successor, so neither allocates once
/// warm.
struct ComponentScratch {
  std::vector<int> first_seen;    // per variable index; -1 = unseen
  std::vector<uint32_t> touched;  // variable indices to reset
  std::vector<std::pair<uint64_t, int>> occurrences;  // (variable, atom)
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

/// Variable indices below this are looked up in the flat first-seen
/// array; a state with a larger one groups its variables by sorting.
constexpr uint64_t kMaxFlatVariable = 4096;

/// Writes dense per-atom component ids (first-occurrence order of the
/// roots) to `ids` and returns the number of components. The scratch
/// grows with the number of variable occurrences, never past
/// kMaxFlatVariable with their indices.
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

  // Atoms sharing a variable are joined; the ids below depend only on
  // the resulting partition, not on the order of the joins.
  uint64_t max_variable = 0;
  for (const Atom& a : atoms) {
    for (Term t : a.args) {
      if (t.is_variable()) max_variable = std::max(max_variable, t.index());
    }
  }
  if (max_variable < kMaxFlatVariable) {
    for (size_t i = 0; i < n; ++i) {
      for (Term t : atoms[i].args) {
        if (!t.is_variable()) continue;
        uint32_t v = static_cast<uint32_t>(t.index());
        if (v >= s->first_seen.size()) s->first_seen.resize(v + 1, -1);
        if (s->first_seen[v] < 0) {
          s->first_seen[v] = static_cast<int>(i);
          s->touched.push_back(v);
        } else {
          s->parent[find(static_cast<int>(i))] = find(s->first_seen[v]);
        }
      }
    }
    for (uint32_t v : s->touched) s->first_seen[v] = -1;
    s->touched.clear();
  } else {
    // Sorting the occurrences by variable numbers the variables densely:
    // consecutive occurrences of one variable join their atoms.
    s->occurrences.clear();
    for (size_t i = 0; i < n; ++i) {
      for (Term t : atoms[i].args) {
        if (t.is_variable()) {
          s->occurrences.emplace_back(t.index(), static_cast<int>(i));
        }
      }
    }
    std::sort(s->occurrences.begin(), s->occurrences.end());
    for (size_t k = 1; k < s->occurrences.size(); ++k) {
      auto [variable, atom] = s->occurrences[k];
      auto [previous, previous_atom] = s->occurrences[k - 1];
      if (variable == previous) s->parent[find(atom)] = find(previous_atom);
    }
  }

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
  ComponentIds(atoms, &ids);
  return ids;
}

void ComponentIds(const std::vector<Atom>& atoms, std::vector<int>* ids) {
  LabelComponents(atoms, ThreadComponentScratch(), ids);
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
