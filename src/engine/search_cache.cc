#include "engine/search_cache.h"

#include <algorithm>

#include "analysis/predicate_graph.h"
#include "engine/resolution.h"

namespace vadalog {

ProgramIndex::ProgramIndex(const Program& program, const Instance& database) {
  const std::vector<Tgd>& tgds = program.tgds();
  size_t max_predicate = 0;
  auto note = [&max_predicate](PredicateId p) {
    max_predicate = std::max<size_t>(max_predicate, p);
  };
  for (const Tgd& tgd : tgds) {
    for (const Atom& a : tgd.head) note(a.predicate);
    for (const Atom& a : tgd.body) note(a.predicate);
  }
  for (PredicateId p : database.Predicates()) note(p);
  tgds_by_head_.resize(max_predicate + 1);
  existentials_.reserve(tgds.size());
  for (const Tgd& tgd : tgds) {
    existentials_.push_back(ExistentialVariablesOf(tgd));
  }
  supported_.assign(max_predicate + 1, 0);
  heads_by_body_.resize(max_predicate + 1);

  for (size_t i = 0; i < tgds.size(); ++i) {
    for (const Atom& head : tgds[i].head) {
      tgds_by_head_[head.predicate].push_back(i);
      for (const Atom& body : tgds[i].body) {
        heads_by_body_[body.predicate].push_back(head.predicate);
      }
    }
  }
  for (std::vector<PredicateId>& heads : heads_by_body_) {
    std::sort(heads.begin(), heads.end());
    heads.erase(std::unique(heads.begin(), heads.end()), heads.end());
  }

  // Supported-predicate least fixpoint, seeded with the database
  // predicates and evaluated one SCC of pg(Σ) at a time in topological
  // order: a head's body can only mention predicates of the same SCC or of
  // earlier ones, so each component stabilizes with a local iteration.
  for (PredicateId p : database.Predicates()) supported_[p] = 1;
  PredicateGraph graph(program);
  auto body_supported = [this](const Tgd& tgd) {
    for (const Atom& a : tgd.body) {
      if (!Supported(a.predicate)) return false;
    }
    return true;
  };
  for (int scc : graph.TopologicalComponents()) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (PredicateId p : graph.Component(scc)) {
        if (Supported(p)) continue;
        for (size_t tgd_index : TgdsWithHead(p)) {
          if (body_supported(tgds[tgd_index])) {
            supported_[p] = 1;
            changed = true;
            break;
          }
        }
      }
    }
  }
}

const std::vector<size_t>& ProgramIndex::TgdsWithHead(PredicateId p) const {
  return p < tgds_by_head_.size() ? tgds_by_head_[p] : no_tgds_;
}

std::vector<char> ProgramIndex::AffectedByDelta(
    const std::vector<PredicateId>& delta) const {
  std::vector<char> affected(supported_.size(), 0);
  std::vector<PredicateId> frontier;
  for (PredicateId p : delta) {
    if (p < affected.size() && affected[p] == 0) {
      affected[p] = 1;
      frontier.push_back(p);
    }
  }
  while (!frontier.empty()) {
    PredicateId p = frontier.back();
    frontier.pop_back();
    for (PredicateId head : heads_by_body_[p]) {
      if (affected[head] == 0) {
        affected[head] = 1;
        frontier.push_back(head);
      }
    }
  }
  return affected;
}

bool ProgramIndex::AtomIsDead(const Atom& atom,
                              const Instance& database) const {
  if (!Supported(atom.predicate)) return true;
  return !RuleDerivable(atom.predicate) &&
         EstimateMatches(atom, database) == 0;
}

bool ProgramIndex::StateIsDead(const std::vector<Atom>& atoms,
                               const Instance& database) const {
  for (const Atom& atom : atoms) {
    if (AtomIsDead(atom, database)) return true;
  }
  return false;
}

ProofSearchCache::ProofSearchCache(const Program& program,
                                   const Instance& database)
    : index_(program, database) {}

namespace {

/// Thread-local scratch of the cache probes and interning: concurrent
/// probes (from concurrent searches of one session) must not share a
/// member buffer, and none allocates once warm.
struct KeyScratch {
  std::vector<uint64_t> chunk;  // one atom's encoding words
  std::vector<uint32_t> key;    // a probed state's key
};

KeyScratch* ThreadKeyScratch() {
  static thread_local KeyScratch scratch;
  return &scratch;
}

}  // namespace

ProofSearchCache::Key ProofSearchCache::InternKey(const CanonicalState& state) {
  std::vector<uint64_t>& chunk = ThreadKeyScratch()->chunk;
  const std::vector<uint64_t>& encoding = state.encoding;
  Key key;
  key.reserve(state.atoms.size());
  for (size_t begin = 0; begin < encoding.size();) {
    size_t end = EncodedAtomEnd(encoding, begin);
    chunk.assign(encoding.begin() + begin, encoding.begin() + end);
    auto it = atom_ids_.find(chunk);
    if (it == atom_ids_.end()) {
      uint32_t next_id = static_cast<uint32_t>(atom_ids_.size());
      it = atom_ids_.emplace(chunk, next_id).first;
      interned_words_ += end - begin;
      atom_predicates_.push_back(EncodedPredicate(encoding[begin]));
    }
    key.push_back(it->second);
    begin = end;
  }
  return key;
}

bool ProofSearchCache::BuildKey(const CanonicalState& state, Key* out) const {
  std::vector<uint64_t>& chunk = ThreadKeyScratch()->chunk;
  const std::vector<uint64_t>& encoding = state.encoding;
  out->clear();
  for (size_t begin = 0; begin < encoding.size();) {
    size_t end = EncodedAtomEnd(encoding, begin);
    chunk.assign(encoding.begin() + begin, encoding.begin() + end);
    auto it = atom_ids_.find(chunk);
    if (it == atom_ids_.end()) return false;  // unseen atom => unseen state
    out->push_back(it->second);
    begin = end;
  }
  return true;
}

bool ProofSearchCache::Lookup(const Table& table, const CanonicalState& state,
                              size_t width, size_t max_chunk,
                              bool entry_must_cover) {
  stats_.lookups.fetch_add(1, std::memory_order_relaxed);
  if (table.empty()) return false;  // cold cache: skip the key walk
  Key& key = ThreadKeyScratch()->key;
  if (!BuildKey(state, &key)) return false;
  auto it = table.find(key);
  if (it == table.end()) return false;
  const Bound& entry = it->second;
  // A refutation transfers to a search exploring no more than the
  // recording one (entry covers the request); a proof to one exploring no
  // less (request covers the entry).
  bool usable = entry_must_cover
                    ? (entry.width >= width && entry.chunk >= max_chunk)
                    : (entry.width <= width && entry.chunk <= max_chunk);
  if (usable) stats_.hits.fetch_add(1, std::memory_order_relaxed);
  return usable;
}

bool ProofSearchCache::Record(Table* table, const CanonicalState& state,
                              size_t width, size_t max_chunk,
                              bool keep_larger) {
  Bound fresh{
      static_cast<uint32_t>(std::min<size_t>(width, UINT32_MAX)),
      static_cast<uint32_t>(std::min<size_t>(max_chunk, UINT32_MAX))};
  Key key = InternKey(state);
  size_t key_len = key.size();
  auto [it, inserted] = table->try_emplace(std::move(key), fresh);
  if (inserted) {
    stats_.insertions.fetch_add(1, std::memory_order_relaxed);
    key_words_ += key_len;
    return true;
  }
  // Only replace when the new bound dominates the stored one in the
  // direction that makes the entry more reusable; incomparable bounds keep
  // the existing entry (both claims are true, we just keep one).
  Bound& stored = it->second;
  bool dominates = keep_larger ? (fresh.width >= stored.width &&
                                  fresh.chunk >= stored.chunk)
                               : (fresh.width <= stored.width &&
                                  fresh.chunk <= stored.chunk);
  if (dominates) stored = fresh;
  return false;
}

bool ProofSearchCache::LinearKnownRefuted(const CanonicalState& state,
                                          size_t width, size_t max_chunk) {
  base::ReaderLock lock(&mutex_);
  return Lookup(linear_refuted_, state, width, max_chunk,
                /*entry_must_cover=*/true);
}

void ProofSearchCache::LinearRecordRefuted(const CanonicalState& state,
                                           size_t width, size_t max_chunk) {
  base::WriterLock lock(&mutex_);
  if (Record(&linear_refuted_, state, width, max_chunk,
             /*keep_larger=*/true)) {
    // Fresh refutations also enter the subsumption index (with their
    // insert-time bound; later bound upgrades are not mirrored — a stale
    // narrower entry is still sound, just less reusable).
    linear_refuted_states_.Add(state, width, max_chunk);
  }
}

bool ProofSearchCache::AltKnownProven(const CanonicalState& state,
                                      size_t width, size_t max_chunk) {
  base::ReaderLock lock(&mutex_);
  return Lookup(alt_proven_, state, width, max_chunk,
                /*entry_must_cover=*/false);
}

bool ProofSearchCache::AltKnownRefuted(const CanonicalState& state,
                                       size_t width, size_t max_chunk) {
  base::ReaderLock lock(&mutex_);
  return Lookup(alt_refuted_, state, width, max_chunk,
                /*entry_must_cover=*/true);
}

void ProofSearchCache::AltRecordProven(const CanonicalState& state,
                                       size_t width, size_t max_chunk) {
  base::WriterLock lock(&mutex_);
  Record(&alt_proven_, state, width, max_chunk, /*keep_larger=*/false);
}

void ProofSearchCache::AltRecordRefuted(const CanonicalState& state,
                                        size_t width, size_t max_chunk) {
  base::WriterLock lock(&mutex_);
  if (Record(&alt_refuted_, state, width, max_chunk, /*keep_larger=*/true)) {
    alt_refuted_states_.Add(state, width, max_chunk);
  }
}

ProofSearchCache::DeltaInvalidation ProofSearchCache::InvalidateForDelta(
    const Program& program, const Instance& database,
    const std::vector<PredicateId>& delta_predicates) {
  base::WriterLock lock(&mutex_);
  DeltaInvalidation result;
  // The schema-sized index is rebuilt first: the supported fixpoint and
  // the per-atom match estimates are monotone in the database, so the
  // fresh index only ever prunes less than the stale one did.
  index_ = ProgramIndex(program, database);
  std::vector<char> affected = index_.AffectedByDelta(delta_predicates);
  for (char flag : affected) {
    result.affected_predicates += static_cast<size_t>(flag);
  }

  // One staleness bit per interned atom id; stored keys are tested by id
  // without re-decoding the atom encoding.
  std::vector<char> stale_atom(atom_predicates_.size(), 0);
  bool any_stale = false;
  for (size_t id = 0; id < atom_predicates_.size(); ++id) {
    PredicateId p = atom_predicates_[id];
    if (p < affected.size() && affected[p] != 0) {
      stale_atom[id] = 1;
      any_stale = true;
    }
  }
  result.proven_kept = alt_proven_.size();
  if (!any_stale) return result;

  auto key_is_stale = [&stale_atom](const Key& key) {
    for (uint32_t id : key) {
      if (stale_atom[id] != 0) return true;
    }
    return false;
  };
  auto drop_stale = [&](Table* table) {
    for (auto it = table->begin(); it != table->end();) {
      if (key_is_stale(it->first)) {
        key_words_ -= it->first.size();
        it = table->erase(it);
        ++result.exact_dropped;
      } else {
        ++it;
      }
    }
  };
  // Refutations ("cannot reach the empty state") can be voided by new
  // facts in their cone; proofs are monotone and all survive.
  drop_stale(&linear_refuted_);
  drop_stale(&alt_refuted_);
  result.subsumers_dropped =
      linear_refuted_states_.InvalidateByPredicate(affected) +
      alt_refuted_states_.InvalidateByPredicate(affected);
  return result;
}

size_t ProofSearchCache::ApproximateBytes() const {
  base::ReaderLock lock(&mutex_);
  size_t entries = linear_refuted_.size() + alt_proven_.size() +
                   alt_refuted_.size();
  return interned_words_ * sizeof(uint64_t) + key_words_ * sizeof(uint32_t) +
         atom_predicates_.size() * sizeof(PredicateId) +
         entries * sizeof(Bound) + linear_refuted_states_.ApproximateBytes() +
         alt_refuted_states_.ApproximateBytes();
}

}  // namespace vadalog
