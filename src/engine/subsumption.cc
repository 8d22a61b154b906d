#include "engine/subsumption.h"

#include <algorithm>
#include <limits>

#include "storage/homomorphism.h"

namespace vadalog {
namespace {

// Hom checks per query before giving up. Subsumption is an optimization:
// missing a prune is always sound, so a deterministic cap bounds the
// worst-case insertion cost on searches with huge same-predicate buckets.
// Size-layered buckets make the capped prefix the most general subsumers.
// A missed prune forfeits a whole subtree while a hom check costs well
// under a microsecond, so the cap errs generous; the adaptive gate below
// handles workloads where subsumption never fires at all.
constexpr uint64_t kMaxHomChecksPerQuery = 64;

// Deterministic self-disable, in units of work-per-prune: a successful
// prune saves at least one state expansion (usually a whole subtree),
// worth roughly a couple hundred hom checks. Once the index has burned
// kAdaptiveProbation checks and is paying more than kMaxChecksPerHit
// checks per hit, the workload's states are evidently (near-)pairwise
// incomparable and every further query is a net loss — stop checking.
constexpr uint64_t kAdaptiveProbation = 16384;
constexpr uint64_t kMaxChecksPerHit = 32;

}  // namespace

int64_t SubsumptionIndex::Add(const CanonicalState& state, size_t width,
                              size_t chunk) {
  // The empty state never arises here (it is the accepting state).
  if (state.atoms.empty()) return -1;
  Entry entry;
  entry.atoms = state.atoms;
  entry.mask = state.predicate_mask;
  entry.rigid_mask = state.rigid_mask;
  entry.width = static_cast<uint32_t>(
      std::min<size_t>(width, std::numeric_limits<uint32_t>::max()));
  entry.chunk = static_cast<uint32_t>(
      std::min<size_t>(chunk, std::numeric_limits<uint32_t>::max()));
  for (const Atom& a : entry.atoms) {
    atom_bytes_ += sizeof(Atom) + a.args.size() * sizeof(Term);
  }

  PredicateId min_predicate = entry.atoms[0].predicate;
  for (const Atom& a : entry.atoms) {
    min_predicate = std::min(min_predicate, a.predicate);
  }
  if (buckets_.size() <= min_predicate) buckets_.resize(min_predicate + 1);
  std::vector<std::vector<uint32_t>>& layers = buckets_[min_predicate];
  size_t layer = entry.atoms.size() - 1;
  if (layers.size() <= layer) layers.resize(layer + 1);
  int64_t id = static_cast<int64_t>(entries_.size());
  layers[layer].push_back(static_cast<uint32_t>(id));
  entries_.push_back(std::move(entry));
  return id;
}

int64_t SubsumptionIndex::FindSubsumer(const CanonicalState& state,
                                       size_t width, size_t chunk,
                                       int64_t same_size_before) const {
  if (entries_.empty() || state.atoms.empty()) return -1;
  uint64_t gate_checks = stats_.hom_checks.load(std::memory_order_relaxed);
  uint64_t gate_hits = stats_.hits.load(std::memory_order_relaxed);
  if (gate_checks >= kAdaptiveProbation &&
      gate_checks > gate_hits * kMaxChecksPerHit) {
    return -1;
  }
  // The state's masks were computed once, with its atoms.
  uint64_t state_mask = state.predicate_mask;
  uint64_t state_rigid = state.rigid_mask;
  // The subsumer's predicates are a subset of the state's, so its
  // min-predicate bucket is keyed by one of the state's predicates.
  // Distinct predicates only: consecutive canonical atoms share buckets.
  static thread_local std::vector<PredicateId> predicates;
  predicates.clear();
  PredicateId last = std::numeric_limits<PredicateId>::max();
  for (const Atom& a : state.atoms) {
    if (a.predicate != last && a.predicate < buckets_.size()) {
      predicates.push_back(a.predicate);
    }
    last = a.predicate;
  }
  // Smallest layers first: the most general subsumers prune the most, so
  // they get the capped hom-check budget. The counters are bumped once
  // per query, after the scan.
  uint64_t checks = 0;
  auto scan = [&]() -> int64_t {
    size_t same_size_layer = state.atoms.size() - 1;
    for (size_t layer = 0; layer <= same_size_layer; ++layer) {
      for (PredicateId p : predicates) {
        if (layer >= buckets_[p].size()) continue;
        for (uint32_t id : buckets_[p][layer]) {
          if (layer == same_size_layer &&
              static_cast<int64_t>(id) >= same_size_before) {
            continue;
          }
          const Entry& entry = entries_[id];
          if (entry.suppressed != 0) continue;
          if ((entry.mask & ~state_mask) != 0) continue;
          if ((entry.rigid_mask & ~state_rigid) != 0) continue;
          if (entry.width < width || entry.chunk < chunk) continue;
          if (checks >= kMaxHomChecksPerQuery) return -1;
          ++checks;
          if (HasStateHomomorphism(entry.atoms, state.atoms)) {
            return static_cast<int64_t>(id);
          }
        }
      }
    }
    return -1;
  };
  int64_t found = scan();
  stats_.hom_checks.fetch_add(checks, std::memory_order_relaxed);
  if (found >= 0) stats_.hits.fetch_add(1, std::memory_order_relaxed);
  return found;
}

size_t SubsumptionIndex::InvalidateByPredicate(
    const std::vector<char>& affected) {
  size_t dropped = 0;
  for (Entry& entry : entries_) {
    if (entry.suppressed != 0) continue;
    bool stale = false;
    for (const Atom& a : entry.atoms) {
      if (a.predicate < affected.size() && affected[a.predicate] != 0) {
        stale = true;
        break;
      }
    }
    if (!stale) continue;
    for (const Atom& a : entry.atoms) {
      atom_bytes_ -= sizeof(Atom) + a.args.size() * sizeof(Term);
    }
    std::vector<Atom>().swap(entry.atoms);
    entry.suppressed = 1;
    ++dropped;
  }
  return dropped;
}

size_t SubsumptionIndex::ApproximateBytes() const {
  return atom_bytes_ + entries_.size() * sizeof(Entry) +
         entries_.size() * sizeof(uint32_t);
}

}  // namespace vadalog
