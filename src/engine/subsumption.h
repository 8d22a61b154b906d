// Subsumption-based state pruning for the bounded proof searches.
//
// A proof state is accepted iff it maps homomorphically into chase(D, Σ),
// so if a state A maps homomorphically into a state S (Chandra–Merlin:
// S's CQ is contained in A's), every proof of S restricts to a proof of
// A — refuting A refutes S, and exploring A covers every acceptance S
// could contribute. The searches exploit this two ways:
//
//   * a new frontier state subsumed by an already-visited/refuted state is
//     discarded (its whole subtree is covered by the subsumer's), and
//   * a queued frontier state that a newer, more general state maps into
//     is retired without expansion.
//
// Both prunings are restricted to subsumers with no more atoms than the
// subsumed state. That keeps the simulation argument within the node-width
// bound (a larger subsumer's simulated proof could exceed the bound where
// the original did not) and makes the index cheap: candidate subsumers are
// prefiltered by atom count and a predicate bitmask before any
// homomorphism is attempted. Exactness of the pruned searches against the
// chase engine is fuzzed by the cross-engine property sweeps.
//
// Entries carry the (node_width, max_chunk) exploration bound they were
// established under, mirroring ProofSearchCache: a refutation-backed
// subsumer only prunes a search exploring no more than the recording one.
//
// Thread safety: NOT internally synchronized — a SubsumptionIndex is
// either owned by a single search (the linear visited-state index, the
// alternating refuted-state index) or embedded in a ProofSearchCache,
// whose reader-writer capability guards it (the banks are GUARDED_BY the
// cache mutex, so clang -Wthread-safety checks every access).
// FindSubsumer only reads the entries and bumps relaxed-atomic counters,
// so concurrent probes are safe as long as no Add, Suppress or
// InvalidateByPredicate runs at the same time.

#ifndef VADALOG_ENGINE_SUBSUMPTION_H_
#define VADALOG_ENGINE_SUBSUMPTION_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "engine/state.h"

namespace vadalog {

class SubsumptionIndex {
 public:
  /// Registers `state` as a subsumer established under exploration bound
  /// (width, chunk) and returns its entry id (sequential from 0). Entries
  /// are never removed: a pruned state's refutation claim stays valid, so
  /// it keeps subsuming.
  int64_t Add(const CanonicalState& state, size_t width, size_t chunk);

  struct Stats {
    std::atomic<uint64_t> hom_checks{0};
    std::atomic<uint64_t> hits{0};
  };

  /// Finds a registered state with a bound covering (width, chunk) and no
  /// more atoms than `state` that maps homomorphically into it. `state`
  /// must carry its atoms and masks (Canonicalize or DecodeAtoms): the
  /// masks are computed once per state, not once per probe. Returns
  /// its entry id, or -1. Same-size subsumers only count when their entry
  /// id is below `same_size_before`: a search pruning its own registered
  /// frontier passes the state's own id, which (a) excludes the state
  /// itself and (b) makes same-size pruning acyclic — otherwise two
  /// mutually subsuming equal-size states could each prune the other and
  /// drop an accepting subtree on the floor. Strictly smaller subsumers
  /// always count (the (size, id) measure strictly decreases along any
  /// pruning chain, so chains end at a state that is genuinely expanded).
  int64_t FindSubsumer(const CanonicalState& state, size_t width, size_t chunk,
                       int64_t same_size_before = INT64_MAX) const;

  /// Marks an entry as covered by another subsumer, excluding it from
  /// further matching. Lossless: anything it subsumes, its own subsumer
  /// subsumes too (homomorphisms compose) — suppression just keeps the
  /// capped scans focused on non-redundant entries.
  void Suppress(int64_t id) {
    entries_[static_cast<size_t>(id)].suppressed = 1;
  }

  /// Delta maintenance: tombstones (suppresses and frees the atoms of)
  /// every live entry containing a predicate flagged in `affected` —
  /// such an entry's refutation claim may no longer hold once facts of
  /// an affected predicate are inserted. Entry ids stay stable (the
  /// suppressed slot remains so same-size ordering is untouched); the
  /// freed atom storage is reclaimed immediately. Returns the number of
  /// entries tombstoned.
  size_t InvalidateByPredicate(const std::vector<char>& affected);

  size_t size() const { return entries_.size(); }

  const Stats& stats() const { return stats_; }

  size_t ApproximateBytes() const;

 private:
  struct Entry {
    std::vector<Atom> atoms;  // canonical atoms of the subsumer
    // The state's bloom masks (CanonicalState): a homomorphism maps
    // predicates onto themselves and is the identity on constants and
    // nulls, so a subsumer's predicates and rigid terms all occur in the
    // subsumed state.
    uint64_t mask;
    uint64_t rigid_mask;
    uint32_t width;
    uint32_t chunk;
    char suppressed = 0;      // covered by another entry; skip in scans
  };

  // Entries bucketed by their smallest predicate id (a subsumer's
  // predicates are a subset of the subsumed state's, so its smallest
  // predicate occurs in the state and the relevant buckets are exactly
  // those of the state's predicates), then layered by atom count so the
  // smallest — most general, hence strongest — subsumers are tried first
  // under the per-query hom-check cap.
  std::vector<Entry> entries_;
  // buckets_[p][size-1] -> entry ids with min predicate p and that size.
  std::vector<std::vector<std::vector<uint32_t>>> buckets_;
  size_t atom_bytes_ = 0;
  mutable Stats stats_;
};

}  // namespace vadalog

#endif  // VADALOG_ENGINE_SUBSUMPTION_H_
