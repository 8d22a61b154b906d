#include "engine/linear_search.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/fragments.h"
#include "analysis/predicate_graph.h"
#include "base/hash.h"
#include "engine/resolution.h"
#include "engine/search_cache.h"
#include "engine/state.h"
#include "engine/subsumption.h"
#include "obs/metrics.h"

namespace vadalog {
namespace {

struct EncodingHash {
  size_t operator()(const std::vector<uint64_t>& encoding) const {
    return HashRange(encoding.begin(), encoding.end());
  }
};

/// Provenance edge for proof reconstruction: how a canonical state was
/// first reached.
struct ParentEdge {
  std::vector<uint64_t> parent;  // parent canonical encoding
  ProofStep step;                // op that produced the child
};

/// A successor that survived the expansion-side filters (simplify, width,
/// dead-state, visited snapshot, exact cache) and awaits the merge phase.
struct Candidate {
  CanonicalState state;
  ProofStep step;  // provenance; only populated with explanations on
  const CanonicalState* visited = nullptr;  // node in the visited table
  bool fresh = false;  // true iff this candidate inserted that node
};

/// Everything one frontier expansion produces (one slot per frontier
/// index), merged afterwards in frontier order.
struct ExpandOutput {
  std::vector<Candidate> candidates;
  bool accepted = false;
  ProofStep accept_step;
  uint64_t drop_edges = 0;
  uint64_t resolution_edges = 0;
  uint64_t cache_hits = 0;
  size_t peak_state_bytes = 0;
};

/// One queued frontier state plus its subsumption-index registration id
/// (the deterministic tie-break for same-size subsumption).
struct LevelEntry {
  const CanonicalState* state;
  int64_t ordinal;
};

/// The level-synchronous BFS driver. Each level is (1) filtered by
/// subsumption, (2) expanded against the visited table as of the level
/// start, (3) deduplicated into the visited table in frontier order, and
/// (4) merged in frontier order (acceptance, provenance, subsumption
/// registration, next frontier). Successors found within one level are
/// therefore never deduplicated against each other during expansion,
/// which fixes the exploration counters to the level structure.
class LinearSearcher {
 public:
  LinearSearcher(const Program& program, const Instance& database,
                 const ProgramIndex& index, const ProofSearchOptions& options,
                 size_t width, size_t max_chunk, ProofSearchResult* result,
                 ProofExplanation* explanation)
      : program_(program),
        database_(database),
        index_(index),
        cache_(options.cache),
        subsumption_(options.subsumption),
        width_(width),
        max_chunk_(max_chunk),
        max_states_(options.max_states),
        timed_(options.max_millis != 0),
        result_(result),
        explanation_(explanation) {
    if (timed_) {
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options.max_millis);
    }
  }

  void Run(std::vector<Atom> frozen) {
    std::vector<LevelEntry> level;
    {
      // The initial state goes through the same pipeline with a synthetic
      // kStart edge and an all-dirty certificate.
      ExpandOutput seed;
      dirty_.assign(frozen.size(), 1);
      ProofStep start;
      start.kind = ProofStep::Kind::kStart;
      MakeCandidate(&frozen, &dirty_, std::move(start), &seed);
      std::vector<const CanonicalState*> no_parent = {nullptr};
      std::vector<ExpandOutput*> seed_outputs = {&seed};
      MergeOutputs(no_parent, seed_outputs, &level);
      AccumulateCounters(seed);
      if (result_->accepted) return Finish();
    }

    while (!level.empty() && !result_->accepted &&
           !result_->budget_exhausted) {
      // Subsumption pruning happens here, per level, just before the
      // expansion: one pass against everything registered so far —
      // including this level's own siblings (discard + retirement
      // unified). States a budget cut strands unexpanded never pay for a
      // query.
      if (subsumption_) FilterLevel(&level);
      if (level.empty()) break;

      size_t allowed = level.size();
      if (max_states_ != 0) {
        uint64_t remaining = max_states_ > result_->states_expanded
                                 ? max_states_ - result_->states_expanded
                                 : 0;
        if (remaining < allowed) {
          allowed = static_cast<size_t>(remaining);
          result_->budget_exhausted = true;  // part of the level is cut
        }
      }

      std::vector<ExpandOutput> outputs(allowed);
      result_->states_expanded += ExpandLevel(level, allowed, &outputs);
      for (const ExpandOutput& out : outputs) AccumulateCounters(out);

      std::vector<const CanonicalState*> parent_states(allowed);
      std::vector<ExpandOutput*> output_ptrs(allowed);
      for (size_t i = 0; i < allowed; ++i) {
        parent_states[i] = level[i].state;
        output_ptrs[i] = &outputs[i];
      }
      std::vector<LevelEntry> next;
      MergeOutputs(parent_states, output_ptrs, &next);
      level = std::move(next);
    }
    Finish();
  }

 private:
  /// The unified subsumption pass: drops every queued state some other
  /// registered state maps into — visited states of earlier levels
  /// (classic discard), same-level siblings registered earlier or
  /// strictly smaller (retirement), and the shared cache's refuted
  /// states. Dropped states stay visited and stay registered: their
  /// claims remain valid, and the (size, registration-id) measure keeps
  /// the pruning chains well-founded.
  void FilterLevel(std::vector<LevelEntry>* level) {
    int64_t level_base = level->front().ordinal;
    size_t kept = 0;
    for (LevelEntry& entry : *level) {
      int64_t subsumer = visited_subsumers_.FindSubsumer(
          *entry.state, width_, max_chunk_, entry.ordinal);
      if (subsumer >= 0) {
        if (subsumer >= level_base) {
          ++result_->states_retired;  // a same-level, newer-general sibling
        } else {
          ++result_->subsumed_discarded;
        }
        visited_subsumers_.Suppress(entry.ordinal);
        continue;
      }
      if (cache_ != nullptr &&
          cache_->LinearRefutedBySubsumption(*entry.state, width_,
                                             max_chunk_)) {
        ++result_->cache_hits;
        ++result_->subsumed_discarded;
        visited_subsumers_.Suppress(entry.ordinal);
        continue;
      }
      (*level)[kept++] = entry;
    }
    level->resize(kept);
  }

  /// Expands `level[0..allowed)` into `outputs`. Returns the number of
  /// completed expansions (less than `allowed` only on early accept /
  /// deadline stop).
  size_t ExpandLevel(const std::vector<LevelEntry>& level, size_t allowed,
                     std::vector<ExpandOutput>* outputs) {
    // Early accept-abort trades which proof is found for wall-clock; with
    // explanations requested every state is finished so the merge
    // deterministically picks the first accepting edge in frontier order.
    const bool abort_on_accept = explanation_ == nullptr;
    for (size_t i = 0; i < allowed; ++i) {
      if (timed_ && (i & 63) == 0 &&
          std::chrono::steady_clock::now() >= deadline_) {
        result_->budget_exhausted = true;
        return i;
      }
      ExpandState(*level[i].state, &(*outputs)[i]);
      if ((*outputs)[i].accepted && abort_on_accept) return i + 1;
    }
    return allowed;
  }

  /// Expands one canonical state: match-and-drop plus anchored chunk
  /// resolutions through the selected atom. Both generators are
  /// dead-first (a dead successor is counted as an edge but never built),
  /// and every buffer here is reused from one expansion to the next.
  void ExpandState(const CanonicalState& state, ExpandOutput* out) {
    size_t selected = SelectAtom(state.atoms, database_);
    ComponentIds(state.atoms, &components_);
    int pivot_component = components_[selected];

    // Match-and-drop: each database row the selected atom matches is one
    // specialization guess; the atom becomes a leaf. Only the pivot's
    // component loses an atom, so only its remnants need
    // re-simplification (the bindings touch no other component).
    drop_.Plan(state.atoms, selected, index_, database_);
    rest_dirty_.clear();
    for (size_t i = 0; i < state.atoms.size(); ++i) {
      if (i == selected) continue;
      rest_dirty_.push_back(components_[i] == pivot_component ? 1 : 0);
    }
    for (size_t k = 0; k < drop_.size(); ++k) {
      ++out->drop_edges;
      if (drop_.ChildIsDead(k)) continue;
      ProofStep step;
      step.kind = ProofStep::Kind::kMatchDrop;
      if (explanation_ != nullptr) {
        step.matched_fact = Atom(drop_.predicate(), drop_.Tuple(k));
      }
      drop_.BuildChild(k, &child_);
      dirty_ = rest_dirty_;
      if (MakeCandidate(&child_, &dirty_, std::move(step), out)) return;
    }

    // Resolution: every chunk unifier whose chunk contains the selected
    // atom (Definition 4.3), over the per-predicate relevance bucket.
    uint64_t fresh_base = 0;
    for (const Atom& a : state.atoms) {
      for (Term t : a.args) {
        if (t.is_variable()) fresh_base = std::max(fresh_base, t.index() + 1);
      }
    }
    PredicateId pivot = state.atoms[selected].predicate;
    for (size_t tgd_index : index_.TgdsWithHead(pivot)) {
      size_t dead = ResolveWithTgd(state.atoms, program_, index_, database_,
                                   tgd_index, fresh_base, max_chunk_,
                                   /*anchor=*/selected, &resolvents_);
      for (Resolvent& r : resolvents_) {
        // Edges are counted in enumeration order, dead ones included.
        out->resolution_edges += r.dead_before + 1;
        dead -= r.dead_before;
        ProofStep step;
        step.kind = ProofStep::Kind::kResolution;
        step.tgd_index = tgd_index;
        ResolventDirtyFlags(components_, r.chunk, r.atoms.size(), &dirty_);
        if (MakeCandidate(&r.atoms, &dirty_, std::move(step), out)) return;
      }
      out->resolution_edges += dead;  // dropped after the last survivor
    }
  }

  /// One successor through the stages dead → simplify → width → encode →
  /// probe → materialize: rejected as early as possible, encoded before
  /// it is probed, and decoded into atoms only once it survives. Returns
  /// true on acceptance (empty state), which stops the surrounding
  /// expansion. `atoms` and `dirty` are consumed as scratch.
  bool MakeCandidate(std::vector<Atom>* atoms, std::vector<char>* dirty,
                     ProofStep step, ExpandOutput* out) {
    if (index_.StateIsDead(*atoms, database_)) return false;
    EagerSimplifyIncremental(atoms, database_, dirty);
    if (atoms->size() > width_) return false;  // pruned by Theorem 4.8
    CanonicalState canonical = CanonicalEncoding(*atoms);
    if (canonical.encoding.empty()) {
      out->accepted = true;
      if (explanation_ != nullptr) out->accept_step = std::move(step);
      return true;
    }
    out->peak_state_bytes =
        std::max(out->peak_state_bytes, canonical.ApproximateBytes());
    // Snapshot dedupe: the visited table as of the level start (the merge
    // re-checks authoritatively, so intra-level duplicates are fine).
    if (visited_.count(canonical) > 0) return false;
    if (cache_ != nullptr &&
        cache_->LinearKnownRefuted(canonical, width_, max_chunk_)) {
      ++out->cache_hits;  // a previous search refuted this whole subtree
      return false;
    }
    DecodeAtoms(&canonical);
    if (explanation_ != nullptr) step.state = canonical.atoms;
    Candidate candidate;
    candidate.state = std::move(canonical);
    candidate.step = std::move(step);
    out->candidates.push_back(std::move(candidate));
    return false;
  }

  /// Dedupes every candidate into the visited table in frontier order,
  /// logging fresh states in first-visit order.
  void DedupeCandidates(const std::vector<ExpandOutput*>& outputs) {
    for (ExpandOutput* out : outputs) {
      for (Candidate& candidate : out->candidates) {
        // The candidate state is dead after this (visited/fresh carry
        // everything the merge needs), so move it into the table.
        auto [it, inserted] = visited_.insert(std::move(candidate.state));
        candidate.visited = &*it;
        candidate.fresh = inserted;
        if (inserted) visit_order_.push_back(&*it);
      }
    }
  }

  /// Sequential merge in frontier order — acceptance, provenance,
  /// subsumption registration, and the next frontier. The subsumption
  /// *queries* happen later, in FilterLevel, so unexpanded states never
  /// pay for them. `parents[i]` may be null (the synthetic root).
  void MergeOutputs(const std::vector<const CanonicalState*>& parents,
                    const std::vector<ExpandOutput*>& outputs,
                    std::vector<LevelEntry>* next_level) {
    DedupeCandidates(outputs);

    static const std::vector<uint64_t> kRootEncoding;
    for (size_t i = 0; i < outputs.size(); ++i) {
      const ExpandOutput& out = *outputs[i];
      const std::vector<uint64_t>& parent_encoding =
          parents[i] == nullptr ? kRootEncoding : parents[i]->encoding;
      if (out.accepted) {
        result_->accepted = true;
        if (explanation_ != nullptr) {
          parents_.try_emplace(std::vector<uint64_t>{},
                               ParentEdge{parent_encoding, out.accept_step});
        }
        return;  // deterministic: first accepting edge in frontier order
      }
      for (const Candidate& candidate : out.candidates) {
        if (explanation_ != nullptr) {
          parents_.try_emplace(candidate.visited->encoding,
                               ParentEdge{parent_encoding, candidate.step});
        }
        if (!candidate.fresh) continue;  // duplicate of an earlier state
        const CanonicalState* state = candidate.visited;
        result_->visited_bytes += state->ApproximateBytes();
        int64_t ordinal =
            subsumption_
                ? visited_subsumers_.Add(*state, width_, max_chunk_)
                : 0;
        next_level->push_back(LevelEntry{state, ordinal});
      }
    }
  }

  void AccumulateCounters(const ExpandOutput& out) {
    result_->drop_edges += out.drop_edges;
    result_->resolution_edges += out.resolution_edges;
    result_->cache_hits += out.cache_hits;
    result_->peak_state_bytes =
        std::max(result_->peak_state_bytes, out.peak_state_bytes);
  }

  void Finish() {
    result_->states_visited = visited_.size();
    result_->subsumption_checks = visited_subsumers_.stats().hom_checks;
    if (!result_->accepted && !result_->budget_exhausted) {
      // A completed BFS is a refutation certificate for every state it
      // visited: everything reachable from a visited state was explored,
      // already known refuted, or subsumed by another visited state. A
      // budget-exhausted (or accepted) run records nothing — an aborted
      // refutation is not a refutation certificate. Certificates go to
      // the shared cache, in first-visit order.
      if (cache_ != nullptr) {
        for (const CanonicalState* state : visit_order_) {
          cache_->LinearRecordRefuted(*state, width_, max_chunk_);
        }
      }
    }
    if (result_->accepted && explanation_ != nullptr) {
      // Fold the parent chain back into the linear proof.
      explanation_->steps.clear();
      std::vector<uint64_t> cursor;  // empty = accepting state
      while (true) {
        auto it = parents_.find(cursor);
        if (it == parents_.end()) break;
        explanation_->steps.push_back(it->second.step);
        cursor = it->second.parent;
        if (it->second.step.kind == ProofStep::Kind::kStart) break;
      }
      std::reverse(explanation_->steps.begin(), explanation_->steps.end());
    }
  }

  const Program& program_;
  const Instance& database_;
  const ProgramIndex& index_;
  ProofSearchCache* cache_;
  const bool subsumption_;
  const size_t width_;
  const size_t max_chunk_;
  const uint64_t max_states_;
  const bool timed_;
  std::chrono::steady_clock::time_point deadline_{};
  ProofSearchResult* result_;
  ProofExplanation* explanation_;

  std::unordered_set<CanonicalState, CanonicalStateHash> visited_;
  std::vector<const CanonicalState*> visit_order_;
  SubsumptionIndex visited_subsumers_;
  std::unordered_map<std::vector<uint64_t>, ParentEdge, EncodingHash>
      parents_;

  // Expansion scratch, reused across states.
  std::vector<int> components_;
  DropPlan drop_;
  std::vector<char> rest_dirty_;
  std::vector<char> dirty_;
  std::vector<Atom> child_;
  std::vector<Resolvent> resolvents_;
};

}  // namespace

std::optional<std::vector<Atom>> FreezeQuery(const ConjunctiveQuery& query,
                                             const std::vector<Term>& answer) {
  if (answer.size() != query.output.size()) return std::nullopt;
  Substitution freeze;
  for (size_t i = 0; i < answer.size(); ++i) {
    if (!answer[i].is_constant()) return std::nullopt;
    Term out = query.output[i];
    if (out.is_constant()) {
      if (out != answer[i]) return std::nullopt;
      continue;
    }
    auto [it, inserted] = freeze.try_emplace(out, answer[i]);
    if (!inserted && it->second != answer[i]) return std::nullopt;
  }
  return ApplySubstitution(freeze, query.atoms);
}

ProofSearchResult LinearProofSearch(const Program& program,
                                    const Instance& database,
                                    const ConjunctiveQuery& query,
                                    const std::vector<Term>& answer,
                                    const ProofSearchOptions& options,
                                    ProofExplanation* explanation) {
  ProofSearchResult result;

  size_t width = options.node_width;
  if (width == 0) {
    PredicateGraph graph(program);
    width = NodeWidthBoundPwl(query.atoms.size(), program, graph);
  }
  result.node_width_used = width;
  size_t max_chunk =
      options.max_chunk == 0 ? width : std::min(options.max_chunk, width);

  std::optional<std::vector<Atom>> frozen = FreezeQuery(query, answer);
  if (!frozen.has_value()) return result;  // inconsistent candidate

  // The relevance index comes from the shared cache when one is supplied
  // (it must have been built for this same program + database); otherwise
  // a local one is built for this call.
  std::optional<ProgramIndex> local_index;
  if (options.cache == nullptr) local_index.emplace(program, database);
  const ProgramIndex& index =
      options.cache != nullptr ? options.cache->index() : *local_index;

  LinearSearcher searcher(program, database, index, options, width, max_chunk,
                          &result, explanation);
  searcher.Run(std::move(*frozen));
  if (options.metrics != nullptr) {
    options.metrics->RecordSearch(result.states_expanded, result.cache_hits,
                                  result.subsumed_discarded,
                                  result.budget_exhausted);
  }
  return result;
}

}  // namespace vadalog
