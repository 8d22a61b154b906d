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

/// One queued frontier state plus its subsumption-index registration id
/// (the deterministic tie-break for same-size subsumption).
struct LevelEntry {
  const CanonicalState* state;
  int64_t ordinal;
};

/// The BFS itself: the determinized walk of the nondeterministic
/// machine, which only needs "have I seen this state?". Each level is
/// filtered by subsumption and then expanded in frontier order, one
/// SuccessorCursor per state. A successor that survives the stages is
/// deduplicated into the visited table at once (MakeCandidate), which
/// also registers it for subsumption, records its provenance and queues
/// it on the next level. Expansion order is frontier order, so the first
/// accepting successor found is the first accepting edge, and the search
/// stops there whether or not an explanation is recorded.
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
    // The only dead test the search runs itself: every successor was
    // tested atom by atom before the cursor built it.
    if (index_.StateIsDead(frozen, database_)) return Finish();
    // The initial state goes through the same stages as a successor, as
    // a kStart edge from the root with every atom dirty.
    static const std::vector<uint64_t> kRootEncoding;
    parent_ = &kRootEncoding;
    successor_.dirty.assign(frozen.size(), 1);
    successor_.atoms = std::move(frozen);
    successor_.kind = ProofStep::Kind::kStart;
    MakeCandidate();

    std::vector<LevelEntry> level;
    while (!next_level_.empty() && !result_->accepted &&
           !result_->budget_exhausted) {
      level.swap(next_level_);
      next_level_.clear();
      // Subsumption pruning happens here, per level, just before the
      // expansion: one pass against everything registered so far —
      // including this level's own siblings (discard + retirement
      // unified). States a budget cut strands unexpanded never pay for a
      // query.
      if (subsumption_) FilterLevel(&level);

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
      for (size_t i = 0; i < allowed && !result_->accepted; ++i) {
        if (timed_ && (i & 63) == 0 &&
            std::chrono::steady_clock::now() >= deadline_) {
          result_->budget_exhausted = true;
          break;
        }
        ++result_->states_expanded;
        ExpandState(*level[i].state);
      }
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

  /// Expands one canonical state: every successor its cursor yields, in
  /// order, until one accepts.
  void ExpandState(const CanonicalState& state) {
    parent_ = &state.encoding;
    successors_.Start(state.atoms, program_, index_, database_, max_chunk_);
    while (successors_.Next(state.atoms, &successor_)) {
      if (MakeCandidate()) break;
    }
    result_->drop_edges += successors_.drop_edges();
    result_->resolution_edges += successors_.resolution_edges();
  }

  /// Takes `successor_` through the stages simplify → width → encode →
  /// probe → materialize → visit: rejected as early as possible, encoded
  /// before it is probed, decoded into atoms only once it survives, and
  /// then visited on the spot. Returns true on acceptance (empty state).
  /// The successor's buffers are consumed as scratch.
  bool MakeCandidate() {
    std::vector<Atom>& atoms = successor_.atoms;
    EagerSimplifyIncremental(&atoms, database_, &successor_.dirty);
    if (atoms.size() > width_) return false;  // pruned by Theorem 4.8
    CanonicalState canonical = CanonicalEncoding(atoms);
    if (canonical.encoding.empty()) {
      result_->accepted = true;
      if (explanation_ != nullptr) {
        parents_.try_emplace(std::vector<uint64_t>{},
                             ParentEdge{*parent_, Step({})});
      }
      return true;
    }
    result_->peak_state_bytes =
        std::max(result_->peak_state_bytes, canonical.ApproximateBytes());
    if (visited_.count(canonical) > 0) return false;
    if (cache_ != nullptr &&
        cache_->LinearKnownRefuted(canonical, width_, max_chunk_)) {
      ++result_->cache_hits;  // a previous search refuted this whole subtree
      return false;
    }
    DecodeAtoms(&canonical);
    const CanonicalState* state = &*visited_.insert(std::move(canonical)).first;
    visit_order_.push_back(state);
    result_->visited_bytes += state->ApproximateBytes();
    if (explanation_ != nullptr) {
      parents_.try_emplace(state->encoding,
                           ParentEdge{*parent_, Step(state->atoms)});
    }
    // The subsumption *queries* happen later, in FilterLevel, so
    // unexpanded states never pay for them.
    int64_t ordinal =
        subsumption_ ? visited_subsumers_.Add(*state, width_, max_chunk_) : 0;
    next_level_.push_back(LevelEntry{state, ordinal});
    return false;
  }

  /// The proof step that made `successor_`, labelled with `state`.
  ProofStep Step(const std::vector<Atom>& state) const {
    ProofStep step;
    step.kind = successor_.kind;
    step.tgd_index = successor_.tgd_index;
    if (successor_.matched_tuple != nullptr) {
      step.matched_fact =
          Atom(successor_.matched_predicate, *successor_.matched_tuple);
    }
    step.state = state;
    return step;
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

  std::vector<LevelEntry> next_level_;  // fresh states, in visit order

  // Expansion scratch, reused across states.
  const std::vector<uint64_t>* parent_ = nullptr;  // the expanding state
  SuccessorCursor successors_;
  Successor successor_;
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
