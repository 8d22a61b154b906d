#include "engine/alternating_search.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/fragments.h"
#include "engine/resolution.h"
#include "engine/search_cache.h"
#include "engine/state.h"
#include "engine/subsumption.h"
#include "obs/metrics.h"

namespace vadalog {
namespace {

constexpr size_t kNoTouch = std::numeric_limits<size_t>::max();

/// Read-only per-search context.
struct SearchContext {
  const Program& program;
  const Instance& database;
  const ProgramIndex& index;
  ProofSearchCache* cache;
  bool subsumption;
  size_t width;
  size_t max_chunk;
  uint64_t max_states;
  bool timed;
  std::chrono::steady_clock::time_point deadline;
};

struct Outcome {
  bool proven;
  size_t min_touch;  // shallowest on-path ancestor hit by cycle pruning
};

/// One entry of the deferred record log: a memoized state (pointing into
/// the searcher's node-based memo sets) and its verdict.
struct Record {
  const CanonicalState* state;
  bool proven;
};

using PathMap =
    std::unordered_map<CanonicalState, size_t, CanonicalStateHash>;

/// The iterative AND/OR tree machine. One instance decides one goal with
/// its own memo tables, counters and budget; proof depth lives in
/// heap-allocated frames, so it is bounded only by the caller's budgets —
/// never by the OS stack (the former kMaxProveDepth recursion guard,
/// which silently turned deep-but-provable goals into false
/// budget_exhausted verdicts, is gone).
class Searcher {
 public:
  Searcher(const SearchContext& ctx, AlternatingSearchResult* result)
      : ctx_(ctx), result_(result) {}

  bool Prove(std::vector<Atom> atoms) {
    // The only dead test the search runs itself: every OR child was
    // tested atom by atom before its cursor built it, and an AND
    // component is part of a state that passed.
    if (ctx_.index.StateIsDead(atoms, ctx_.database)) return false;
    child_.atoms = std::move(atoms);
    child_.dirty.assign(child_.atoms.size(), 1);
    Outcome out;
    if (Gate(&out)) return out.proven;
    return RunMachine().proven;
  }

  /// Every proven / path-independently refuted state, in finalize order
  /// (at most once each). Valid after Prove, while the searcher lives.
  const std::vector<Record>& records() const { return log_; }

 private:
  /// One AND/OR tree node. The frame index in `stack_` IS the node's
  /// proof-tree depth: the on-path cycle table and min_touch
  /// path-independence tracking key off this explicit structure, exactly
  /// as the recursive engine keyed off call depth. An AND node walks its
  /// variable-disjoint components; an OR node walks the successors of its
  /// state through a cursor, which holds no pointer into the frame, so
  /// frames may move as `stack_` grows.
  struct Frame {
    CanonicalState state;
    size_t min_touch = kNoTouch;
    bool is_and = false;
    std::vector<std::vector<Atom>> components;  // AND: proved in order
    uint32_t next_component = 0;
    SuccessorCursor successors;  // OR
  };

  /// Decides or expands the child goal in `child_` through the stages
  /// simplify → width → encode → probe → materialize (the child's
  /// buffers are consumed as scratch). Returns true when the goal is
  /// decided on the spot (`*out` set); otherwise pushes the expansion
  /// frame and returns false.
  bool Gate(Outcome* out) {
    std::vector<Atom>& atoms = child_.atoms;
    EagerSimplifyIncremental(&atoms, ctx_.database, &child_.dirty);
    if (atoms.empty()) {
      *out = {true, kNoTouch};
      return true;
    }
    if (atoms.size() > ctx_.width) {  // Theorem 4.9
      *out = {false, kNoTouch};
      return true;
    }

    CanonicalState state = CanonicalEncoding(atoms);
    result_->peak_state_bytes =
        std::max(result_->peak_state_bytes, state.ApproximateBytes());

    if (proven_.count(state) > 0) {
      *out = {true, kNoTouch};
      return true;
    }
    if (refuted_.count(state) > 0) {
      *out = {false, kNoTouch};
      return true;
    }
    if (ctx_.cache != nullptr) {
      if (ctx_.cache->AltKnownProven(state, ctx_.width, ctx_.max_chunk)) {
        ++result_->cache_hits;
        *out = {true, kNoTouch};
        return true;
      }
      if (ctx_.cache->AltKnownRefuted(state, ctx_.width, ctx_.max_chunk)) {
        ++result_->cache_hits;
        *out = {false, kNoTouch};
        return true;
      }
    }
    DecodeAtoms(&state);  // the remaining probes and the frame need atoms
    if (ctx_.subsumption) {
      // A path-independently refuted state that maps into this one
      // refutes it outright (every proof of this state restricts to one
      // of the subsumer), so the failure is itself path-independent.
      // Two indexes, hottest first: this search's own refutations, then
      // the shared cache's refuted-state index.
      if (refuted_subsumers_.FindSubsumer(state, ctx_.width,
                                          ctx_.max_chunk) >= 0) {
        ++result_->subsumed_discarded;
        *out = {false, kNoTouch};
        return true;
      }
      if (ctx_.cache != nullptr &&
          ctx_.cache->AltRefutedBySubsumption(state, ctx_.width,
                                              ctx_.max_chunk)) {
        ++result_->cache_hits;
        ++result_->subsumed_discarded;
        *out = {false, kNoTouch};
        return true;
      }
    }
    auto path_it = on_path_.find(state);
    if (path_it != on_path_.end()) {
      // Cycle: a minimal proof never repeats a state along a branch.
      *out = {false, path_it->second};
      return true;
    }
    if (result_->budget_exhausted) {  // hard stop
      *out = {false, 0};
      return true;
    }
    if (ctx_.max_states != 0 && result_->states_expanded >= ctx_.max_states) {
      result_->budget_exhausted = true;
      *out = {false, 0};  // uncacheable: the branch was not explored
      return true;
    }
    if (ctx_.timed && (result_->states_expanded & 63) == 0 &&
        std::chrono::steady_clock::now() >= ctx_.deadline) {
      result_->budget_exhausted = true;
      *out = {false, 0};  // uncacheable
      return true;
    }
    ++result_->states_expanded;
    size_t depth = stack_.size();
    PushFrame(std::move(state));
    on_path_.emplace(stack_.back().state, depth);
    return false;
  }

  void PushFrame(CanonicalState state) {
    Frame f;
    // AND node: decomposition into variable-disjoint components
    // (Definition 4.4; frozen outputs never connect). Each component is
    // a whole component of an already-simplified state: clean.
    std::vector<std::vector<Atom>> components = SplitComponents(state.atoms);
    if (components.size() > 1) {
      f.is_and = true;
      f.components = std::move(components);
    } else {
      // OR node: the operations through the selected atom.
      f.successors.Start(state.atoms, ctx_.program, ctx_.index,
                         ctx_.database, ctx_.max_chunk);
    }
    f.state = std::move(state);
    stack_.push_back(std::move(f));
  }

  /// Produces the next not-yet-gated child of the top frame: its next
  /// component (AND), else its cursor's next successor (OR).
  bool NextChild(Frame* f, Successor* child) {
    if (!f->is_and) return f->successors.Next(f->state.atoms, child);
    if (f->next_component >= f->components.size()) return false;
    child->atoms = std::move(f->components[f->next_component++]);
    child->dirty.assign(child->atoms.size(), 0);
    return true;
  }

  /// Pops the top frame with its verdict: memo insertion (refuted only
  /// when independent of every proper ancestor and no budget cut hit),
  /// record log, min_touch propagation.
  Outcome Finalize(bool proven) {
    Frame f = std::move(stack_.back());
    stack_.pop_back();
    size_t depth = stack_.size();
    on_path_.erase(f.state);
    if (proven) {
      auto [it, inserted] = proven_.insert(std::move(f.state));
      if (inserted) log_.push_back({&*it, true});
      ++result_->proven_cached;
    } else if (f.min_touch >= depth && !result_->budget_exhausted) {
      // Refutation independent of any proper ancestor: cacheable.
      auto [it, inserted] = refuted_.insert(std::move(f.state));
      if (inserted) {
        log_.push_back({&*it, false});
        if (ctx_.subsumption) {
          refuted_subsumers_.Add(*it, ctx_.width, ctx_.max_chunk);
        }
      }
      ++result_->refuted_cached;
    }
    // Pruning against this very node is resolved here; only shallower
    // touches remain relevant to the caller.
    size_t propagated = f.min_touch >= depth ? kNoTouch : f.min_touch;
    return {proven, propagated};
  }

  /// The sequential explicit-stack loop: depth-first over heap frames,
  /// delivering child outcomes upward with AND/OR short-circuiting.
  Outcome RunMachine() {
    Outcome out{false, kNoTouch};
    bool have_outcome = false;
    while (!stack_.empty()) {
      Frame& f = stack_.back();
      if (have_outcome) {
        have_outcome = false;
        f.min_touch = std::min(f.min_touch, out.min_touch);
        bool decided = f.is_and ? !out.proven : out.proven;
        if (decided) {
          out = Finalize(out.proven);
          have_outcome = true;
          continue;
        }
      }
      if (NextChild(&f, &child_)) {
        // Gate may push a frame (invalidating `f`; not touched after) or
        // decide the child outright.
        have_outcome = Gate(&out);
      } else {
        // Children exhausted: every component proven (AND), or every
        // alternative failed (OR).
        out = Finalize(f.is_and);
        have_outcome = true;
      }
    }
    return out;
  }

  const SearchContext& ctx_;
  AlternatingSearchResult* result_;

  std::vector<Frame> stack_;
  PathMap on_path_;
  // The memo tables (node-based, so log_ entries stay valid).
  std::unordered_set<CanonicalState, CanonicalStateHash> proven_;
  std::unordered_set<CanonicalState, CanonicalStateHash> refuted_;
  std::vector<Record> log_;
  SubsumptionIndex refuted_subsumers_;  // this search's own refutations
  Successor child_;  // the child being gated; its buffers are reused
};

}  // namespace

AlternatingSearchResult AlternatingProofSearch(
    const Program& program, const Instance& database,
    const ConjunctiveQuery& query, const std::vector<Term>& answer,
    const ProofSearchOptions& options) {
  AlternatingSearchResult result;
  size_t width = options.node_width != 0
                     ? options.node_width
                     : NodeWidthBoundWarded(query.atoms.size(), program);
  result.node_width_used = width;
  size_t max_chunk =
      options.max_chunk == 0 ? width : std::min(options.max_chunk, width);

  std::optional<std::vector<Atom>> frozen = FreezeQuery(query, answer);
  if (!frozen.has_value()) return result;

  ProofSearchCache* cache = options.cache;
  std::optional<ProgramIndex> local_index;
  if (cache == nullptr) local_index.emplace(program, database);
  const ProgramIndex& index =
      cache != nullptr ? cache->index() : *local_index;

  SearchContext ctx{program,
                    database,
                    index,
                    cache,
                    options.subsumption,
                    width,
                    max_chunk,
                    options.max_states,
                    options.max_millis != 0,
                    {}};
  if (ctx.timed) {
    // The deadline (and the clock read behind it) exists only for timed
    // searches; untimed ones never touch the clock.
    ctx.deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(options.max_millis);
  }

  Searcher searcher(ctx, &result);
  result.accepted = searcher.Prove(std::move(*frozen));

  // Deferred flush, in finalize order: the shared cache is only probed
  // while the search runs, and every proven / path-independently refuted
  // state it established lands here. Budget-cut branches recorded nothing
  // (Finalize's guard), so exhausted searches deposit no refutation
  // certificate for anything they gave up on.
  if (cache != nullptr) {
    for (const Record& record : searcher.records()) {
      if (record.proven) {
        cache->AltRecordProven(*record.state, width, max_chunk);
      } else {
        cache->AltRecordRefuted(*record.state, width, max_chunk);
      }
    }
  }
  if (options.metrics != nullptr) {
    options.metrics->RecordSearch(result.states_expanded, result.cache_hits,
                                  result.subsumed_discarded,
                                  result.budget_exhausted);
  }
  return result;
}

}  // namespace vadalog
