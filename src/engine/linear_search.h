// The space-bounded linear proof search of Section 4.3 — the paper's
// headline algorithm for CQAns(WARD ∩ PWL).
//
// The nondeterministic algorithm guesses, level by level, the single
// non-leaf branch of a linear proof tree: each level holds one CQ of size
// at most f_WARD∩PWL(q, Σ), and moves are resolution (r), decomposition
// (d), and specialization (s). This deterministic realization is a BFS
// over canonically-renamed CQ states (graph reachability — NLogSpace
// determinizes to polynomial time):
//
//   * output variables are frozen to the candidate answer constants up
//     front, making the IDO condition automatic;
//   * specialization+decomposition are fused into *match-and-drop*: the
//     selected atom is matched against the database (each homomorphism is
//     one specialization guess), its bindings propagate, and the atom is
//     dropped as a leaf;
//   * connected components that map into the database are removed eagerly
//     (they are leaf decompositions);
//   * resolution follows Definition 4.3, restricted to chunks containing
//     the selected atom (SLD-style selection, complete for piece
//     unification);
//   * states wider than the node-width bound are pruned — Theorem 4.8
//     guarantees completeness under the bound for warded ∩ piece-wise
//     linear programs.
//
// The search accepts when a state becomes empty.

#ifndef VADALOG_ENGINE_LINEAR_SEARCH_H_
#define VADALOG_ENGINE_LINEAR_SEARCH_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "ast/program.h"
#include "ast/rule.h"
#include "engine/proof_tree.h"
#include "storage/instance.h"

namespace vadalog {

namespace obs {
struct EngineCounters;
}  // namespace obs

class ProofSearchCache;

struct ProofSearchOptions {
  /// Maximum atoms per CQ state. 0 = derive f_WARD∩PWL(q, Σ) from the
  /// program (requires it to be warded and piece-wise linear for
  /// completeness; the bound is still sound otherwise).
  size_t node_width = 0;

  /// Maximum chunk size |S1| per resolution step. 0 = up to node_width.
  size_t max_chunk = 0;

  /// Visited-state budget; 0 = unlimited. When exhausted the result is
  /// reported as not-accepted with `budget_exhausted` set.
  uint64_t max_states = 0;

  /// Wall-clock budget in milliseconds; 0 = unlimited. Like `max_states`,
  /// exhaustion reports not-accepted with `budget_exhausted` set.
  uint64_t max_millis = 0;

  /// Ignored: both searches are sequential (kept for source compatibility).
  uint32_t num_threads = 1;

  /// Subsumption-based state pruning: discard a frontier state some
  /// already-visited (linear) or path-independently refuted (alternating)
  /// state maps homomorphically into, and retire queued states a newer,
  /// more general state subsumes. On by default; exposed so the
  /// differential sweeps can compare pruned vs unpruned searches.
  bool subsumption = true;

  /// Optional memoization shared across searches. Must have been built
  /// for the exact same (program, database) pair, or results are unsound.
  /// The cache also supplies the precomputed relevance index; without it a
  /// local index is built per call. It is the only path by which
  /// refutations transfer across searches: a completed refutation records
  /// its states there, and later searches discard any state a recorded
  /// one maps homomorphically into.
  ProofSearchCache* cache = nullptr;

  /// Optional registry counter handles (obs/metrics.h) the search
  /// flushes its end-of-search totals into — once, at completion; the
  /// hot loops never touch them. Null = no metrics. The daemon wires a
  /// per-(session, engine) set here so METRICS exposes the private
  /// result counters cumulatively.
  const obs::EngineCounters* metrics = nullptr;
};

struct ProofSearchResult {
  bool accepted = false;
  bool budget_exhausted = false;
  uint64_t states_expanded = 0;
  uint64_t states_visited = 0;    // distinct canonical states seen
  uint64_t resolution_edges = 0;
  uint64_t drop_edges = 0;
  uint64_t cache_hits = 0;        // successors skipped via the shared cache
  uint64_t subsumed_discarded = 0;  // successors pruned by subsumption
  uint64_t states_retired = 0;      // queued states retired unexpanded
  /// Hom checks paid by this search's own visited-state subsumption index
  /// (checks inside a shared cache's index are accounted there, across
  /// all searches using it — not here).
  uint64_t subsumption_checks = 0;
  /// Size of the largest single CQ state — the analog of the
  /// nondeterministic machine's work tape (O(width · log |dom(D)|) bits).
  size_t peak_state_bytes = 0;
  /// Total bytes of the visited set — the cost of determinization.
  size_t visited_bytes = 0;
  size_t node_width_used = 0;
};

/// Decides whether `answer` (a tuple of constants, one per output variable
/// of `query`) is a certain answer to `query` w.r.t. `database` and the
/// TGDs of `program`. The program must have single-head TGDs (normalize
/// first); completeness of the width bound additionally requires
/// WARD ∩ PWL membership.
ProofSearchResult LinearProofSearch(const Program& program,
                                    const Instance& database,
                                    const ConjunctiveQuery& query,
                                    const std::vector<Term>& answer,
                                    const ProofSearchOptions& options = {},
                                    ProofExplanation* explanation = nullptr);

/// Instantiates the query output with `answer`, returning the frozen
/// initial state, or nullopt when `answer` is inconsistent (repeated
/// output variable bound to different constants) or malformed.
std::optional<std::vector<Atom>> FreezeQuery(const ConjunctiveQuery& query,
                                             const std::vector<Term>& answer);

}  // namespace vadalog

#endif  // VADALOG_ENGINE_LINEAR_SEARCH_H_
