// The alternating bounded proof search for general warded sets of TGDs
// (Section 4.3, "The Case of CQAns(WARD)").
//
// For arbitrary warded programs, proof trees are not linear: a node may
// have several non-leaf children. The paper's algorithm builds the
// branches in parallel universal computations using alternation; this
// deterministic realization is a memoized AND-OR search:
//
//   * OR nodes: the operations applicable to a state (match-and-drop of
//     the selected atom, chunk resolutions through it);
//   * AND nodes: decomposition into variable-disjoint components
//     (Definition 4.4 with frozen outputs), each proved independently;
//   * node-width is bounded by f_WARD(q, Σ) (Theorem 4.9);
//   * proven states are memoized globally; refuted states are memoized
//     only when their refutation did not depend on cycle pruning against
//     an ancestor still on the DFS path (standard tabling taint rule —
//     a minimal proof never repeats a state along a branch, so pruning
//     revisits is complete, but the resulting failure is path-dependent).
//
// The machine is an explicit-stack iterative DFS: frames live on the
// heap, so proof depth is bounded only by the max_states/max_millis
// budgets — never by the OS stack. It is one sequential machine: every
// subgoal shares the search's memo tables, and proven/refuted states
// reach the shared cache and refutation bank in one deferred flush after
// the search, in finalize order. On untimed searches verdicts and
// counters are deterministic; a max_millis deadline is wall-clock, and
// its give-up is reported as budget_exhausted, never as a refutation.

#ifndef VADALOG_ENGINE_ALTERNATING_SEARCH_H_
#define VADALOG_ENGINE_ALTERNATING_SEARCH_H_

#include <cstdint>

#include "ast/program.h"
#include "ast/rule.h"
#include "engine/linear_search.h"
#include "storage/instance.h"

namespace vadalog {

struct AlternatingSearchResult {
  bool accepted = false;
  bool budget_exhausted = false;
  uint64_t states_expanded = 0;
  uint64_t proven_cached = 0;
  uint64_t refuted_cached = 0;
  uint64_t cache_hits = 0;  // sub-searches skipped via the shared cache
  uint64_t subsumed_discarded = 0;  // refuted via subsumption, unexpanded
  size_t peak_state_bytes = 0;
  size_t node_width_used = 0;
};

/// Decides certain-answer membership for arbitrary warded programs
/// (single-head normalized). Uses the f_WARD node-width bound by default.
AlternatingSearchResult AlternatingProofSearch(
    const Program& program, const Instance& database,
    const ConjunctiveQuery& query, const std::vector<Term>& answer,
    const ProofSearchOptions& options = {});

}  // namespace vadalog

#endif  // VADALOG_ENGINE_ALTERNATING_SEARCH_H_
