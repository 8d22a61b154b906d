// Certain-answer computation facade: chase-based materialization
// (Proposition 2.1) and proof-search-based verification/enumeration
// (Theorems 4.8/4.9), behind one interface.

#ifndef VADALOG_ENGINE_CERTAIN_H_
#define VADALOG_ENGINE_CERTAIN_H_

#include <span>
#include <string>
#include <vector>

#include "ast/program.h"
#include "ast/rule.h"
#include "chase/chase.h"
#include "engine/alternating_search.h"
#include "engine/linear_search.h"
#include "storage/instance.h"

namespace vadalog {

/// Verifies one candidate tuple with the linear bounded proof search
/// (complete for WARD ∩ PWL programs with single-head TGDs).
bool IsCertainViaLinearSearch(const Program& program, const Instance& database,
                              const ConjunctiveQuery& query,
                              const std::vector<Term>& answer,
                              const ProofSearchOptions& options = {});

/// Verifies one candidate tuple with the alternating bounded proof search
/// (complete for WARD programs with single-head TGDs).
bool IsCertainViaAlternatingSearch(const Program& program,
                                   const Instance& database,
                                   const ConjunctiveQuery& query,
                                   const std::vector<Term>& answer,
                                   const ProofSearchOptions& options = {});

/// The result of a search-based certain-answer enumeration. `complete`
/// distinguishes a genuine refutation sweep from one that gave up: a
/// candidate rejected by a budget-exhausted (max_states / max_millis)
/// search may still be a certain answer, so the answer set is only a
/// definitive cert(q, D, Σ) when `complete` is true. Accepted candidates
/// are always sound — an interrupted search never fabricates a proof.
struct CertainAnswerSet {
  std::vector<std::vector<Term>> answers;  // sorted, deduplicated
  bool complete = true;
  uint64_t budget_exhausted_candidates = 0;  // rejections that gave up
  /// Non-empty when the request could not be served at all (e.g. a
  /// program whose fragment no engine supports); `answers` is then empty
  /// and meaningless rather than a (possibly incomplete) answer set.
  /// Scripted callers must distinguish this from "no certain answers".
  std::string error;
};

/// cert(q, D, Σ) for every query of `queries` from ONE materialization of
/// chase(D, Σ) (with the Vadalog termination control): each query is
/// evaluated over the same instance, keeping tuples of constants only
/// (Proposition 2.1), and the instance is dropped on return. One result
/// per query, in order. A chase cut short by a budget (max_steps,
/// max_atoms, or a max_depth that skipped a step) is not chase(D, Σ):
/// every result then has `complete` false — its answers are sound but
/// possibly missing some. A program the chase cannot run (negation) gets
/// `error` set on every result.
std::vector<CertainAnswerSet> CertainAnswersViaChaseChecked(
    const Program& program, const Instance& database,
    std::span<const ConjunctiveQuery> queries,
    const ChaseOptions& options = {});

/// Answers-only single-query wrapper: a pool of one over
/// CertainAnswersViaChaseChecked. Sorted and deduplicated. Safe when the
/// options carry no budget; with budgets, prefer the Checked variant.
std::vector<std::vector<Term>> CertainAnswersViaChase(
    const Program& program, const Instance& database,
    const ConjunctiveQuery& query, const ChaseOptions& options = {});

/// Enumerates cert(q, D, Σ) purely via proof search: every distinct tuple
/// over the constants of dom(D) (respecting repeated output variables) is
/// verified once, all candidates sharing one memoization cache (the one in
/// `options`, or an internal one when unset) so refutation work transfers
/// across the sweep. Exponential in the output arity — intended for tests
/// and small inputs. Callers running with budgets must consult
/// `complete` before treating the answers as definitive.
CertainAnswerSet CertainAnswersViaSearchChecked(
    const Program& program, const Instance& database,
    const ConjunctiveQuery& query, bool use_alternating = false,
    const ProofSearchOptions& options = {});

/// Answers-only convenience wrapper over CertainAnswersViaSearchChecked.
/// Safe when the options carry no budget (the sweep cannot give up);
/// with budgets, prefer the Checked variant — this one cannot report that
/// the search gave up on some refutation.
std::vector<std::vector<Term>> CertainAnswersViaSearch(
    const Program& program, const Instance& database,
    const ConjunctiveQuery& query, bool use_alternating = false,
    const ProofSearchOptions& options = {});

}  // namespace vadalog

#endif  // VADALOG_ENGINE_CERTAIN_H_
