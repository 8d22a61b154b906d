#include "engine/certain.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "engine/search_cache.h"
#include "storage/homomorphism.h"

namespace vadalog {

std::vector<CertainAnswerSet> CertainAnswersViaChaseChecked(
    const Program& program, const Instance& database,
    std::span<const ConjunctiveQuery> queries, const ChaseOptions& options) {
  std::vector<CertainAnswerSet> results(queries.size());
  ChaseResult chase = RunChase(program, database, options);
  if (chase.stop_reason == ChaseStopReason::kUnsupported) {
    for (CertainAnswerSet& result : results) {
      result.error = "the chase does not support negation";
    }
    return results;
  }
  // A budget-stopped chase, or one whose depth cap skipped a step, is a
  // prefix of chase(D, Σ): its answers hold but may not be all of them.
  bool complete = chase.Saturated() && chase.steps_skipped_depth == 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    results[i].answers =
        EvaluateQuerySorted(queries[i], chase.instance, /*certain_only=*/true);
    results[i].complete = complete;
  }
  return results;
}

std::vector<std::vector<Term>> CertainAnswersViaChase(
    const Program& program, const Instance& database,
    const ConjunctiveQuery& query, const ChaseOptions& options) {
  std::vector<CertainAnswerSet> pool =
      CertainAnswersViaChaseChecked(program, database, {&query, 1}, options);
  return std::move(pool.front().answers);
}

bool IsCertainViaLinearSearch(const Program& program, const Instance& database,
                              const ConjunctiveQuery& query,
                              const std::vector<Term>& answer,
                              const ProofSearchOptions& options) {
  return LinearProofSearch(program, database, query, answer, options).accepted;
}

bool IsCertainViaAlternatingSearch(const Program& program,
                                   const Instance& database,
                                   const ConjunctiveQuery& query,
                                   const std::vector<Term>& answer,
                                   const ProofSearchOptions& options) {
  return AlternatingProofSearch(program, database, query, answer, options)
      .accepted;
}

CertainAnswerSet CertainAnswersViaSearchChecked(
    const Program& program, const Instance& database,
    const ConjunctiveQuery& query, bool use_alternating,
    const ProofSearchOptions& options) {
  CertainAnswerSet result;

  // Collect distinct output variables (a repeated variable must take the
  // same constant in every candidate); set-backed so repeated outputs cost
  // O(1) instead of a scan per output term.
  std::vector<Term> distinct_outputs;
  std::unordered_set<Term> seen_outputs;
  for (Term t : query.output) {
    if (t.is_variable() && seen_outputs.insert(t).second) {
      distinct_outputs.push_back(t);
    }
  }

  std::vector<Term> domain;
  for (Term t : database.ActiveDomain()) {
    if (t.is_constant()) domain.push_back(t);
  }
  std::sort(domain.begin(), domain.end());

  // Enumerate the induced candidate tuples first and deduplicate them, so
  // no tuple is ever verified twice (verification is the expensive part).
  std::vector<std::vector<Term>> candidates;
  std::vector<Term> assignment(distinct_outputs.size());
  auto recurse = [&](auto&& self, size_t position) -> void {
    if (position == distinct_outputs.size()) {
      Substitution binding;
      for (size_t i = 0; i < distinct_outputs.size(); ++i) {
        binding[distinct_outputs[i]] = assignment[i];
      }
      std::vector<Term> candidate;
      candidate.reserve(query.output.size());
      for (Term t : query.output) {
        candidate.push_back(ApplySubstitution(binding, t));
      }
      candidates.push_back(std::move(candidate));
      return;
    }
    for (Term c : domain) {
      assignment[position] = c;
      self(self, position + 1);
    }
  };
  if (query.output.empty()) {
    candidates.push_back({});
  } else {
    recurse(recurse, 0);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  // All candidates run against one shared memoization cache: the frozen
  // constants differ per candidate but the derived canonical states
  // largely recur, so refutation work is paid once across the sweep.
  // Completed refutations record their states in the cache, and every
  // later candidate's search discards states a recorded one maps into
  // (exact-match tables plus the cache's refuted-state subsumption index).
  std::optional<ProofSearchCache> local_cache;
  ProofSearchOptions effective = options;
  if (effective.cache == nullptr) {
    local_cache.emplace(program, database);
    effective.cache = &*local_cache;
  }
  for (const std::vector<Term>& candidate : candidates) {
    bool certain = false;
    bool gave_up = false;
    if (use_alternating) {
      AlternatingSearchResult r = AlternatingProofSearch(
          program, database, query, candidate, effective);
      certain = r.accepted;
      gave_up = r.budget_exhausted;
    } else {
      ProofSearchResult r =
          LinearProofSearch(program, database, query, candidate, effective);
      certain = r.accepted;
      gave_up = r.budget_exhausted;
    }
    if (certain) {
      // A proof found within the budget is a proof — always sound.
      result.answers.push_back(candidate);
    } else if (gave_up) {
      // The search ran out of budget before refuting this candidate: the
      // rejection is NOT a refutation, and the answer set is incomplete.
      result.complete = false;
      ++result.budget_exhausted_candidates;
    }
  }
  return result;
}

std::vector<std::vector<Term>> CertainAnswersViaSearch(
    const Program& program, const Instance& database,
    const ConjunctiveQuery& query, bool use_alternating,
    const ProofSearchOptions& options) {
  return CertainAnswersViaSearchChecked(program, database, query,
                                        use_alternating, options)
      .answers;
}

}  // namespace vadalog
