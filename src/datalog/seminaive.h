// Semi-naive bottom-up evaluation for Datalog programs (the class FULL1 of
// Section 6), stratified along the condensation of the predicate graph.
//
// This substrate serves three roles:
//   * the baseline evaluator for the expressiveness experiments (Theorem
//     6.3: PWL-warded programs rewritten into piece-wise linear Datalog are
//     evaluated here and compared against the TGD engines);
//   * the vehicle for the Section 7 optimization ablations: (2) join
//     ordering biased to anchor the mutually-recursive body atom (this is
//     exactly what delta-driven semi-naive does; the ablation compares it
//     against naive re-evaluation), and (3) materialization at the
//     boundaries of the PWL strata, which lets the evaluator discard
//     relations that no later stratum reads;
//   * the target of the tiling reduction when run on solvable instances.
//
// The delta rounds drive ForEachDeltaTrigger (storage/homomorphism.h), the
// one anchored delta-join routine, which RunChase also uses; only the
// per-trigger step differs (negation check and head projection here, the
// existential step there). The seed round and naive mode match whole rule
// bodies with ForEachHomomorphism.

#ifndef VADALOG_DATALOG_SEMINAIVE_H_
#define VADALOG_DATALOG_SEMINAIVE_H_

#include <cstdint>
#include <unordered_set>

#include "ast/program.h"
#include "storage/instance.h"

namespace vadalog {

struct DatalogOptions {
  /// Delta-driven semi-naive evaluation (the recursive body atom is the
  /// anchor operand of each join). When false, every round naively
  /// re-evaluates every rule against the full instance — the unbiased join
  /// ordering of the Section 7 (2) ablation.
  bool seminaive = true;

  /// Evaluate stratum by stratum along the condensation of pg(Σ) and, at
  /// each stratum boundary, drop relations that no later stratum (and no
  /// predicate in `preserve`) reads. Mirrors the materialization nodes of
  /// Section 7 (3): intermediate results are pinned at boundaries, and the
  /// upstream operator state is released.
  bool materialize_strata = false;

  /// Predicates whose relations must survive stratum garbage collection
  /// (e.g. the query predicates). Ignored unless materialize_strata.
  std::unordered_set<PredicateId> preserve;

  /// 0 = unlimited.
  uint64_t max_rounds = 0;
};

struct DatalogResult {
  Instance instance;
  uint64_t rule_applications = 0;  // successful (new-tuple) derivations
  /// Rule-body matches the delta rounds enumerated (ForEachDeltaTrigger's
  /// count; the seed round and naive mode are not counted). Unlike
  /// `rule_applications` this counts redundant re-derivations, so it is
  /// what join ordering and linearization save.
  uint64_t triggers = 0;
  uint64_t rounds = 0;
  size_t peak_instance_bytes = 0;
  bool reached_fixpoint = true;
};

/// Evaluates a Datalog program bottom-up. All TGDs of `program` must be
/// full with single-atom heads (callers normalize first; asserts in debug).
DatalogResult EvaluateDatalog(const Program& program, const Instance& database,
                              const DatalogOptions& options = {});

}  // namespace vadalog

#endif  // VADALOG_DATALOG_SEMINAIVE_H_
