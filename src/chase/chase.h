// The chase procedure (Section 2) with the termination control used by the
// Vadalog system (Section 7 (1)).
//
// A chase step I⟨σ,h⟩J applies a TGD σ = φ(x̄,ȳ) → ∃z̄ ψ(x̄,z̄) whose body
// matches I via h, extending h with fresh labeled nulls for z̄. The chase
// of a database under a warded set of TGDs may be infinite; the Vadalog
// system terminates it by skipping steps whose generated atom is
// *isomorphic* (equal up to a renaming of labeled nulls) to an
// already-derived atom — the "guide structure" / aggressive termination
// control of [6]. For warded sets this preserves certain answers: isomorphic
// atoms root isomorphic sub-chases, and harmful joins are confined to wards.
//
// The engine also supports the textbook restricted chase (skip a step whose
// head is already satisfied) and an oblivious mode, plus step/atom/depth
// budgets so that non-terminating programs (e.g. the piece-wise linear but
// unwarded reduction of Section 5) can be run to a bounded horizon.

#ifndef VADALOG_CHASE_CHASE_H_
#define VADALOG_CHASE_CHASE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "ast/program.h"
#include "storage/instance.h"

namespace vadalog {

struct ChaseOptions {
  /// Skip steps whose generated atom is isomorphic (modulo null renaming)
  /// to an existing atom. This is the Vadalog termination control; turning
  /// it off yields the plain (possibly non-terminating) chase. Ablated in
  /// experiment E9.
  bool isomorphism_termination = true;

  /// Restricted chase: skip a step whose head is already satisfied by an
  /// extension of the trigger homomorphism.
  bool restricted = true;

  /// Budgets; 0 means unlimited. `max_depth` bounds the derivation depth
  /// of generated atoms (database atoms have depth 0).
  uint64_t max_steps = 0;
  uint64_t max_atoms = 0;
  uint32_t max_depth = 0;

  /// Record provenance edges (chase graph of Section 4.2).
  bool record_provenance = false;
};

/// Why the chase loop stopped.
enum class ChaseStopReason : uint8_t {
  kFixpoint,      // no applicable step remained: chase(D, Σ) materialized
  kStepBudget,    // hit max_steps
  kAtomBudget,    // hit max_atoms
  kUnsupported,   // program uses features the chase lacks (negation)
};

/// Provenance of one derived atom (an edge bundle of the chase graph).
struct ChaseDerivation {
  Atom atom;
  size_t tgd_index;             // which σ ∈ Σ fired
  std::vector<Atom> parents;    // h(body(σ))
  uint32_t depth;               // 1 + max parent depth
};

struct ChaseResult {
  Instance instance;
  ChaseStopReason stop_reason = ChaseStopReason::kFixpoint;
  uint64_t steps_applied = 0;
  uint64_t steps_skipped_satisfied = 0;
  uint64_t steps_skipped_isomorphic = 0;
  uint64_t steps_skipped_depth = 0;
  uint64_t nulls_created = 0;
  uint64_t rounds = 0;
  size_t peak_instance_bytes = 0;
  std::vector<ChaseDerivation> derivations;  // iff record_provenance

  bool Saturated() const {
    return stop_reason == ChaseStopReason::kFixpoint;
  }
};

/// Runs the chase of `database` under the TGDs of `program` using
/// semi-naive (delta-driven) round evaluation: each round drives
/// ForEachDeltaTrigger (storage/homomorphism.h), the anchored delta-join
/// routine EvaluateDatalog's delta rounds also use, and applies every
/// trigger it delivers as one chase step.
ChaseResult RunChase(const Program& program, const Instance& database,
                     const ChaseOptions& options = {});

}  // namespace vadalog

#endif  // VADALOG_CHASE_CHASE_H_
