#include "chase/chase.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

#include "base/hash.h"
#include "storage/homomorphism.h"

namespace vadalog {
namespace {

/// Canonical key of an atom modulo null renaming: nulls are replaced by
/// their order of first occurrence. Two atoms are isomorphic iff they have
/// the same key.
std::vector<uint64_t> IsomorphismKey(const Atom& atom) {
  std::vector<uint64_t> key;
  key.reserve(atom.args.size() + 1);
  key.push_back(static_cast<uint64_t>(atom.predicate));
  std::unordered_map<Term, uint64_t> null_rank;
  for (Term t : atom.args) {
    if (t.is_null()) {
      auto [it, inserted] = null_rank.try_emplace(t, null_rank.size());
      key.push_back((uint64_t{1} << 62) | it->second);
    } else {
      assert(t.is_constant());
      key.push_back(t.index());
    }
  }
  return key;
}

struct KeyHash {
  size_t operator()(const std::vector<uint64_t>& key) const {
    return HashRange(key.begin(), key.end());
  }
};

}  // namespace

ChaseResult RunChase(const Program& program, const Instance& database,
                     const ChaseOptions& options) {
  ChaseResult result;
  Instance& instance = result.instance;

  if (program.HasNegation()) {
    // TGD semantics (certain answers over all models) is incompatible
    // with negation-as-failure; stratified negation is served by
    // EvaluateDatalog instead.
    result.stop_reason = ChaseStopReason::kUnsupported;
    return result;
  }

  // Derivation depths (one atom copy per atom, one body image per
  // trigger) are needed only to enforce `max_depth` or to record
  // provenance; the plain chase skips that work. Likewise the isomorphism
  // keys of the atoms are kept only for the isomorphism check.
  const bool track_depth =
      options.max_depth != 0 || options.record_provenance;
  std::unordered_set<std::vector<uint64_t>, KeyHash> summaries;
  std::unordered_map<Atom, uint32_t, AtomHash> depth_of;

  std::vector<Atom> delta;
  for (const Atom& fact : database.AllAtoms()) {
    if (instance.Insert(fact)) {
      delta.push_back(fact);
      if (track_depth) depth_of.emplace(fact, 0);
      if (options.isomorphism_termination) {
        summaries.insert(IsomorphismKey(fact));
      }
    }
  }

  uint64_t next_null = database.MaxNullIndex();
  bool stop = false;

  while (!delta.empty() && !stop) {
    ++result.rounds;
    std::vector<Atom> next_delta;

    // Semi-naive trigger enumeration: for every rule and every body
    // position, anchor that position on a delta atom and complete the
    // match against the full instance. Triggers touching k delta atoms are
    // found k times; re-application is harmless (insertions deduplicate
    // and the satisfaction/isomorphism checks skip redundant steps).
    for (size_t tgd_index = 0; tgd_index < program.tgds().size() && !stop;
         ++tgd_index) {
      const Tgd& tgd = program.tgds()[tgd_index];
      auto apply = [&](const Substitution& h) {
        // Depth of the step: 1 + max depth of the matched body atoms.
        uint32_t depth = 0;
        std::vector<Atom> parents;
        if (track_depth) {
          parents.reserve(tgd.body.size());
          for (const Atom& b : tgd.body) {
            Atom image = ApplySubstitution(h, b);
            auto it = depth_of.find(image);
            uint32_t d = it == depth_of.end() ? 0 : it->second;
            depth = std::max(depth, d);
            if (options.record_provenance) parents.push_back(image);
          }
          depth += 1;
          if (options.max_depth != 0 && depth > options.max_depth) {
            ++result.steps_skipped_depth;
            return true;
          }
        }

        // Restricted chase: skip if the head is already satisfied by
        // extending h on the frontier.
        std::vector<Atom> head_pattern = ApplySubstitution(h, tgd.head);
        if (options.restricted && HasHomomorphism(head_pattern, instance)) {
          ++result.steps_skipped_satisfied;
          return true;
        }

        // Instantiate existential variables with fresh nulls.
        Substitution fresh;
        std::vector<Atom> generated = head_pattern;
        for (Atom& g : generated) {
          for (Term& t : g.args) {
            if (!t.is_variable()) continue;
            auto [it, inserted] =
                fresh.try_emplace(t, Term::Null(next_null));
            if (inserted) ++next_null;
            t = it->second;
          }
        }

        // Vadalog termination control: skip the step when every
        // generated atom is isomorphic to an existing one.
        if (options.isomorphism_termination) {
          bool all_redundant = true;
          for (const Atom& g : generated) {
            if (summaries.count(IsomorphismKey(g)) == 0) {
              all_redundant = false;
              break;
            }
          }
          if (all_redundant) {
            ++result.steps_skipped_isomorphic;
            return true;
          }
        }

        bool inserted_any = false;
        for (const Atom& g : generated) {
          if (instance.Insert(g)) {
            inserted_any = true;
            next_delta.push_back(g);
            if (track_depth) depth_of.emplace(g, depth);
            if (options.isomorphism_termination) {
              summaries.insert(IsomorphismKey(g));
            }
            if (options.record_provenance) {
              result.derivations.push_back(
                  ChaseDerivation{g, tgd_index, parents, depth});
            }
          }
        }
        if (inserted_any) {
          result.nulls_created += fresh.size();
          ++result.steps_applied;
        }

        if (options.max_steps != 0 &&
            result.steps_applied >= options.max_steps) {
          result.stop_reason = ChaseStopReason::kStepBudget;
          stop = true;
        } else if (options.max_atoms != 0 &&
                   instance.size() >= options.max_atoms) {
          result.stop_reason = ChaseStopReason::kAtomBudget;
          stop = true;
        }
        return !stop;
      };
      ForEachDeltaTrigger(tgd.body, delta, instance, apply);
    }

    result.peak_instance_bytes =
        std::max(result.peak_instance_bytes, instance.ApproximateBytes());
    delta = std::move(next_delta);
  }

  return result;
}

}  // namespace vadalog
