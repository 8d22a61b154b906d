#include "datalog/seminaive.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "analysis/predicate_graph.h"
#include "storage/homomorphism.h"

namespace vadalog {
namespace {

/// Applies one rule against every trigger in the instance (naive mode).
uint64_t FireFull(const Tgd& rule, Instance* instance,
                  std::vector<Atom>* out_delta) {
  std::vector<Atom> derived;
  ForEachHomomorphism(rule.body, *instance, {}, [&](const Substitution& h) {
    for (const Atom& negated : rule.negative_body) {
      if (instance->Contains(ApplySubstitution(h, negated))) return true;
    }
    derived.push_back(ApplySubstitution(h, rule.head[0]));
    return true;
  });
  uint64_t produced = 0;
  for (Atom& atom : derived) {
    if (instance->Insert(atom)) {
      ++produced;
      if (out_delta != nullptr) out_delta->push_back(std::move(atom));
    }
  }
  return produced;
}

}  // namespace

DatalogResult EvaluateDatalog(const Program& program, const Instance& database,
                              const DatalogOptions& options) {
  DatalogResult result;
  Instance& instance = result.instance;

  PredicateGraph graph(program);
  if (!graph.NegationIsStratified()) {
    // Negation through recursion has no stratified model; refuse.
    result.reached_fixpoint = false;
    return result;
  }
  for (const Atom& fact : database.AllAtoms()) instance.Insert(fact);

  // Assign every rule to the stratum of its head predicate's SCC, in
  // topological order of the condensation.
  const std::vector<int>& topo = graph.TopologicalComponents();
  std::unordered_map<int, size_t> stratum_of_component;
  for (size_t i = 0; i < topo.size(); ++i) stratum_of_component[topo[i]] = i;

  std::vector<std::vector<size_t>> rules_by_stratum(topo.size());
  for (size_t r = 0; r < program.tgds().size(); ++r) {
    const Tgd& rule = program.tgds()[r];
    assert(rule.IsDatalogRule() &&
           "EvaluateDatalog requires full single-head rules");
    size_t stratum =
        stratum_of_component.at(graph.ComponentOf(rule.head[0].predicate));
    rules_by_stratum[stratum].push_back(r);
  }

  // Predicates read by strata >= s (for boundary garbage collection).
  std::vector<std::unordered_set<PredicateId>> read_from(topo.size() + 1);
  for (size_t s = topo.size(); s-- > 0;) {
    read_from[s] = read_from[s + 1];
    for (size_t r : rules_by_stratum[s]) {
      for (const Atom& b : program.tgds()[r].body) {
        read_from[s].insert(b.predicate);
      }
      for (const Atom& n : program.tgds()[r].negative_body) {
        read_from[s].insert(n.predicate);
      }
    }
  }

  auto note_peak = [&]() {
    result.peak_instance_bytes =
        std::max(result.peak_instance_bytes, instance.ApproximateBytes());
  };

  for (size_t s = 0; s < rules_by_stratum.size(); ++s) {
    const std::vector<size_t>& rules = rules_by_stratum[s];
    if (!rules.empty()) {
      if (options.seminaive) {
        // Seed round: full evaluation of the stratum's rules once.
        std::vector<Atom> delta;
        for (size_t r : rules) {
          result.rule_applications +=
              FireFull(program.tgds()[r], &instance, &delta);
        }
        ++result.rounds;
        note_peak();
        // Delta rounds: anchor each join on a freshly derived atom — the
        // Section 7 (2) bias toward the mutually recursive operand.
        while (!delta.empty()) {
          if (options.max_rounds != 0 && result.rounds >= options.max_rounds) {
            result.reached_fixpoint = false;
            break;
          }
          std::vector<Atom> next_delta;
          for (size_t r : rules) {
            const Tgd& rule = program.tgds()[r];
            auto apply = [&](const Substitution& h) {
              // Stratified negation: negated atoms are ground under h
              // (safety) and their predicates live in strictly earlier
              // strata, which this stratum never inserts into, so absence
              // at apply time is definitive.
              for (const Atom& negated : rule.negative_body) {
                if (instance.Contains(ApplySubstitution(h, negated))) {
                  return true;
                }
              }
              Atom head = ApplySubstitution(h, rule.head[0]);
              if (instance.Insert(head)) {
                ++result.rule_applications;
                next_delta.push_back(std::move(head));
              }
              return true;
            };
            result.triggers +=
                ForEachDeltaTrigger(rule.body, delta, instance, apply);
          }
          ++result.rounds;
          note_peak();
          delta = std::move(next_delta);
        }
      } else {
        // Naive mode: re-derive from scratch every round until a full pass
        // adds nothing.
        for (;;) {
          if (options.max_rounds != 0 && result.rounds >= options.max_rounds) {
            result.reached_fixpoint = false;
            break;
          }
          uint64_t produced = 0;
          for (size_t r : rules) {
            produced += FireFull(program.tgds()[r], &instance, nullptr);
          }
          result.rule_applications += produced;
          ++result.rounds;
          note_peak();
          if (produced == 0) break;
        }
      }
    }

    if (options.materialize_strata) {
      // Boundary materialization: later strata only need `read_from[s+1]`
      // plus explicitly preserved predicates; drop the rest.
      for (PredicateId p : instance.Predicates()) {
        if (read_from[s + 1].count(p) == 0 && options.preserve.count(p) == 0) {
          instance.DropRelation(p);
        }
      }
      note_peak();
    }
  }

  return result;
}

}  // namespace vadalog
