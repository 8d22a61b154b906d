// Experiment E8 (Example 3.3 / Section 3): OWL 2 QL entailment-regime
// reasoning with the warded ∩ PWL rule set, scaled over synthetic
// ontologies. Reports chase materialization cost, positive decision-query
// latency via the linear proof search (sampled from chased entailments),
// and budgeted negative decisions. Expected shape: the chase grows with
// the ontology; positive decisions stay near-constant and agree with the
// chase; negative decisions expose the NL→PTime determinization cost and
// are reported honestly against a state budget.

#include <cstdint>

#include "bench_util.h"
#include "chase/chase.h"
#include "engine/alternating_search.h"
#include "engine/linear_search.h"
#include "engine/search_cache.h"
#include "gen/generators.h"
#include "storage/homomorphism.h"

using namespace vadalog;
using namespace vadalog::bench;

int main() {
  Banner("E8 / Example 3.3",
         "OWL 2 QL TGDs (warded, piece-wise linear): chase materialization "
         "vs per-query linear proof search");

  Row("%8s %8s | %9s %8s | %9s %6s | %9s %10s %8s", "classes", "indivs",
      "chase-ms", "atoms", "pos-ms", "agree", "neg-ms", "neg-result",
      "discards");
  bool all_agree = true;
  for (uint32_t scale : {1u, 2u, 4u, 8u}) {
    uint32_t classes = 25 * scale;
    uint32_t individuals = 100 * scale;
    Program program = MakeOwl2QlProgram();
    Rng rng(scale * 101);
    AddOntologyFacts(&program, classes, 5 * scale, individuals, &rng);
    NormalizeToSingleHead(&program, nullptr);
    Instance db = DatabaseFromFacts(program.facts());

    Timer chase_timer;
    ChaseResult chase = RunChase(program, db);
    double chase_ms = chase_timer.Ms();

    PredicateId type = program.symbols().FindPredicate("type");
    ConjunctiveQuery query;
    query.output = {Term::Variable(0), Term::Variable(1)};
    query.atoms = {Atom(type, {Term::Variable(0), Term::Variable(1)})};

    // All decisions against one database share one memoization cache (the
    // realistic shape for repeated entailment checks).
    ProofSearchCache cache(program, db);
    ProofSearchOptions search_options;
    search_options.cache = &cache;

    // Positive decisions: sample entailed constant-only type facts from
    // the chase and re-verify each with the proof search.
    const Relation* types = chase.instance.RelationFor(type);
    bool agree = true;
    double positive_ms = 0.0;
    int positives = 0;
    for (size_t row = 0; row < types->size() && positives < 10; ++row) {
      const std::vector<Term>& tuple = types->TupleAt(row);
      if (!tuple[0].is_constant() || !tuple[1].is_constant()) continue;
      ++positives;
      Timer t;
      ProofSearchResult search = LinearProofSearch(
          program, db, query, {tuple[0], tuple[1]}, search_options);
      positive_ms += t.Ms();
      if (!search.accepted) agree = false;
    }

    // One negative decision with a state budget: the exhaustive
    // refutation is where the deterministic BFS pays for simulating NL.
    Term ind = program.symbols().InternConstant("ind0");
    Term cls = program.symbols().InternConstant("class1");
    ProofSearchOptions neg_options;
    neg_options.max_states = 50000;
    neg_options.cache = &cache;
    Timer neg_timer;
    ProofSearchResult neg =
        LinearProofSearch(program, db, query, {ind, cls}, neg_options);
    double neg_ms = neg_timer.Ms();
    all_agree = all_agree && agree;
    const char* neg_result =
        neg.accepted ? "entailed"
                     : (neg.budget_exhausted ? "budget" : "refuted");

    Row("%8u %8u | %9.2f %8zu | %9.3f %6s | %9.2f %10s %8llu", classes,
        individuals, chase_ms, chase.instance.size(),
        positives > 0 ? positive_ms / positives : 0.0,
        agree ? "yes" : "NO", neg_ms, neg_result,
        static_cast<unsigned long long>(neg.subsumed_discarded));
    Row("      retired %llu  subsumption-checks %llu  visited %llu",
        static_cast<unsigned long long>(neg.states_retired),
        static_cast<unsigned long long>(neg.subsumption_checks),
        static_cast<unsigned long long>(neg.states_visited));
  }

  // The same budgeted negative decision on the explicit-stack alternating
  // engine (scale 1 only — the AND/OR realization pays the ExpTime shape
  // on this ontology); the verdict must match the linear engine's.
  {
    Program program = MakeOwl2QlProgram();
    Rng rng(101);
    AddOntologyFacts(&program, 25, 5, 100, &rng);
    NormalizeToSingleHead(&program, nullptr);
    Instance db = DatabaseFromFacts(program.facts());
    PredicateId type = program.symbols().FindPredicate("type");
    ConjunctiveQuery query;
    query.output = {Term::Variable(0), Term::Variable(1)};
    query.atoms = {Atom(type, {Term::Variable(0), Term::Variable(1)})};
    Term ind = program.symbols().InternConstant("ind0");
    Term cls = program.symbols().InternConstant("class1");

    Row("");
    Row("%-30s %9s %9s %10s", "alternating negative (scale 1)", "ms",
        "states", "result");
    ProofSearchCache cache(program, db);
    ProofSearchOptions options;
    options.max_states = 50000;
    options.cache = &cache;
    Timer t;
    AlternatingSearchResult r =
        AlternatingProofSearch(program, db, query, {ind, cls}, options);
    Row("%-30s %9.2f %9llu %10s", "cold cache", t.Ms(),
        static_cast<unsigned long long>(r.states_expanded),
        r.accepted ? "entailed" : (r.budget_exhausted ? "budget" : "refuted"));
  }
  return all_agree ? 0 : 1;
}
