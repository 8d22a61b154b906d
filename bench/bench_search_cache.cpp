// Experiment E12 (Section 4.3 realization): relevance-pruned, memoized
// proof search. Measures (1) the OWL 2 QL example's expensive refutation
// cold vs warm against one shared ProofSearchCache, (2) certain-answer
// enumeration with the shared cache vs per-candidate fresh searches, and
// (3) the alternating search cold vs warm. Expected shape: warm decisions
// collapse to near-zero states (the refutation closure transfers across
// candidates), enumeration with sharing beats per-candidate re-search, and
// all cached decisions agree with the chase engine.

#include <cstdint>

#include "ast/parser.h"
#include "bench_util.h"
#include "engine/certain.h"
#include "engine/search_cache.h"
#include "gen/generators.h"
#include "storage/instance.h"

using namespace vadalog;
using namespace vadalog::bench;

namespace {

Program MiniOntology() {
  Program program;
  std::string text = R"(
    subclassStar(X, Y) :- subclass(X, Y).
    subclassStar(X, Z) :- subclassStar(X, Y), subclass(Y, Z).
    type(X, Z) :- type(X, Y), subclassStar(Y, Z).
    triple(X, Z, W) :- type(X, Y), restriction(Y, Z).
    triple(Z, W, X) :- triple(X, Y, Z), inverse(Y, W).
    type(X, W) :- triple(X, Y, Z), restriction(W, Y).
    subclass(cat, mammal). subclass(mammal, animal).
    type(tom, cat).
    restriction(hunter, hunts).
    type(tom, hunter).
  )";
  std::string error = ParseInto(text, &program);
  if (!error.empty()) std::fprintf(stderr, "%s\n", error.c_str());
  NormalizeToSingleHead(&program, nullptr);
  return program;
}

}  // namespace

int main() {
  Banner("E12 / Section 4.3 optimization",
         "relevance-pruned, memoized linear proof search: cold vs warm "
         "decisions and shared-cache enumeration over one (program, D)");
  bool all_agree = true;

  // -- (1) The owl2ql_reasoning example's decisions, shared cache.
  {
    Program program = MakeOwl2QlProgram();
    std::string facts = R"(
      subclass(professor, faculty).
      subclass(faculty, employee).
      subclass(employee, person).
      restriction(teacher, teaches).
      inverse(teaches, taughtBy).
      restriction(student, taughtBy).
      type(ada, professor).
      type(ada, teacher).
    )";
    ParseInto(facts, &program);
    NormalizeToSingleHead(&program, nullptr);
    Instance db = DatabaseFromFacts(program.facts());

    PredicateId type = program.symbols().FindPredicate("type");
    Term ada = program.symbols().InternConstant("ada");
    Term student = program.symbols().InternConstant("student");
    ConjunctiveQuery ada_types;
    ada_types.output = {Term::Variable(0)};
    ada_types.atoms = {Atom(type, {ada, Term::Variable(0)})};
    ConjunctiveQuery someone_student;
    someone_student.atoms = {Atom(type, {Term::Variable(0), student})};

    ProofSearchCache cache(program, db);
    ProofSearchOptions options;
    options.cache = &cache;

    Row("%-28s %10s %10s %12s %8s", "decision (8-fact D)", "ms", "states",
        "cache-hits", "result");
    auto report = [&](const char* label, const ConjunctiveQuery& q,
                      const std::vector<Term>& answer) {
      Timer t;
      ProofSearchResult r = LinearProofSearch(program, db, q, answer, options);
      Row("%-28s %10.2f %10llu %12llu %8s", label, t.Ms(),
          static_cast<unsigned long long>(r.states_visited),
          static_cast<unsigned long long>(r.cache_hits),
          r.accepted ? "entailed" : "refuted");
    };
    report("refute ada:student (cold)", ada_types, {student});
    report("refute ada:student (warm)", ada_types, {student});
    report("accept someone:student", someone_student, {});
    Row("cache: %zu refuted states, %zu interned atoms, %s",
        cache.linear_refuted_size(), cache.interned_atoms(),
        HumanBytes(cache.ApproximateBytes()).c_str());
  }

  // -- (2) Enumeration: shared cache vs per-candidate fresh searches.
  {
    Program program = MiniOntology();
    Instance db = DatabaseFromFacts(program.facts());
    PredicateId type = program.symbols().FindPredicate("type");
    ConjunctiveQuery query;
    query.output = {Term::Variable(0)};
    query.atoms = {
        Atom(type, {program.symbols().InternConstant("tom"),
                    Term::Variable(0)})};

    std::vector<std::vector<Term>> via_chase =
        CertainAnswersViaChase(program, db, query);

    Timer shared_timer;
    std::vector<std::vector<Term>> shared =
        CertainAnswersViaSearch(program, db, query);
    double shared_ms = shared_timer.Ms();

    // Per-candidate fresh caches: every refutation re-pays its closure.
    double fresh_ms = 0.0;
    bool fresh_agrees = true;
    {
      std::vector<Term> domain;
      for (Term t : db.ActiveDomain()) {
        if (t.is_constant()) domain.push_back(t);
      }
      Timer t;
      for (Term c : domain) {
        bool accepted =
            IsCertainViaLinearSearch(program, db, query, {c});
        bool expected = false;
        for (const std::vector<Term>& row : shared) {
          expected = expected || row[0] == c;
        }
        fresh_agrees = fresh_agrees && accepted == expected;
      }
      fresh_ms = t.Ms();
    }

    Row("");
    Row("%-34s %10s %10s %6s", "enumeration (mini ontology)", "ms",
        "answers", "agree");
    Row("%-34s %10.2f %10zu %6s", "shared cache (ViaSearch)", shared_ms,
        shared.size(), shared == via_chase ? "yes" : "NO");
    Row("%-34s %10.2f %10s %6s", "fresh search per candidate", fresh_ms, "-",
        fresh_agrees ? "yes" : "NO");
    all_agree = all_agree && shared == via_chase && fresh_agrees;
  }

  // -- (2b) Subsumption ablation on the expensive owl2ql refutation:
  // pruning is the state-space lever.
  {
    Program program = MakeOwl2QlProgram();
    std::string facts = R"(
      subclass(professor, faculty).
      subclass(faculty, employee).
      subclass(employee, person).
      restriction(teacher, teaches).
      inverse(teaches, taughtBy).
      restriction(student, taughtBy).
      type(ada, professor).
      type(ada, teacher).
    )";
    ParseInto(facts, &program);
    NormalizeToSingleHead(&program, nullptr);
    Instance db = DatabaseFromFacts(program.facts());
    PredicateId type = program.symbols().FindPredicate("type");
    Term ada = program.symbols().InternConstant("ada");
    Term student = program.symbols().InternConstant("student");
    ConjunctiveQuery ada_types;
    ada_types.output = {Term::Variable(0)};
    ada_types.atoms = {Atom(type, {ada, Term::Variable(0)})};

    Row("");
    Row("%-28s %10s %10s %10s", "refutation ablation", "ms", "visited",
        "discarded");
    for (bool subsumption : {false, true}) {
      ProofSearchOptions options;
      options.subsumption = subsumption;
      Timer t;
      ProofSearchResult r =
          LinearProofSearch(program, db, ada_types, {student}, options);
      const char* label = subsumption ? "subsumption" : "no pruning";
      Row("%-28s %10.2f %10llu %10llu", label, t.Ms(),
          static_cast<unsigned long long>(r.states_visited),
          static_cast<unsigned long long>(r.subsumed_discarded));
      if (r.accepted) Row("  !! expected a refutation");
    }
  }

  // -- (3) Alternating search, cold vs warm proven/refuted tables.
  {
    Program program;
    std::string text = R"(
      t(X, Y) :- e(X, Y).
      t(X, Z) :- t(X, Y), t(Y, Z).
    )";
    ParseInto(text, &program);
    for (uint32_t i = 0; i + 1 < 14; ++i) {
      std::string a = "v" + std::to_string(i);
      std::string b = "v" + std::to_string(i + 1);
      ParseInto("e(" + a + ", " + b + ").", &program);
    }
    NormalizeToSingleHead(&program, nullptr);
    Instance db = DatabaseFromFacts(program.facts());
    PredicateId t_pred = program.symbols().FindPredicate("t");
    ConjunctiveQuery query;
    query.output = {Term::Variable(0)};
    query.atoms = {Atom(t_pred, {program.symbols().InternConstant("v0"),
                                 Term::Variable(0)})};
    Term absent = program.symbols().InternConstant("zz");

    ProofSearchCache cache(program, db);
    ProofSearchOptions options;
    options.cache = &cache;
    Row("");
    Row("%-28s %10s %10s %10s %12s %8s", "alternating (14-node TC)", "ms",
        "states", "refuted", "cache-hits", "result");
    for (const char* label : {"refute t(v0, zz) (cold)",
                              "refute t(v0, zz) (warm)"}) {
      Timer timer;
      AlternatingSearchResult r =
          AlternatingProofSearch(program, db, query, {absent}, options);
      Row("%-28s %10.2f %10llu %10llu %12llu %8s", label, timer.Ms(),
          static_cast<unsigned long long>(r.states_expanded),
          static_cast<unsigned long long>(r.refuted_cached),
          static_cast<unsigned long long>(r.cache_hits),
          r.accepted ? "entailed" : "refuted");
    }
  }
  return all_agree ? 0 : 1;
}
