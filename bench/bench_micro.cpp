// Google-benchmark microbenchmarks for the engine primitives: term
// interning, homomorphism matching, state canonicalization, eager
// simplification, chunk resolution, and single chase rounds. These
// calibrate the constants behind the experiment harnesses.

#include <benchmark/benchmark.h>

#include "ast/parser.h"
#include "chase/chase.h"
#include "engine/resolution.h"
#include "engine/state.h"
#include "gen/generators.h"
#include "storage/homomorphism.h"

namespace vadalog {
namespace {

void BM_InternConstant(benchmark::State& state) {
  SymbolTable symbols;
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        symbols.InternConstant("constant" + std::to_string(i++ % 4096)));
  }
}
BENCHMARK(BM_InternConstant);

void BM_HomomorphismJoin(benchmark::State& state) {
  Program program;
  Rng rng(1);
  AddRandomGraphFacts(&program, "e", static_cast<uint32_t>(state.range(0)),
                      state.range(0) * 3, &rng);
  Instance db = DatabaseFromFacts(program.facts());
  PredicateId e = program.symbols().FindPredicate("e");
  std::vector<Atom> pattern = {
      Atom(e, {Term::Variable(0), Term::Variable(1)}),
      Atom(e, {Term::Variable(1), Term::Variable(2)})};
  for (auto _ : state) {
    size_t count = 0;
    ForEachHomomorphism(pattern, db, {}, [&count](const Substitution&) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_HomomorphismJoin)->Arg(100)->Arg(1000);

void BM_Canonicalize(benchmark::State& state) {
  // A chain state of `range` atoms with fresh variables.
  std::vector<Atom> atoms;
  for (int64_t i = 0; i < state.range(0); ++i) {
    atoms.push_back(Atom(0, {Term::Variable(static_cast<uint64_t>(i)),
                             Term::Variable(static_cast<uint64_t>(i + 1))}));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Canonicalize(atoms));
  }
}
BENCHMARK(BM_Canonicalize)->Arg(4)->Arg(16);

void BM_CanonicalizeSymmetric(benchmark::State& state) {
  // A star e(X0, Xi) whose `range` leaves each carry f(Xi, Yi): two tie
  // groups of `range` interchangeable atoms, resolved by the canonical
  // search over (range!)^2 orders.
  std::vector<Atom> atoms;
  uint64_t leaves = static_cast<uint64_t>(state.range(0));
  for (uint64_t i = 1; i <= leaves; ++i) {
    atoms.push_back(Atom(0, {Term::Variable(0), Term::Variable(i)}));
    atoms.push_back(
        Atom(1, {Term::Variable(i), Term::Variable(leaves + i)}));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Canonicalize(atoms));
  }
}
BENCHMARK(BM_CanonicalizeSymmetric)->Arg(3)->Arg(4);

void BM_EagerSimplify(benchmark::State& state) {
  // A resolvent-like state over an OWL 2 QL database: three dirty
  // components (a four-way join that never embeds, an embeddable pair,
  // an atom over a derived predicate with no facts) and one clean
  // component. Each iteration copies the state and its dirty flags.
  Program program = MakeOwl2QlProgram();
  Rng rng(3);
  AddOntologyFacts(&program, 30, 6, 120, &rng);
  Instance db = DatabaseFromFacts(program.facts());
  SymbolTable& symbols = program.symbols();
  PredicateId type = symbols.FindPredicate("type");
  PredicateId subclass = symbols.FindPredicate("subclass");
  PredicateId restriction = symbols.FindPredicate("restriction");
  PredicateId inverse = symbols.FindPredicate("inverse");
  PredicateId triple = symbols.FindPredicate("triple");
  PredicateId subclass_star = symbols.FindPredicate("subclassStar");
  auto v = [](uint64_t i) { return Term::Variable(i); };
  const std::vector<Atom> resolvent = {
      Atom(type, {v(0), v(1)}),         Atom(subclass, {v(1), v(2)}),
      Atom(restriction, {v(2), v(3)}),  Atom(inverse, {v(3), v(0)}),
      Atom(type, {v(4), v(5)}),         Atom(subclass, {v(5), v(6)}),
      Atom(triple, {v(7), v(8), v(9)}), Atom(subclass_star, {v(10), v(11)})};
  const std::vector<char> dirty_flags = {1, 1, 1, 1, 1, 1, 1, 0};
  for (auto _ : state) {
    std::vector<Atom> atoms = resolvent;
    std::vector<char> dirty = dirty_flags;
    benchmark::DoNotOptimize(EagerSimplifyIncremental(&atoms, db, &dirty));
  }
}
BENCHMARK(BM_EagerSimplify);

void BM_ChunkResolution(benchmark::State& state) {
  ParseResult parsed = ParseProgram(R"(
    t(X, Z) :- e(X, Y), t(Y, Z).
    t(X, Y) :- e(X, Y).
  )");
  Program program = std::move(*parsed.program);
  PredicateId t = program.symbols().FindPredicate("t");
  std::vector<Atom> proof_state = {
      Atom(t, {Term::Variable(0), Term::Variable(1)}),
      Atom(t, {Term::Variable(1), Term::Variable(2)})};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ResolveAll(proof_state, program, 100, 4));
  }
}
BENCHMARK(BM_ChunkResolution);

void BM_ChaseTransitiveClosure(benchmark::State& state) {
  Program program = MakeTransitiveClosureProgram(/*linear=*/true);
  Rng rng(7);
  AddRandomGraphFacts(&program, "e", static_cast<uint32_t>(state.range(0)),
                      state.range(0) * 2, &rng);
  Instance db = DatabaseFromFacts(program.facts());
  for (auto _ : state) {
    ChaseResult result = RunChase(program, db);
    benchmark::DoNotOptimize(result.instance.size());
  }
}
BENCHMARK(BM_ChaseTransitiveClosure)->Arg(50)->Arg(150);

}  // namespace
}  // namespace vadalog

BENCHMARK_MAIN();
