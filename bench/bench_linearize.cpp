// Experiment E5 (Section 1.2): the linearization rewrite. The non-linear
// transitive closure  T(x,y),T(y,z) → T(x,z)  and its linearized form
// E(x,y),T(y,z) → T(x,z)  compute the same relation; the linear form
// fires far fewer redundant triggers under semi-naive evaluation. We
// report derivation counts (new tuples, equal by construction), trigger
// counts (rule-body matches the delta rounds enumerate) and time for both
// on the same graphs, and check that both compute the same t relation.
// Expected shape: same answers; linear wins on trigger volume and time,
// increasingly so on denser graphs.

#include <cstdint>
#include <set>
#include <string>

#include "analysis/linearize.h"
#include "bench_util.h"
#include "datalog/seminaive.h"
#include "gen/generators.h"
#include "storage/homomorphism.h"

using namespace vadalog;
using namespace vadalog::bench;

namespace {

/// The tuples of `program`'s relation `t`, rendered through its own symbol
/// table so that relations of two programs compare by content.
std::set<std::string> RenderedT(const Program& program,
                                const Instance& instance) {
  std::set<std::string> rendered;
  PredicateId t = program.symbols().FindPredicate("t");
  const Relation* rel = instance.RelationFor(t);
  for (size_t row = 0; rel != nullptr && row < rel->size(); ++row) {
    rendered.insert(Atom(t, rel->TupleAt(row)).ToString(program.symbols()));
  }
  return rendered;
}

}  // namespace

int main() {
  Banner("E5 / Section 1.2 (linearization)",
         "non-linear TC vs auto-linearized TC: same answers, fewer "
         "semi-naive triggers and less time for the linear form");

  Row("%8s %8s | %10s %10s | %10s %10s | %6s | %12s %12s", "nodes",
      "edges", "nl-ms", "nl-apps", "lin-ms", "lin-apps", "same", "nl-trig",
      "lin-trig");
  bool all_same = true;
  for (uint32_t nodes : {50u, 100u, 200u, 400u}) {
    uint64_t edges = nodes * 3;
    Program nonlinear = MakeTransitiveClosureProgram(/*linear=*/false);
    Rng rng1(nodes);
    AddRandomGraphFacts(&nonlinear, "e", nodes, edges, &rng1);

    // The Section 1.2 elimination procedure, applied automatically.
    Program linearized = MakeTransitiveClosureProgram(/*linear=*/false);
    Rng rng2(nodes);
    AddRandomGraphFacts(&linearized, "e", nodes, edges, &rng2);
    LinearizeResult transform = LinearizeProgram(&linearized);
    if (!transform.now_piecewise) {
      Row("linearization failed unexpectedly");
      return 1;
    }

    Instance db1 = DatabaseFromFacts(nonlinear.facts());
    Instance db2 = DatabaseFromFacts(linearized.facts());

    Timer nl_timer;
    DatalogResult nl = EvaluateDatalog(nonlinear, db1);
    double nl_ms = nl_timer.Ms();

    Timer lin_timer;
    DatalogResult lin = EvaluateDatalog(linearized, db2);
    double lin_ms = lin_timer.Ms();

    bool same = RenderedT(nonlinear, nl.instance) ==
                RenderedT(linearized, lin.instance);
    all_same = all_same && same;

    Row("%8u %8lu | %10.2f %10lu | %10.2f %10lu | %6s | %12lu %12lu", nodes,
        static_cast<unsigned long>(edges), nl_ms,
        static_cast<unsigned long>(nl.rule_applications), lin_ms,
        static_cast<unsigned long>(lin.rule_applications),
        same ? "yes" : "NO", static_cast<unsigned long>(nl.triggers),
        static_cast<unsigned long>(lin.triggers));
  }
  return all_same ? 0 : 1;
}
