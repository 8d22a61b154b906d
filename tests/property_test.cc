// Property-based cross-engine tests: on randomly generated warded
// programs and databases, every engine (chase with termination control,
// linear bounded proof search, alternating search, and — for PWL programs
// — the Datalog rewriting) must compute the same certain answers.
// Parameterized gtest sweeps over generator seeds.

#include <gtest/gtest.h>

#include "analysis/classify.h"
#include "ast/parser.h"
#include "chase/chase.h"
#include "datalog/seminaive.h"
#include "engine/certain.h"
#include "gen/generators.h"
#include "engine/state.h"
#include "rewriting/pwl_to_datalog.h"
#include "storage/homomorphism.h"

namespace vadalog {
namespace {

/// Adds random binary facts for every extensional predicate of `program`
/// over a domain of `domain_size` constants.
Instance RandomDatabase(Program* program, uint32_t domain_size,
                        uint64_t facts_per_predicate, Rng* rng) {
  std::vector<Term> domain;
  for (uint32_t i = 0; i < domain_size; ++i) {
    domain.push_back(
        program->symbols().InternConstant("d" + std::to_string(i)));
  }
  Instance db;
  for (PredicateId p : program->ExtensionalPredicates()) {
    uint32_t arity = program->symbols().PredicateArity(p);
    for (uint64_t k = 0; k < facts_per_predicate; ++k) {
      std::vector<Term> args;
      for (uint32_t i = 0; i < arity; ++i) {
        args.push_back(domain[rng->Below(domain.size())]);
      }
      db.Insert(Atom(p, args));
    }
  }
  return db;
}

/// A query ?(X, Y) :- p(X, Y) over a deterministic-chosen binary
/// intensional predicate, or nullopt if none exists.
std::optional<ConjunctiveQuery> BinaryIdbQuery(const Program& program) {
  std::vector<PredicateId> candidates;
  for (PredicateId p : program.IntensionalPredicates()) {
    if (program.symbols().PredicateArity(p) == 2) candidates.push_back(p);
  }
  if (candidates.empty()) return std::nullopt;
  std::sort(candidates.begin(), candidates.end());
  ConjunctiveQuery query;
  query.output = {Term::Variable(0), Term::Variable(1)};
  query.atoms = {
      Atom(candidates[0], {Term::Variable(0), Term::Variable(1)})};
  return query;
}

class PwlEngineEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PwlEngineEquivalence, AllEnginesAgree) {
  uint64_t seed = GetParam();
  Rng rng(seed);
  ScenarioSpec spec;
  spec.shape = rng.Chance(0.5) ? RecursionShape::kLinear
                               : RecursionShape::kPiecewiseLinear;
  spec.num_strata = 1 + static_cast<uint32_t>(rng.Below(2));
  spec.rules_per_stratum = 1 + static_cast<uint32_t>(rng.Below(2));
  spec.with_existentials = rng.Chance(0.5);
  spec.seed = seed;
  Program program = GenerateScenario(spec);
  NormalizeToSingleHead(&program, nullptr);

  ProgramClassification c = ClassifyProgram(program);
  ASSERT_TRUE(c.warded);
  ASSERT_TRUE(c.piecewise_linear);

  Instance db = RandomDatabase(&program, 4, 5, &rng);
  std::optional<ConjunctiveQuery> query = BinaryIdbQuery(program);
  ASSERT_TRUE(query.has_value());

  std::vector<std::vector<Term>> via_chase =
      CertainAnswersViaChase(program, db, *query);
  std::vector<std::vector<Term>> via_linear =
      CertainAnswersViaSearch(program, db, *query, /*use_alternating=*/false);
  std::vector<std::vector<Term>> via_alternating =
      CertainAnswersViaSearch(program, db, *query, /*use_alternating=*/true);

  EXPECT_EQ(via_chase, via_linear) << "seed " << seed << "\n"
                                   << program.ToString();
  EXPECT_EQ(via_chase, via_alternating) << "seed " << seed;

  // Datalog rewriting (Theorem 6.3 (1)).
  RewriteOptions rewrite_options;
  rewrite_options.max_states = 20000;
  RewriteResult rewrite =
      RewritePwlWardedToDatalog(program, *query, rewrite_options);
  if (rewrite.datalog.has_value()) {
    DatalogResult datalog = EvaluateDatalog(*rewrite.datalog, db);
    std::vector<std::vector<Term>> via_rewriting =
        EvaluateQuerySorted(rewrite.goal, datalog.instance);
    EXPECT_EQ(via_chase, via_rewriting) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PwlEngineEquivalence,
                         ::testing::Range<uint64_t>(1, 13));

// Pinned regression seeds — the PODS'19 equal-certain-answers check on
// every run. Policy: any seed that EVER produced a cross-engine
// disagreement gets appended here (never removed), so a fixed bug stays
// fixed. The initial entries are a spread from an offline 1..1000 sweep
// (all green as of the build-bootstrap PR) chosen to cover both scenario
// shapes, both strata counts, and the with/without-existentials split far
// outside the default Range(1, 13) sweep above.
constexpr uint64_t kPinnedPwlSeeds[] = {37,  137, 256, 389, 512,
                                        641, 777, 891, 997};

INSTANTIATE_TEST_SUITE_P(PinnedRegressions, PwlEngineEquivalence,
                         ::testing::ValuesIn(kPinnedPwlSeeds));

class WardedEngineEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WardedEngineEquivalence, ChaseAgreesWithAlternating) {
  uint64_t seed = GetParam();
  Rng rng(seed * 31 + 7);
  ScenarioSpec spec;
  spec.shape = rng.Chance(0.5) ? RecursionShape::kLinearizable
                               : RecursionShape::kNonLinear;
  spec.num_strata = 1;
  spec.rules_per_stratum = 1 + static_cast<uint32_t>(rng.Below(2));
  spec.with_existentials = rng.Chance(0.5);
  spec.seed = seed;
  Program program = GenerateScenario(spec);
  NormalizeToSingleHead(&program, nullptr);
  ASSERT_TRUE(ClassifyProgram(program).warded);

  Instance db = RandomDatabase(&program, 4, 4, &rng);
  std::optional<ConjunctiveQuery> query = BinaryIdbQuery(program);
  ASSERT_TRUE(query.has_value());

  std::vector<std::vector<Term>> via_chase =
      CertainAnswersViaChase(program, db, *query);
  std::vector<std::vector<Term>> via_alternating =
      CertainAnswersViaSearch(program, db, *query, /*use_alternating=*/true);
  EXPECT_EQ(via_chase, via_alternating)
      << "seed " << seed << "\n" << program.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, WardedEngineEquivalence,
                         ::testing::Range<uint64_t>(1, 9));

// Same pin policy as kPinnedPwlSeeds: seeds that ever failed the
// chase-vs-alternating agreement live here forever.
constexpr uint64_t kPinnedWardedSeeds[] = {41, 173, 294, 447, 568,
                                           699, 803, 929};

INSTANTIATE_TEST_SUITE_P(PinnedRegressions, WardedEngineEquivalence,
                         ::testing::ValuesIn(kPinnedWardedSeeds));

// The tentpole's exactness fuzz: subsumption pruning and incremental
// simplification must never change a certain answer. Every configuration
// — pruning on/off, linear and alternating — is swept against the chase
// on random warded ∩ PWL scenarios.
class SearchConfigEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SearchConfigEquivalence, PrunedAndUnprunedSearchesMatchChase) {
  uint64_t seed = GetParam();
  Rng rng(seed * 7919 + 13);
  ScenarioSpec spec;
  spec.shape = rng.Chance(0.5) ? RecursionShape::kLinear
                               : RecursionShape::kPiecewiseLinear;
  spec.num_strata = 1 + static_cast<uint32_t>(rng.Below(2));
  spec.rules_per_stratum = 1 + static_cast<uint32_t>(rng.Below(2));
  spec.with_existentials = rng.Chance(0.5);
  spec.seed = seed;
  Program program = GenerateScenario(spec);
  NormalizeToSingleHead(&program, nullptr);
  Instance db = RandomDatabase(&program, 4, 5, &rng);
  std::optional<ConjunctiveQuery> query = BinaryIdbQuery(program);
  ASSERT_TRUE(query.has_value());

  std::vector<std::vector<Term>> via_chase =
      CertainAnswersViaChase(program, db, *query);

  struct Config {
    const char* name;
    bool alternating;
    bool subsumption;
  };
  constexpr Config kConfigs[] = {
      {"linear/pruned", false, true},
      {"linear/unpruned", false, false},
      {"alternating/pruned", true, true},
      {"alternating/unpruned", true, false},
  };
  for (const Config& config : kConfigs) {
    ProofSearchOptions options;
    options.subsumption = config.subsumption;
    CertainAnswerSet result = CertainAnswersViaSearchChecked(
        program, db, *query, config.alternating, options);
    EXPECT_TRUE(result.complete) << config.name << " seed " << seed;
    EXPECT_EQ(via_chase, result.answers)
        << config.name << " seed " << seed << "\n" << program.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SearchConfigEquivalence,
                         ::testing::Range<uint64_t>(1, 11));

// Pin policy as elsewhere: any seed that ever produces a configuration
// disagreement is appended here and never removed. The initial entries
// are a spread from an offline 1..400 sweep (all green when the pruning
// landed) far outside the default Range(1, 11) above.
constexpr uint64_t kPinnedConfigSeeds[] = {23, 97, 181, 277, 359};

INSTANTIATE_TEST_SUITE_P(PinnedRegressions, SearchConfigEquivalence,
                         ::testing::ValuesIn(kPinnedConfigSeeds));

// Width-interaction fuzz: at artificially tight node widths the searches
// are incomplete by design, but pruning must not change the *verdict* of
// the width-bounded graph search — subsumption discards must simulate
// inside the same bound. Verdicts are compared pairwise per candidate.
class TightWidthPruningEquivalence
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TightWidthPruningEquivalence, PrunedVerdictsMatchUnprunedAtSameWidth) {
  uint64_t seed = GetParam();
  Rng rng(seed * 104729 + 3);
  ScenarioSpec spec;
  spec.shape = rng.Chance(0.5) ? RecursionShape::kLinear
                               : RecursionShape::kPiecewiseLinear;
  spec.num_strata = 1;
  spec.rules_per_stratum = 1 + static_cast<uint32_t>(rng.Below(2));
  spec.with_existentials = rng.Chance(0.5);
  spec.seed = seed;
  Program program = GenerateScenario(spec);
  NormalizeToSingleHead(&program, nullptr);
  Instance db = RandomDatabase(&program, 3, 4, &rng);
  std::optional<ConjunctiveQuery> query = BinaryIdbQuery(program);
  ASSERT_TRUE(query.has_value());

  std::vector<Term> domain;
  for (Term t : db.ActiveDomain()) {
    if (t.is_constant()) domain.push_back(t);
  }
  std::sort(domain.begin(), domain.end());
  for (size_t width : {2u, 3u}) {
    for (Term x : domain) {
      for (Term y : domain) {
        ProofSearchOptions pruned;
        pruned.node_width = width;
        ProofSearchOptions unpruned = pruned;
        unpruned.subsumption = false;
        bool with = LinearProofSearch(program, db, *query, {x, y}, pruned)
                        .accepted;
        bool without =
            LinearProofSearch(program, db, *query, {x, y}, unpruned)
                .accepted;
        EXPECT_EQ(with, without)
            << "seed " << seed << " width " << width << " candidate ("
            << x.index() << ", " << y.index() << ")\n"
            << program.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TightWidthPruningEquivalence,
                         ::testing::Range<uint64_t>(1, 9));

class TcGraphEquivalence
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>> {};

TEST_P(TcGraphEquivalence, LinearAndNonLinearTcAgree) {
  auto [nodes, seed] = GetParam();
  Rng rng(seed);
  Program linear = MakeTransitiveClosureProgram(true);
  Program nonlinear = MakeTransitiveClosureProgram(false);

  // Identical random edge sets in both programs.
  Rng rng1(seed), rng2(seed);
  AddRandomGraphFacts(&linear, "e", nodes, nodes * 2, &rng1);
  AddRandomGraphFacts(&nonlinear, "e", nodes, nodes * 2, &rng2);
  Instance db1 = DatabaseFromFacts(linear.facts());
  Instance db2 = DatabaseFromFacts(nonlinear.facts());

  auto query = [](Program& p) {
    ConjunctiveQuery q;
    q.output = {Term::Variable(0), Term::Variable(1)};
    q.atoms = {Atom(p.symbols().FindPredicate("t"),
                    {Term::Variable(0), Term::Variable(1)})};
    return q;
  };
  std::vector<std::vector<Term>> via_linear_program =
      CertainAnswersViaChase(linear, db1, query(linear));
  std::vector<std::vector<Term>> via_nonlinear_program =
      CertainAnswersViaChase(nonlinear, db2, query(nonlinear));
  // Constant ids are allocated in the same order in both programs, so the
  // term tuples are directly comparable.
  EXPECT_EQ(via_linear_program, via_nonlinear_program)
      << "nodes " << nodes << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TcGraphEquivalence,
    ::testing::Combine(::testing::Values(4u, 6u, 8u),
                       ::testing::Values(1u, 2u, 3u)));


class CanonicalizationInvariance : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(CanonicalizationInvariance, RandomIsomorphicStatesCanonicalizeEqual) {
  // Generate a random CQ state, apply a random variable bijection and a
  // random atom shuffle, and assert the canonical forms coincide.
  uint64_t seed = GetParam();
  Rng rng(seed * 1013 + 7);
  size_t num_atoms = 1 + rng.Below(6);
  size_t num_vars = 1 + rng.Below(5);
  std::vector<Atom> atoms;
  for (size_t i = 0; i < num_atoms; ++i) {
    Atom atom;
    atom.predicate = static_cast<PredicateId>(rng.Below(3));
    size_t arity = 1 + rng.Below(3);
    for (size_t j = 0; j < arity; ++j) {
      if (rng.Chance(0.2)) {
        atom.args.push_back(Term::Constant(rng.Below(3)));
      } else {
        atom.args.push_back(Term::Variable(rng.Below(num_vars)));
      }
    }
    atoms.push_back(std::move(atom));
  }
  // NOTE: predicates here are raw ids with inconsistent arities across
  // atoms; canonicalization only looks at shapes, so this is fine.

  // Random bijective renaming of variables (offset + shuffle).
  std::vector<uint64_t> target(num_vars);
  for (size_t i = 0; i < num_vars; ++i) target[i] = 100 + i;
  for (size_t i = num_vars; i-- > 1;) {
    std::swap(target[i], target[rng.Below(i + 1)]);
  }
  std::vector<Atom> renamed = atoms;
  for (Atom& atom : renamed) {
    for (Term& t : atom.args) {
      if (t.is_variable()) t = Term::Variable(target[t.index()]);
    }
  }
  // Random shuffle of atom order.
  for (size_t i = renamed.size(); i-- > 1;) {
    std::swap(renamed[i], renamed[rng.Below(i + 1)]);
  }

  EXPECT_EQ(Canonicalize(atoms), Canonicalize(renamed)) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonicalizationInvariance,
                         ::testing::Range<uint64_t>(1, 41));

// The chase and semi-naive Datalog drive the same anchored delta-join
// routine with different per-trigger steps; on full (existential-free)
// programs both must reach the same instance, relation by relation.
class BottomUpEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BottomUpEquivalence, ChaseMatchesSeminaive) {
  uint64_t seed = GetParam();
  Rng rng(seed * 97 + 11);
  ScenarioSpec spec;
  spec.shape = rng.Chance(0.5) ? RecursionShape::kLinear
                               : RecursionShape::kPiecewiseLinear;
  spec.num_strata = 1 + static_cast<uint32_t>(rng.Below(2));
  spec.rules_per_stratum = 1 + static_cast<uint32_t>(rng.Below(2));
  spec.with_existentials = false;  // EvaluateDatalog runs full rules only
  spec.seed = seed;
  Program program = GenerateScenario(spec);
  Instance db = RandomDatabase(&program, 5, 8, &rng);

  ChaseResult chase = RunChase(program, db);
  DatalogResult seminaive = EvaluateDatalog(program, db);
  ASSERT_TRUE(chase.Saturated());
  ASSERT_TRUE(seminaive.reached_fixpoint);
  EXPECT_EQ(chase.instance.size(), seminaive.instance.size())
      << "seed " << seed << "\n" << program.ToString();
  for (PredicateId p : seminaive.instance.Predicates()) {
    const Relation* expected = seminaive.instance.RelationFor(p);
    const Relation* actual = chase.instance.RelationFor(p);
    ASSERT_NE(actual, nullptr) << "seed " << seed;
    ASSERT_EQ(actual->size(), expected->size()) << "seed " << seed;
    for (size_t row = 0; row < expected->size(); ++row) {
      EXPECT_TRUE(actual->Contains(expected->TupleAt(row)))
          << "seed " << seed << ": chase misses a tuple of "
          << program.symbols().PredicateName(p);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BottomUpEquivalence,
                         ::testing::Range<uint64_t>(1, 17));

}  // namespace
}  // namespace vadalog
