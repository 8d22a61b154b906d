// Incremental-reasoning tests: a session cache migrated across fact
// insertions by ProofSearchCache::InvalidateForDelta must be
// observationally identical to rebuilding from scratch — for every
// prefix of an interleaved insert/query stream, both engines, any
// thread count — and so must the session's answer memo for engine=auto
// enumerations; the symbol table must stay flat under rolled-back
// batches.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "ast/parser.h"
#include "base/rng.h"
#include "engine/certain.h"
#include "engine/search_cache.h"
#include "gen/generators.h"
#include "server/json.h"
#include "server/session.h"
#include "vadalog/reasoner.h"

namespace vadalog {
namespace {

// Transitive closure plus an isolated `tag` predicate no rule reads:
// tag-insertions exercise the cone-disjoint (zero-invalidation) path,
// edge-insertions the full drop-and-recover path.
// The query is anchored at v0 so each round decides |dom| candidates,
// not |dom|^2 — the property is the same, the suite stays fast.
const char* kLinearTc = R"(
  t(X, Y) :- e(X, Y).
  t(X, Z) :- e(X, Y), t(Y, Z).
  e(v0, v1). tag(v0).
  ?(Y) :- t(v0, Y).
)";
const char* kNonLinearTc = R"(
  t(X, Y) :- e(X, Y).
  t(X, Z) :- t(X, Y), t(Y, Z).
  e(v0, v1). tag(v0).
  ?(Y) :- t(v0, Y).
)";

class IncrementalEquivalence
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(IncrementalEquivalence, WarmDeltaCacheMatchesColdRerunAtEveryPrefix) {
  auto [seed, alternating] = GetParam();
  Rng rng(seed);
  ParseResult parsed = ParseProgram(alternating ? kNonLinearTc : kLinearTc);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  Program program = std::move(*parsed.program);
  NormalizeToSingleHead(&program, nullptr);
  Instance db = DatabaseFromFacts(program.facts());
  ConjunctiveQuery query = program.queries()[0];

  // Alternating refutations of non-linear TC grow steeply with graph
  // size; a 5-node domain keeps those cases exhaustive but quick.
  std::vector<Term> domain;
  for (int i = 0; i < (alternating ? 5 : 6); ++i) {
    domain.push_back(
        program.symbols().InternConstant("v" + std::to_string(i)));
  }
  PredicateId edge = program.symbols().FindPredicate("e");
  PredicateId tag = program.symbols().FindPredicate("tag");

  ProofSearchCache cache(program, db);
  ProofSearchOptions warm;
  warm.cache = &cache;
  ProofSearchOptions cold;

  for (int round = 0; round < 6; ++round) {
    // One insertion batch: mostly edges, sometimes a cone-disjoint tag.
    std::vector<Atom> batch;
    if (rng.Chance(0.25)) {
      batch.emplace_back(tag,
                         std::vector<Term>{domain[rng.Below(domain.size())]});
    } else {
      size_t count = 1 + rng.Below(3);
      for (size_t k = 0; k < count; ++k) {
        batch.emplace_back(
            edge, std::vector<Term>{domain[rng.Below(domain.size())],
                                    domain[rng.Below(domain.size())]});
      }
    }
    std::vector<PredicateId> delta;
    for (const Atom& fact : batch) {
      if (db.Insert(fact)) delta.push_back(fact.predicate);
    }
    cache.InvalidateForDelta(program, db, delta);

    // The migrated warm cache must answer exactly like a cold search
    // over the grown database — this is the certainty contract the old
    // nuke-everything behavior enforced by brute force.
    std::vector<std::vector<Term>> with_warm_cache =
        CertainAnswersViaSearch(program, db, query, alternating, warm);
    std::vector<std::vector<Term>> from_cold =
        CertainAnswersViaSearch(program, db, query, alternating, cold);
    EXPECT_EQ(with_warm_cache, from_cold)
        << "round " << round << " seed " << seed << " alternating "
        << alternating;
  }
}

INSTANTIATE_TEST_SUITE_P(Streams, IncrementalEquivalence,
                         ::testing::Combine(::testing::Range<uint64_t>(1, 5),
                                            ::testing::Bool()));

class MemoIncrementalEquivalence
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

/// The rendered rows a fresh Reasoner over `program` gives for its
/// `index`-th query — the cold rerun the memo must agree with.
std::string ColdRows(const std::string& program, size_t index) {
  std::unique_ptr<Reasoner> reasoner = Reasoner::FromText(program);
  EXPECT_NE(reasoner, nullptr);
  JsonValue rows = JsonValue::Array();
  for (const std::vector<Term>& tuple : reasoner->Answer(index)) {
    JsonValue row = JsonValue::Array();
    for (Term t : tuple) {
      row.Append(
          JsonValue::String(reasoner->program().symbols().TermToString(t)));
    }
    rows.Append(std::move(row));
  }
  return rows.Dump();
}

TEST_P(MemoIncrementalEquivalence,
       MemoServedAnswersMatchColdRerunAtEveryPrefix) {
  auto [seed, nonlinear] = GetParam();
  Rng rng(seed);
  // Two pooled queries, so one fill serves a query it was not asked for.
  std::string program = std::string(nonlinear ? kNonLinearTc : kLinearTc) +
                        " ?(X, Y) :- t(X, Y).";
  SessionRegistry registry{SessionOptions{}};
  JsonValue load = JsonValue::Object();
  load.Set("cmd", JsonValue::String("LOAD_PROGRAM"));
  load.Set("session", JsonValue::String("s"));
  load.Set("program", JsonValue::String(program));
  ASSERT_TRUE(registry.HandleLine(load.Dump()).GetBool("ok"));

  auto check_prefix = [&](int round) {
    for (int pass = 0; pass < 2; ++pass) {  // the second pass hits
      for (int q = 0; q < 2; ++q) {
        JsonValue request = JsonValue::Object();
        request.Set("cmd", JsonValue::String("QUERY"));
        request.Set("session", JsonValue::String("s"));
        request.Set("query_index", JsonValue::Number(q));
        if (pass == 1) request.Set("engine", JsonValue::String("chase"));
        JsonValue response = registry.HandleLine(request.Dump());
        ASSERT_TRUE(response.GetBool("ok")) << response.Dump();
        EXPECT_TRUE(response.GetBool("complete"));
        EXPECT_EQ(response.Find("answers")->Dump(),
                  ColdRows(program, static_cast<size_t>(q)))
            << "round " << round << " query " << q << " seed " << seed;
      }
    }
  };
  check_prefix(-1);
  for (int round = 0; round < 8; ++round) {
    // Mostly fresh edges, sometimes a cone-disjoint tag, sometimes an
    // edge the database already holds (a duplicate-only batch must keep
    // the memo, and it must still be right).
    std::string batch;
    if (rng.Chance(0.2)) {
      batch = "e(v0, v1).";
    } else if (rng.Chance(0.25)) {
      batch = "tag(v" + std::to_string(rng.Below(6)) + ").";
    } else {
      for (size_t k = 0, count = 1 + rng.Below(2); k < count; ++k) {
        batch += "e(v" + std::to_string(rng.Below(6)) + ", v" +
                 std::to_string(rng.Below(6)) + "). ";
      }
    }
    JsonValue add = JsonValue::Object();
    add.Set("cmd", JsonValue::String("ADD_FACTS"));
    add.Set("session", JsonValue::String("s"));
    add.Set("facts", JsonValue::String(batch));
    ASSERT_TRUE(registry.HandleLine(add.Dump()).GetBool("ok"));
    program += " " + batch;
    check_prefix(round);
  }
  JsonValue stats = registry.HandleLine(R"({"cmd":"STATS","session":"s"})");
  const JsonValue* session = stats.Find("session");
  // At most one fill per database state (the load plus each batch); the
  // other 3 of each prefix's 4 queries were hits.
  EXPECT_LE(session->GetUint("answer_memo_misses"), 9u);
  EXPECT_GE(session->GetUint("answer_memo_hits"), 27u);
}

INSTANTIATE_TEST_SUITE_P(Streams, MemoIncrementalEquivalence,
                         ::testing::Combine(::testing::Values(uint64_t{1},
                                                              uint64_t{2},
                                                              uint64_t{3}),
                                            ::testing::Bool()));

TEST(IncrementalTest, GeneratedOntologyStreamStaysEquivalent) {
  // A second shape of stream: the OWL 2 QL program with generated
  // ontology facts, then random subclass insertions (which cone-cover
  // most of the schema) — the heavier cousin of the graph case above.
  Program program = MakeOwl2QlProgram();
  Rng rng(7);
  AddOntologyFacts(&program, /*num_classes=*/6, /*num_properties=*/2,
                   /*num_individuals=*/4, &rng);
  NormalizeToSingleHead(&program, nullptr);
  Instance db = DatabaseFromFacts(program.facts());
  PredicateId subclass = program.symbols().FindPredicate("subclass");
  PredicateId type = program.symbols().FindPredicate("type");
  // Anchored like the graph case: which classes is ind0 a member of?
  ConjunctiveQuery query;
  query.output = {Term::Variable(0)};
  query.atoms = {
      Atom(type, {program.symbols().InternConstant("ind0"),
                  Term::Variable(0)})};

  ProofSearchCache cache(program, db);
  ProofSearchOptions warm;
  warm.cache = &cache;
  for (int round = 0; round < 3; ++round) {
    Atom fact(subclass,
              {program.symbols().InternConstant(
                   "c" + std::to_string(rng.Below(6))),
               program.symbols().InternConstant(
                   "c" + std::to_string(rng.Below(6)))});
    std::vector<PredicateId> delta;
    if (db.Insert(fact)) delta.push_back(subclass);
    cache.InvalidateForDelta(program, db, delta);
    std::vector<std::vector<Term>> with_warm_cache = CertainAnswersViaSearch(
        program, db, query, /*use_alternating=*/false, warm);
    std::vector<std::vector<Term>> from_cold = CertainAnswersViaSearch(
        program, db, query, /*use_alternating=*/false);
    EXPECT_EQ(with_warm_cache, from_cold) << "round " << round;
  }
}

TEST(IncrementalTest, SymbolGenerationRollbackReleasesIds) {
  std::unique_ptr<Reasoner> reasoner =
      Reasoner::FromText("e(a, b). t(X, Y) :- e(X, Y).");
  ASSERT_NE(reasoner, nullptr);
  Term existing = reasoner->InternConstant("a");
  SymbolTable::Generation mark = reasoner->MarkSymbolGeneration();
  Term fresh = reasoner->InternConstant("speculative");
  ASSERT_GT(reasoner->MarkSymbolGeneration().constants, mark.constants);
  reasoner->RollbackSymbolGeneration(mark);
  EXPECT_EQ(reasoner->MarkSymbolGeneration().constants, mark.constants);
  // The released id is reusable: the next intern gets the same slot.
  EXPECT_EQ(reasoner->InternConstant("different"), fresh);
  // And existing names still resolve to their original ids.
  EXPECT_EQ(reasoner->InternConstant("a"), existing);
}

TEST(IncrementalTest, RepeatedFailingAddFactsKeepsSymbolTableFlat) {
  // The leak this PR fixes: every rejected batch used to leave its
  // freshly interned names behind forever. Fifty distinct failing
  // batches must not grow the table by a single symbol.
  SessionRegistry registry{SessionOptions{}};
  JsonValue load = JsonValue::Object();
  load.Set("cmd", JsonValue::String("LOAD_PROGRAM"));
  load.Set("session", JsonValue::String("s"));
  load.Set("program", JsonValue::String(kLinearTc));
  ASSERT_TRUE(registry.HandleLine(load.Dump()).GetBool("ok"));
  JsonValue stats = registry.HandleLine(R"({"cmd":"STATS","session":"s"})");
  uint64_t symbols = stats.Find("session")->GetUint("symbols");
  ASSERT_GT(symbols, 0u);

  for (int i = 0; i < 50; ++i) {
    JsonValue request = JsonValue::Object();
    request.Set("cmd", JsonValue::String("ADD_FACTS"));
    request.Set("session", JsonValue::String("s"));
    // Fresh names every time, then a clause that sinks the batch.
    request.Set("facts", JsonValue::String(
                             "leak" + std::to_string(i) + "(n" +
                             std::to_string(i) + "). e(unclosed"));
    JsonValue response = registry.HandleLine(request.Dump());
    ASSERT_EQ(response.Find("error")->GetString("code"), "EPARSE");
    stats = registry.HandleLine(R"({"cmd":"STATS","session":"s"})");
    ASSERT_EQ(stats.Find("session")->GetUint("symbols"), symbols)
        << "batch " << i << " leaked symbols";
  }
}

TEST(IncrementalTest, ExplainWithUnknownConstantsDoesNotGrowSymbols) {
  // EXPLAIN against a never-seen constant is decidedly not-certain (the
  // chase introduces no new constants), so the speculative interning of
  // the probe name is rolled back instead of accumulating.
  SessionRegistry registry{SessionOptions{}};
  JsonValue load = JsonValue::Object();
  load.Set("cmd", JsonValue::String("LOAD_PROGRAM"));
  load.Set("session", JsonValue::String("s"));
  load.Set("program", JsonValue::String(
                          "t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z). "
                          "e(a, b). e(b, c). ?(X) :- t(a, X)."));
  ASSERT_TRUE(registry.HandleLine(load.Dump()).GetBool("ok"));
  JsonValue stats = registry.HandleLine(R"({"cmd":"STATS","session":"s"})");
  uint64_t symbols = stats.Find("session")->GetUint("symbols");

  for (int i = 0; i < 20; ++i) {
    JsonValue probe = registry.HandleLine(
        R"({"cmd":"EXPLAIN","session":"s","query_index":0,)"
        R"("answer":["probe)" +
        std::to_string(i) + R"("]})");
    ASSERT_TRUE(probe.GetBool("ok")) << probe.Dump();
    EXPECT_FALSE(probe.GetBool("certain", true));
  }
  stats = registry.HandleLine(R"({"cmd":"STATS","session":"s"})");
  EXPECT_EQ(stats.Find("session")->GetUint("symbols"), symbols);

  // Known constants still explain normally after all that probing.
  JsonValue proof = registry.HandleLine(
      R"({"cmd":"EXPLAIN","session":"s","query_index":0,"answer":["c"]})");
  ASSERT_TRUE(proof.GetBool("ok")) << proof.Dump();
  EXPECT_TRUE(proof.GetBool("certain"));
}

}  // namespace
}  // namespace vadalog
