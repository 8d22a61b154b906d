// LintDriver: every check of the analysis/lint.h catalog fires at the
// right source location with the right witness; the renderers emit
// well-formed JSON/SARIF; and on generated programs the lint driver's
// fragment diagnostics agree with ClassifyProgram (the wardedness and
// PWL witnesses are recomputed independently of the classification bit,
// so agreement is a real property, not a tautology).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analysis/classify.h"
#include "analysis/diagnostics.h"
#include "analysis/lint.h"
#include "ast/parser.h"
#include "gen/generators.h"
#include "server/json.h"

namespace vadalog {
namespace {

const Diagnostic* FindDiagnostic(const LintResult& result,
                                 const std::string& id) {
  for (const Diagnostic& d : result.file.diagnostics) {
    if (d.id == id) return &d;
  }
  return nullptr;
}

size_t CountDiagnostic(const LintResult& result, const std::string& id) {
  return static_cast<size_t>(
      std::count_if(result.file.diagnostics.begin(),
                    result.file.diagnostics.end(),
                    [&id](const Diagnostic& d) { return d.id == id; }));
}

const std::string* WitnessValue(const Diagnostic& d, const std::string& key) {
  for (const auto& [k, v] : d.witness) {
    if (k == key) return &v;
  }
  return nullptr;
}

// --- source locations from the parser ---

TEST(LintTest, ParserRecordsRuleAtomAndQueryLocations) {
  ParseResult parsed = ParseProgram(
      "t(X, Y) :- e(X, Y).\n"
      "  t(X, Z) :- e(X, Y), t(Y, Z).\n"
      "e(a, b).\n"
      "?(X) :- t(a, X).\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const Program& program = *parsed.program;
  ASSERT_EQ(program.tgds().size(), 2u);
  EXPECT_EQ(program.tgds()[0].loc, (SourceLoc{1, 1}));
  EXPECT_EQ(program.tgds()[0].body[0].loc, (SourceLoc{1, 12}));
  EXPECT_EQ(program.tgds()[1].loc, (SourceLoc{2, 3}));
  EXPECT_EQ(program.tgds()[1].body[1].loc, (SourceLoc{2, 23}));
  ASSERT_EQ(program.facts().size(), 1u);
  EXPECT_EQ(program.facts()[0].loc, (SourceLoc{3, 1}));
  ASSERT_EQ(program.queries().size(), 1u);
  EXPECT_EQ(program.queries()[0].loc, (SourceLoc{4, 1}));
  EXPECT_EQ(program.queries()[0].atoms[0].loc, (SourceLoc{4, 9}));
  // Surface names survive into the diagnostics-only side tables.
  ASSERT_NE(program.tgds()[1].var_names, nullptr);
  EXPECT_EQ(VariableName(program.tgds()[1].var_names, Term::Variable(0)),
            "X");
}

TEST(LintTest, ParseErrorsCarryTheFailureLocation) {
  ParseResult parsed = ParseProgram("t(X, Y) :- e(X Y).\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error_loc.line, 1u);
  EXPECT_EQ(parsed.error_loc.column, 16u);
}

// --- V001 / V002: parse stage ---

TEST(LintTest, V001ParseErrorIsLocatedAndFatal) {
  LintResult result = LintSource("p(a).\nq(X :- p(X).\n", "bad.vada");
  ASSERT_EQ(result.file.diagnostics.size(), 1u);
  const Diagnostic& d = result.file.diagnostics[0];
  EXPECT_EQ(d.id, "V001");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.loc.line, 2u);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.classification.has_value());
}

TEST(LintTest, V002ArityOverflowIsItsOwnDiagnostic) {
  std::string program = "p(";
  for (size_t i = 0; i <= kMaxArity; ++i) {  // 65536 arguments: one too many
    if (i > 0) program += ", ";
    program += "a";
  }
  program += ").\n";
  LintResult result = LintSource(program, "wide.vada");
  ASSERT_EQ(result.file.diagnostics.size(), 1u);
  const Diagnostic& d = result.file.diagnostics[0];
  EXPECT_EQ(d.id, "V002");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.loc, (SourceLoc{1, 1}));
  EXPECT_NE(d.message.find("65536"), std::string::npos);
}

TEST(LintTest, SymbolTableRejectsUnpackableArity) {
  SymbolTable symbols;
  EXPECT_EQ(symbols.InternPredicate("wide", kMaxArity + 1),
            kInvalidPredicate);
  EXPECT_NE(symbols.InternPredicate("wide", kMaxArity), kInvalidPredicate);
}

// --- V003: unstratified negation ---

TEST(LintTest, V003ReportsTheNegationCycle) {
  LintResult result = LintSource(
      "p(X) :- e(X).\n"
      "p(X) :- e(X), not q(X).\n"
      "q(X) :- p(X).\n"
      "?(X) :- p(X).\n",
      "unstratified.vada");
  const Diagnostic* d = FindDiagnostic(result, "V003");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->loc, (SourceLoc{2, 19}));  // the negated atom
  const std::string* cycle = WitnessValue(*d, "cycle");
  ASSERT_NE(cycle, nullptr);
  EXPECT_EQ(*cycle, "p -> q -[not]-> p");
  EXPECT_FALSE(result.ok());
}

// --- V004: unsupported fragment ---

TEST(LintTest, V004FlagsNegationOutsideDatalogAsWarningOnly) {
  LintResult result = LintSource(
      "p(a).\n"
      "e(a, b).\n"
      "r(X, Z) :- p(X).\n"
      "t(X) :- e(X, Y), not r(X, Y).\n"
      "?(X) :- t(X).\n",
      "unsupported.vada");
  const Diagnostic* d = FindDiagnostic(result, "V004");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->loc, (SourceLoc{4, 22}));
  // Deliberately unservable yet shipped as an example: must stay below
  // error severity so `vadalog_lint examples/programs/*` exits 0.
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(FindDiagnostic(result, "V003"), nullptr);  // it IS stratified
}

// --- V101: wardedness witnesses ---

TEST(LintTest, V101ExplainsTheNonWardedRule) {
  LintResult result = LintSource(
      "p(Y) :- t(X, X).\n"
      "q(Y) :- t(X, X).\n"
      "h(X, Y) :- p(X), q(Y).\n",
      "nonwarded.vada");
  ASSERT_EQ(CountDiagnostic(result, "V101"), 1u);
  const Diagnostic* d = FindDiagnostic(result, "V101");
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->loc, (SourceLoc{3, 1}));
  EXPECT_NE(d->message.find("'X', 'Y'"), std::string::npos);
  const std::string* x = WitnessValue(*d, "dangerous:X");
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(*x, "all body occurrences affected: p[0]");
  const std::string* y = WitnessValue(*d, "dangerous:Y");
  ASSERT_NE(y, nullptr);
  EXPECT_EQ(*y, "all body occurrences affected: q[0]");
  // Both body atoms fail as wards for the same reason: each misses one
  // of the two dangerous variables.
  EXPECT_EQ(*WitnessValue(*d, "body[0]"), "misses a dangerous variable");
  EXPECT_EQ(*WitnessValue(*d, "body[1]"), "misses a dangerous variable");
  ASSERT_TRUE(result.classification.has_value());
  EXPECT_FALSE(result.classification->warded);
}

TEST(LintTest, V101ReportsTheSharedNonHarmlessVariable) {
  // In rule 3, Z is the only dangerous variable (q[1] is affected through
  // W); the candidate q(Y, Z) contains it but shares the harmful Y (all
  // occurrences affected: p[1], q[0]) with the rest of the body.
  LintResult result = LintSource(
      "p(X, Y) :- s(X).\n"
      "q(Y, W) :- p(X, Y), s(X).\n"
      "h(Z) :- p(X, Y), q(Y, Z), s(X).\n",
      "shared.vada");
  const Diagnostic* d = FindDiagnostic(result, "V101");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->loc.line, 3u);
  bool saw_shares = false;
  for (const auto& [key, value] : d->witness) {
    if (value.find("shares non-harmless") != std::string::npos) {
      saw_shares = true;
      EXPECT_NE(value.find("'Y'"), std::string::npos) << value;
    }
  }
  EXPECT_TRUE(saw_shares);
}

// --- V102: fragment downgrade ---

TEST(LintTest, V102NotesNonLinearRecursionWithTheOffendingRule) {
  LintResult result = LintSource(
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Z) :- t(X, Y), t(Y, Z).\n",
      "tc.vada");
  const Diagnostic* d = FindDiagnostic(result, "V102");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kNote);
  EXPECT_EQ(d->loc, (SourceLoc{2, 1}));
  EXPECT_EQ(*WitnessValue(*d, "recursive-body-atoms"), "2");
  ASSERT_TRUE(result.classification.has_value());
  EXPECT_EQ(*WitnessValue(*d, "bucket"),
            result.classification->RecursionBucket());
  EXPECT_TRUE(result.ok());  // notes and warnings never fail the lint
}

// --- V201 / V202: variable hygiene ---

TEST(LintTest, V201FlagsBodySingletonsButNotExistentials) {
  LintResult result = LintSource(
      "control(X, Y) :- owns(X, Y).\n"
      "filing(Y, W) :- control(X, Y).\n",
      "singleton.vada");
  ASSERT_EQ(CountDiagnostic(result, "V201"), 1u);
  const Diagnostic* d = FindDiagnostic(result, "V201");
  EXPECT_EQ(d->loc, (SourceLoc{2, 17}));  // the control(X, Y) body atom
  EXPECT_NE(d->message.find("'X'"), std::string::npos);
  // W is existential (head-only): intentional, never a singleton.
  EXPECT_EQ(d->message.find("'W'"), std::string::npos);
}

TEST(LintTest, V201SkipsWildcardsAndSyntheticRules) {
  LintResult with_wildcard = LintSource(
      "t(X) :- e(X, _).\n", "wildcard.vada");
  EXPECT_EQ(CountDiagnostic(with_wildcard, "V201"), 0u);

  // Synthetic programs carry no variable names; the check stays silent
  // instead of flagging every projection in generated rule sets.
  Program program;
  PredicateId e = program.symbols().InternPredicate("e", 2);
  PredicateId t = program.symbols().InternPredicate("t", 1);
  Tgd tgd;
  tgd.body.push_back(Atom(e, {Term::Variable(0), Term::Variable(1)}));
  tgd.head.push_back(Atom(t, {Term::Variable(0)}));
  program.AddTgd(std::move(tgd));
  LintResult synthetic = LintProgram(program, "<synthetic>");
  EXPECT_EQ(CountDiagnostic(synthetic, "V201"), 0u);
}

TEST(LintTest, V202FlagsUnboundQueryOutputs) {
  LintResult result = LintSource(
      "p(a).\n"
      "?(X, Y) :- p(X).\n",
      "unsafe.vada");
  ASSERT_EQ(CountDiagnostic(result, "V202"), 1u);
  const Diagnostic* d = FindDiagnostic(result, "V202");
  EXPECT_EQ(d->loc, (SourceLoc{2, 1}));
  EXPECT_NE(d->message.find("'Y'"), std::string::npos);
}

// --- V301 / V302: dead predicates ---

TEST(LintTest, V301FlagsWriteOnlyPredicatesOnlyWhenQueriesExist) {
  const char* text =
      "t(X) :- e(X).\n"
      "dead(X) :- e(X).\n"
      "e(a).\n";
  LintResult no_query = LintSource(text, "noquery.vada");
  EXPECT_EQ(CountDiagnostic(no_query, "V301"), 0u);

  LintResult with_query =
      LintSource(std::string(text) + "?(X) :- t(X).\n", "query.vada");
  ASSERT_EQ(CountDiagnostic(with_query, "V301"), 1u);
  const Diagnostic* d = FindDiagnostic(with_query, "V301");
  EXPECT_EQ(d->loc, (SourceLoc{2, 1}));
  EXPECT_NE(d->message.find("dead/1"), std::string::npos);
}

TEST(LintTest, V302FlagsBaselessRecursion) {
  LintResult result = LintSource(
      "p(X) :- q(X).\n"
      "q(X) :- p(X).\n"
      "e(a).\n"
      "?(X) :- p(X), e(X).\n",
      "baseless.vada");
  EXPECT_EQ(CountDiagnostic(result, "V302"), 2u);
  const Diagnostic* d = FindDiagnostic(result, "V302");
  EXPECT_EQ(d->loc, (SourceLoc{1, 1}));
  EXPECT_NE(d->message.find("p/1"), std::string::npos);
  // Extensional predicates without facts in this file are NOT flagged:
  // the daemon may ADD_FACTS them later.
  LintResult edb = LintSource("t(X) :- e(X).\n?(X) :- t(X).\n", "edb.vada");
  EXPECT_EQ(CountDiagnostic(edb, "V302"), 0u);
}

// --- V401 / V402: redundant rules ---

TEST(LintTest, V401CatchesDuplicatesUpToRenaming) {
  LintResult result = LintSource(
      "t(X, Y) :- e(X, Y).\n"
      "t(A, B) :- e(A, B).\n",
      "dup.vada");
  ASSERT_EQ(CountDiagnostic(result, "V401"), 1u);
  const Diagnostic* d = FindDiagnostic(result, "V401");
  EXPECT_EQ(d->loc, (SourceLoc{2, 1}));
  EXPECT_EQ(*WitnessValue(*d, "first-occurrence"), "line 1");
  EXPECT_EQ(CountDiagnostic(result, "V402"), 0u);  // duplicates aren't both
}

TEST(LintTest, V402CatchesStrictSubsumption) {
  LintResult result = LintSource(
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Y) :- e(X, Y), s(X, X).\n",
      "subsumed.vada");
  ASSERT_EQ(CountDiagnostic(result, "V402"), 1u);
  const Diagnostic* d = FindDiagnostic(result, "V402");
  EXPECT_EQ(d->loc, (SourceLoc{2, 1}));
  EXPECT_EQ(*WitnessValue(*d, "subsumed-by"), "line 1");

  // Distinct recursion shapes must NOT be collapsed: the linear and the
  // non-linear transitive-closure rules subsume nothing.
  LintResult tc = LintSource(
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Z) :- e(X, Y), t(Y, Z).\n",
      "tc.vada");
  EXPECT_EQ(CountDiagnostic(tc, "V402"), 0u);
}

// Two rules that subsume each other are one redundancy, not two: only
// the later (or the longer) is reported, so following every warning
// still keeps one copy of the recursion.
TEST(LintTest, MutuallySubsumingRulesAreReportedOnce) {
  LintResult reordered = LintSource(
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Z) :- e(X, Y), t(Y, Z).\n"
      "t(X, Z) :- t(Y, Z), e(X, Y).\n",
      "reordered.vada");
  EXPECT_EQ(CountDiagnostic(reordered, "V402"), 0u);
  ASSERT_EQ(CountDiagnostic(reordered, "V401"), 1u);
  EXPECT_EQ(FindDiagnostic(reordered, "V401")->loc, (SourceLoc{3, 1}));

  LintResult redundant = LintSource(
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Z) :- e(X, Y), t(Y, Z), e(X, W).\n"
      "t(X, Z) :- e(X, Y), t(Y, Z).\n",
      "redundant.vada");
  EXPECT_EQ(CountDiagnostic(redundant, "V401"), 0u);
  ASSERT_EQ(CountDiagnostic(redundant, "V402"), 1u);
  const Diagnostic* d = FindDiagnostic(redundant, "V402");
  EXPECT_EQ(d->loc, (SourceLoc{2, 1}));
  EXPECT_EQ(*WitnessValue(*d, "subsumed-by"), "line 3");
}

// --- shipped examples stay clean ---

TEST(LintTest, CheckCatalogIsSortedAndComplete) {
  const std::vector<CheckInfo>& catalog = CheckCatalog();
  ASSERT_FALSE(catalog.empty());
  for (size_t i = 1; i < catalog.size(); ++i) {
    EXPECT_LT(catalog[i - 1].id, catalog[i].id);
  }
  EXPECT_NE(FindCheck("V101"), nullptr);
  EXPECT_EQ(FindCheck("V999"), nullptr);
  EXPECT_EQ(FindCheck("V001")->severity, Severity::kError);
  EXPECT_EQ(FindCheck("V102")->severity, Severity::kNote);
}

// --- renderers ---

TEST(LintTest, TextRenderingAnchorsACaretUnderTheColumn) {
  LintResult result = LintSource(
      "t(X, Y) :- e(X, Y).\n"
      "t(A, B) :- e(A, B).\n",
      "dup.vada");
  std::string text = RenderText(result.file);
  EXPECT_NE(text.find("dup.vada:2:1: warning: V401 duplicate-rule"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("    t(A, B) :- e(A, B).\n    ^\n"),
            std::string::npos)
      << text;
}

TEST(LintTest, JsonRenderingIsWellFormedAndCounted) {
  LintResult result = LintSource(
      "p(X) :- e(X), not q(X).\nq(X) :- p(X).\n?(X) :- p(X).\n",
      "bad.vada");
  std::string json = RenderJson({result.file});
  std::string error;
  std::optional<JsonValue> parsed = JsonValue::Parse(json, &error);
  ASSERT_TRUE(parsed.has_value()) << error << "\n" << json;
  EXPECT_EQ(parsed->GetUint("errors"), 1u);  // the V003
  const JsonValue* files = parsed->Find("files");
  ASSERT_NE(files, nullptr);
  ASSERT_EQ(files->Items().size(), 1u);
  const JsonValue& first = files->Items()[0].Find("diagnostics")->Items()[0];
  EXPECT_EQ(first.GetString("id"), "V003");
  EXPECT_EQ(first.GetUint("line"), 1u);
}

TEST(LintTest, SarifRenderingCarriesRulesAndRegions) {
  LintResult result = LintSource("t(X, Y) :- e(X Y).\n", "broken.vada");
  std::string sarif = RenderSarif({result.file});
  std::string error;
  std::optional<JsonValue> parsed = JsonValue::Parse(sarif, &error);
  ASSERT_TRUE(parsed.has_value()) << error << "\n" << sarif;
  EXPECT_EQ(parsed->GetString("version"), "2.1.0");
  const JsonValue& run = parsed->Find("runs")->Items()[0];
  const JsonValue* rules = run.Find("tool")->Find("driver")->Find("rules");
  ASSERT_NE(rules, nullptr);
  EXPECT_EQ(rules->Items().size(), CheckCatalog().size());
  const JsonValue& item = run.Find("results")->Items()[0];
  EXPECT_EQ(item.GetString("ruleId"), "V001");
  EXPECT_EQ(item.GetString("level"), "error");
  const JsonValue& region = *item.Find("locations")
                                 ->Items()[0]
                                 .Find("physicalLocation")
                                 ->Find("region");
  EXPECT_EQ(region.GetUint("startLine"), 1u);
  EXPECT_EQ(region.GetUint("startColumn"), 16u);
}

TEST(LintTest, JsonEscapingCoversControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd\te\x01" "f"),
            "a\\\"b\\\\c\\nd\\te\\u0001f");
}

// --- agreement with ClassifyProgram on generated programs ---

TEST(LintTest, FragmentDiagnosticsAgreeWithClassifierOnGeneratedPrograms) {
  const RecursionShape shapes[] = {
      RecursionShape::kLinear, RecursionShape::kPiecewiseLinear,
      RecursionShape::kLinearizable, RecursionShape::kNonLinear};
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    ScenarioSpec spec;
    spec.shape = shapes[seed % 4];
    spec.num_strata = 1 + static_cast<uint32_t>(seed % 3);
    spec.with_existentials = (seed % 2) == 0;
    spec.seed = seed;
    Program program = GenerateScenario(spec);
    ProgramClassification cls = ClassifyProgram(program);
    LintResult lint = LintProgram(program, "<generated>");

    bool has_v101 = FindDiagnostic(lint, "V101") != nullptr;
    EXPECT_EQ(has_v101, !cls.warded) << "seed " << seed;
    const Diagnostic* v102 = FindDiagnostic(lint, "V102");
    EXPECT_EQ(v102 != nullptr, cls.warded && !cls.piecewise_linear)
        << "seed " << seed;
    if (v102 != nullptr) {
      const std::string* bucket = WitnessValue(*v102, "bucket");
      ASSERT_NE(bucket, nullptr);
      EXPECT_EQ(*bucket, cls.RecursionBucket()) << "seed " << seed;
    }
    // The generators never emit negation, so the negation checks must
    // stay silent; every reported id must be catalogued with the
    // catalogue's severity.
    EXPECT_EQ(FindDiagnostic(lint, "V003"), nullptr) << "seed " << seed;
    EXPECT_EQ(FindDiagnostic(lint, "V004"), nullptr) << "seed " << seed;
    for (const Diagnostic& d : lint.file.diagnostics) {
      const CheckInfo* info = FindCheck(d.id);
      ASSERT_NE(info, nullptr) << d.id;
      EXPECT_EQ(d.severity, info->severity) << d.id;
    }
  }
}

}  // namespace
}  // namespace vadalog
