// Golden tests for the vadalogd wire protocol: the JSON layer, request
// parsing with structured errors, and the SessionRegistry dispatcher
// driven exactly as the socket server drives it (HandleLine), without
// sockets — so the same paths run under ASan/TSan in ctest.

#include <gtest/gtest.h>

#include <atomic>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "server/json.h"
#include "server/protocol.h"
#include "server/session.h"
#include "vadalog/reasoner.h"

namespace vadalog {
namespace {

constexpr const char* kReachProgram =
    "t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z). "
    "e(a, b). e(b, c). ?(X) :- t(a, X).";

std::string LoadLine(const std::string& session,
                     const std::string& program = kReachProgram) {
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::String("LOAD_PROGRAM"));
  request.Set("session", JsonValue::String(session));
  request.Set("program", JsonValue::String(program));
  return request.Dump();
}

// --- JSON layer ---

TEST(JsonTest, ParsesAndDumpsRoundTrip) {
  std::string error;
  std::optional<JsonValue> value = JsonValue::Parse(
      R"({"a":[1,2.5,-3],"b":"x\ny","c":{"d":true,"e":null},"f":false})",
      &error);
  ASSERT_TRUE(value.has_value()) << error;
  std::string dumped = value->Dump();
  std::optional<JsonValue> again = JsonValue::Parse(dumped, &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->Dump(), dumped);
  EXPECT_EQ(value->Find("a")->Items().size(), 3u);
  EXPECT_EQ(value->GetString("b"), "x\ny");
  EXPECT_TRUE(value->Find("c")->Find("d")->AsBool());
}

TEST(JsonTest, HandlesEscapesAndSurrogatePairs) {
  std::string error;
  std::optional<JsonValue> value =
      JsonValue::Parse(R"("é€😀\t")", &error);
  ASSERT_TRUE(value.has_value()) << error;
  EXPECT_EQ(value->AsString(), "\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80\t");
  // Dump must escape control characters so the line framing survives.
  EXPECT_EQ(JsonValue::String("a\nb\"c").Dump(), R"("a\nb\"c")");
}

TEST(JsonTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2",
        "{\"a\":1,}", "\"bad \\q escape\"", "\"lone \\ud800 surrogate\"",
        "nan", "--1"}) {
    std::string error;
    EXPECT_FALSE(JsonValue::Parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(JsonTest, RejectsHostileNesting) {
  std::string bomb(1000, '[');
  bomb += std::string(1000, ']');
  std::string error;
  EXPECT_FALSE(JsonValue::Parse(bomb, &error).has_value());
}

TEST(JsonTest, IntegralNumbersDumpWithoutFraction) {
  EXPECT_EQ(JsonValue::Number(uint64_t{42}).Dump(), "42");
  EXPECT_EQ(JsonValue::Number(0.5).Dump(), "0.5");
}

// --- request parsing ---

TEST(ProtocolTest, ParsesQueryRequestWithBudgets) {
  protocol::Error error;
  JsonValue id;
  std::optional<protocol::Request> request = protocol::ParseRequest(
      R"({"v":1,"id":7,"cmd":"QUERY","session":"s","query":"?(X) :- t(a, X).",)"
      R"("engine":"linear","max_states":100,"max_millis":50,"threads":2})",
      &error, &id);
  ASSERT_TRUE(request.has_value()) << error.message;
  EXPECT_EQ(request->cmd, protocol::Command::kQuery);
  EXPECT_EQ(request->session, "s");
  EXPECT_EQ(request->engine, "linear");
  EXPECT_EQ(request->max_states, 100u);
  EXPECT_EQ(request->max_millis, 50u);
  EXPECT_EQ(id.AsNumber(), 7.0);
}

// A present-but-malformed budget is a request error (EBADREQ), never a
// silent fall-back to "unlimited" — and never an undefined-behavior cast
// of a negative / huge / fractional double to an unsigned integer.
TEST(ProtocolTest, MalformedBudgetsAreRejectedNotDefaulted) {
  const char* kBad[] = {
      R"({"cmd":"QUERY","session":"s","query_index":0,"max_states":-1})",
      R"({"cmd":"QUERY","session":"s","query_index":0,"max_states":1e300})",
      R"({"cmd":"QUERY","session":"s","query_index":0,"max_states":2.5})",
      R"({"cmd":"QUERY","session":"s","query_index":0,"max_states":"50"})",
      R"({"cmd":"QUERY","session":"s","query_index":0,"max_millis":-3})",
      R"({"cmd":"QUERY","session":"s","query_index":-1})",
      R"({"cmd":"QUERY","session":"s","query_index":1e300})",
      R"({"cmd":"QUERY","session":"s","query_index":0.5})",
  };
  for (const char* line : kBad) {
    protocol::Error error;
    JsonValue id;
    EXPECT_FALSE(protocol::ParseRequest(line, &error, &id).has_value())
        << line;
    EXPECT_EQ(error.code, "EBADREQ") << line;
  }
  // Valid and absent budgets still parse (absent = engine defaults).
  protocol::Error error;
  JsonValue id;
  std::optional<protocol::Request> ok = protocol::ParseRequest(
      R"({"cmd":"QUERY","session":"s","query_index":0,"max_states":9e15})",
      &error, &id);
  ASSERT_TRUE(ok.has_value()) << error.message;
  EXPECT_EQ(ok->max_states, 9000000000000000ull);
  std::optional<protocol::Request> absent = protocol::ParseRequest(
      R"({"cmd":"QUERY","session":"s","query_index":0})", &error, &id);
  ASSERT_TRUE(absent.has_value()) << error.message;
  EXPECT_EQ(absent->max_states, 0u);
  EXPECT_EQ(absent->max_millis, 0u);
}

TEST(ProtocolTest, StructuredErrorsCarryStableCodes) {
  struct Case {
    const char* line;
    const char* code;
  };
  for (const Case& c : std::initializer_list<Case>{
           {"no json at all", "EPROTO"},
           {"[1,2,3]", "EPROTO"},
           {R"({"cmd":"QUERY"})", "EBADREQ"},          // missing session
           {R"({"cmd":"FROBNICATE","session":"s"})", "ECMD"},
           {R"({"v":0,"cmd":"PING"})", "EVERSION"},
           {R"({"v":3,"cmd":"PING"})", "EVERSION"},
           {R"({"cmd":"HELLO","max_version":0})", "EVERSION"},
           {R"({"cmd":"HELLO","max_version":"two"})", "EBADREQ"},
           {R"({"cmd":"HELLO","encodings":"binary"})", "EBADREQ"},
           {R"({"cmd":"LOAD_PROGRAM","session":"s"})", "EBADREQ"},
           {R"({"cmd":"QUERY","session":"s"})", "EBADREQ"},
           {R"({"cmd":"QUERY","session":"s","query_index":0,)"
            R"("engine":"warp"})",
            "EBADREQ"},
           {R"({"cmd":"EXPLAIN","session":"s","query_index":0})", "EBADREQ"},
       }) {
    protocol::Error error;
    JsonValue id;
    EXPECT_FALSE(protocol::ParseRequest(c.line, &error, &id).has_value())
        << c.line;
    EXPECT_EQ(error.code, c.code) << c.line;
    EXPECT_FALSE(error.message.empty());
  }
}

TEST(ProtocolTest, ErrorResponsesEchoTheRequestId) {
  SessionRegistry registry{SessionOptions{}};
  JsonValue response =
      registry.HandleLine(R"({"id":"abc","cmd":"QUERY","session":"gone",)"
                          R"("query_index":0})");
  EXPECT_FALSE(response.GetBool("ok"));
  EXPECT_EQ(response.GetString("id"), "abc");
  EXPECT_EQ(response.Find("error")->GetString("code"), "ENOSESSION");
}

// --- registry dispatch (golden flows) ---

TEST(ProtocolTest, MalformedJsonGetsEprotoResponse) {
  SessionRegistry registry{SessionOptions{}};
  JsonValue response = registry.HandleLine("{not json");
  EXPECT_FALSE(response.GetBool("ok"));
  EXPECT_EQ(response.Find("error")->GetString("code"), "EPROTO");
}

TEST(ProtocolTest, UnknownSessionIsStructured) {
  SessionRegistry registry{SessionOptions{}};
  JsonValue response = registry.HandleLine(
      R"({"cmd":"QUERY","session":"nope","query_index":0})");
  EXPECT_FALSE(response.GetBool("ok"));
  EXPECT_EQ(response.Find("error")->GetString("code"), "ENOSESSION");
}

TEST(ProtocolTest, LoadQueryUnloadLifecycle) {
  SessionRegistry registry{SessionOptions{}};
  JsonValue loaded = registry.HandleLine(LoadLine("s"));
  ASSERT_TRUE(loaded.GetBool("ok")) << loaded.Dump();
  EXPECT_EQ(loaded.GetUint("rules"), 2u);
  EXPECT_EQ(loaded.GetUint("facts"), 2u);
  EXPECT_TRUE(loaded.Find("classification")->GetBool("warded"));

  // Loading again without replace is EEXISTS; with replace it works.
  JsonValue dup = registry.HandleLine(LoadLine("s"));
  EXPECT_EQ(dup.Find("error")->GetString("code"), "EEXISTS");
  JsonValue replaced = registry.HandleLine(
      R"({"cmd":"LOAD_PROGRAM","session":"s","replace":true,"program":)" +
      JsonValue::String(kReachProgram).Dump() + "}");
  EXPECT_TRUE(replaced.GetBool("ok")) << replaced.Dump();

  JsonValue answer = registry.HandleLine(
      R"({"cmd":"QUERY","session":"s","query_index":0})");
  ASSERT_TRUE(answer.GetBool("ok")) << answer.Dump();
  ASSERT_EQ(answer.Find("answers")->Items().size(), 2u);  // b, c
  EXPECT_TRUE(answer.GetBool("complete"));

  JsonValue unloaded =
      registry.HandleLine(R"({"cmd":"UNLOAD","session":"s"})");
  EXPECT_TRUE(unloaded.GetBool("ok"));
  EXPECT_EQ(registry.session_count(), 0u);
  JsonValue after = registry.HandleLine(
      R"({"cmd":"QUERY","session":"s","query_index":0})");
  EXPECT_EQ(after.Find("error")->GetString("code"), "ENOSESSION");
}

TEST(ProtocolTest, InlineQueryTextAndAddFacts) {
  SessionRegistry registry{SessionOptions{}};
  ASSERT_TRUE(registry.HandleLine(LoadLine("s")).GetBool("ok"));

  JsonValue before = registry.HandleLine(
      R"({"cmd":"QUERY","session":"s","query":"?(X) :- t(X, c)."})");
  ASSERT_TRUE(before.GetBool("ok")) << before.Dump();
  EXPECT_EQ(before.Find("answers")->Items().size(), 2u);  // a, b

  JsonValue added = registry.HandleLine(
      R"({"cmd":"ADD_FACTS","session":"s","facts":"e(c, d). e(x, c)."})");
  ASSERT_TRUE(added.GetBool("ok")) << added.Dump();
  EXPECT_EQ(added.GetUint("added"), 2u);

  JsonValue after = registry.HandleLine(
      R"({"cmd":"QUERY","session":"s","query":"?(X) :- t(X, c)."})");
  ASSERT_TRUE(after.GetBool("ok")) << after.Dump();
  EXPECT_EQ(after.Find("answers")->Items().size(), 3u);  // a, b, x

  // Rules masquerading as facts are rejected atomically.
  JsonValue bad = registry.HandleLine(
      R"({"cmd":"ADD_FACTS","session":"s","facts":"t(X, Y) :- e(Y, X)."})");
  EXPECT_EQ(bad.Find("error")->GetString("code"), "EPARSE");
}

TEST(ProtocolTest, BudgetExhaustedQueryReportsIncomplete) {
  SessionRegistry registry{SessionOptions{}};
  ASSERT_TRUE(registry.HandleLine(LoadLine("s")).GetBool("ok"));
  JsonValue response = registry.HandleLine(
      R"({"cmd":"QUERY","session":"s","query_index":0,"engine":"linear",)"
      R"("max_states":1})");
  ASSERT_TRUE(response.GetBool("ok")) << response.Dump();
  EXPECT_FALSE(response.GetBool("complete", true));
  EXPECT_GT(response.GetUint("budget_exhausted_candidates"), 0u);
}

// "threads" is no longer a request field (proof searches are sequential);
// like any unknown field it is ignored, so older clients keep working.
TEST(ProtocolTest, RetiredThreadsFieldIsIgnored) {
  SessionRegistry registry{SessionOptions{}};
  ASSERT_TRUE(registry.HandleLine(LoadLine("s")).GetBool("ok"));
  for (const char* engine : {"linear", "alternating"}) {
    std::string query = R"({"cmd":"QUERY","session":"s","query_index":0,)";
    query += R"("engine":")" + std::string(engine) + "\"";
    JsonValue plain = registry.HandleLine(query + "}");
    JsonValue threaded = registry.HandleLine(query + R"(,"threads":2})");
    ASSERT_TRUE(plain.GetBool("ok")) << plain.Dump();
    ASSERT_TRUE(threaded.GetBool("ok")) << threaded.Dump();
    EXPECT_EQ(threaded.Find("answers")->Dump(), plain.Find("answers")->Dump())
        << engine;
    EXPECT_EQ(threaded.GetBool("complete"), plain.GetBool("complete"))
        << engine;
    EXPECT_EQ(plain.Find("answers")->Items().size(), 2u) << engine;
  }
}

TEST(ProtocolTest, ExplainReturnsAProofForCertainAnswersOnly) {
  SessionRegistry registry{SessionOptions{}};
  ASSERT_TRUE(registry.HandleLine(LoadLine("s")).GetBool("ok"));
  JsonValue proof = registry.HandleLine(
      R"({"cmd":"EXPLAIN","session":"s","query_index":0,"answer":["c"]})");
  ASSERT_TRUE(proof.GetBool("ok")) << proof.Dump();
  EXPECT_TRUE(proof.GetBool("certain"));
  EXPECT_NE(proof.GetString("proof"), "");

  JsonValue refuted = registry.HandleLine(
      R"({"cmd":"EXPLAIN","session":"s","query_index":0,"answer":["a"]})");
  ASSERT_TRUE(refuted.GetBool("ok")) << refuted.Dump();
  EXPECT_FALSE(refuted.GetBool("certain", true));

  JsonValue arity = registry.HandleLine(
      R"({"cmd":"EXPLAIN","session":"s","query_index":0,)"
      R"("answer":["a","b"]})");
  EXPECT_EQ(arity.Find("error")->GetString("code"), "EBADREQ");
}

TEST(ProtocolTest, UnsupportedFragmentIsEunsupportedNotEmpty) {
  SessionRegistry registry{SessionOptions{}};
  ASSERT_TRUE(registry
                  .HandleLine(LoadLine(
                      "s",
                      "p(a). e(a, b). r(X, Z) :- p(X). "
                      "t(X) :- e(X, Y), not r(X, Y). ?(X) :- t(X)."))
                  .GetBool("ok"));
  JsonValue response = registry.HandleLine(
      R"({"cmd":"QUERY","session":"s","query_index":0})");
  EXPECT_FALSE(response.GetBool("ok"));
  EXPECT_EQ(response.Find("error")->GetString("code"), "EUNSUPPORTED");

  // EXPLAIN must refuse too (the linear search ignores negative bodies
  // — running it would fabricate proofs the evaluator contradicts),
  // even for negation programs QUERY can serve via the Datalog path.
  JsonValue explain = registry.HandleLine(
      R"({"cmd":"EXPLAIN","session":"s","query_index":0,"answer":["a"]})");
  EXPECT_FALSE(explain.GetBool("ok"));
  EXPECT_EQ(explain.Find("error")->GetString("code"), "EUNSUPPORTED");

  SessionRegistry datalog_registry{SessionOptions{}};
  ASSERT_TRUE(datalog_registry
                  .HandleLine(LoadLine("d",
                                       "q(a). r(a). q(b). "
                                       "p(X) :- q(X), not r(X). "
                                       "?(X) :- p(X)."))
                  .GetBool("ok"));
  JsonValue answers = datalog_registry.HandleLine(
      R"({"cmd":"QUERY","session":"d","query_index":0})");
  ASSERT_TRUE(answers.GetBool("ok")) << answers.Dump();
  ASSERT_EQ(answers.Find("answers")->Items().size(), 1u);  // b only
  JsonValue no_proof = datalog_registry.HandleLine(
      R"({"cmd":"EXPLAIN","session":"d","query_index":0,"answer":["b"]})");
  EXPECT_FALSE(no_proof.GetBool("ok"));
  EXPECT_EQ(no_proof.Find("error")->GetString("code"), "EUNSUPPORTED");
}

TEST(ProtocolTest, WarmSessionCacheCarriesAcrossQueriesAndEvicts) {
  SessionOptions options;
  options.cache_byte_limit = 1;  // evict after every warm query
  SessionRegistry capped{options};
  ASSERT_TRUE(capped.HandleLine(LoadLine("s")).GetBool("ok"));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        capped
            .HandleLine(R"({"cmd":"QUERY","session":"s","query_index":0,)"
                        R"("engine":"linear"})")
            .GetBool("ok"));
  }
  JsonValue stats =
      capped.HandleLine(R"({"cmd":"STATS","session":"s"})");
  ASSERT_TRUE(stats.GetBool("ok"));
  const JsonValue* session = stats.Find("session");
  EXPECT_EQ(session->GetUint("queries_served"), 3u);
  EXPECT_GE(session->GetUint("cache_evictions"), 2u);
  // Byte-cap evictions are not ADD_FACTS invalidations.
  EXPECT_EQ(session->GetUint("cache_invalidations"), 0u);

  SessionRegistry uncapped{SessionOptions{}};
  ASSERT_TRUE(uncapped.HandleLine(LoadLine("s")).GetBool("ok"));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        uncapped
            .HandleLine(R"({"cmd":"QUERY","session":"s","query_index":0,)"
                        R"("engine":"linear"})")
            .GetBool("ok"));
  }
  stats = uncapped.HandleLine(R"({"cmd":"STATS","session":"s"})");
  session = stats.Find("session");
  EXPECT_EQ(session->GetUint("cache_evictions"), 0u);
  EXPECT_EQ(session->GetUint("cache_invalidations"), 0u);
  EXPECT_GT(session->GetUint("cache_bytes"), 0u);
  EXPECT_EQ(session->GetUint("queries_waited"), 0u);  // sequential callers
}

TEST(ProtocolTest, AddFactsFailureIsAllOrNothingIncludingSymbols) {
  SessionRegistry registry{SessionOptions{}};
  ASSERT_TRUE(registry.HandleLine(LoadLine("s")).GetBool("ok"));
  JsonValue stats = registry.HandleLine(R"({"cmd":"STATS","session":"s"})");
  const JsonValue* session = stats.Find("session");
  uint64_t facts = session->GetUint("facts");
  uint64_t symbols = session->GetUint("symbols");
  JsonValue before = registry.HandleLine(
      R"({"cmd":"QUERY","session":"s","query_index":0})");
  ASSERT_TRUE(before.GetBool("ok")) << before.Dump();
  std::string answers = before.Find("answers")->Dump();

  // Well-formed facts followed by a malformed last clause: the whole
  // batch is rejected — database, program, and the fresh names the good
  // prefix interned. Repeating the failure must not grow anything.
  for (int i = 0; i < 3; ++i) {
    JsonValue bad = registry.HandleLine(
        R"({"cmd":"ADD_FACTS","session":"s",)"
        R"("facts":"e(c, d). brandnew(n1, n2). e(oops"})");
    EXPECT_EQ(bad.Find("error")->GetString("code"), "EPARSE");
  }
  stats = registry.HandleLine(R"({"cmd":"STATS","session":"s"})");
  session = stats.Find("session");
  EXPECT_EQ(session->GetUint("facts"), facts);
  EXPECT_EQ(session->GetUint("symbols"), symbols);
  EXPECT_EQ(session->GetUint("facts_added"), 0u);
  EXPECT_EQ(session->GetUint("cache_invalidations"), 0u);
  JsonValue after = registry.HandleLine(
      R"({"cmd":"QUERY","session":"s","query_index":0})");
  ASSERT_TRUE(after.GetBool("ok")) << after.Dump();
  EXPECT_EQ(after.Find("answers")->Dump(), answers);
}

TEST(ProtocolTest, StatsTrackCacheBytesAcrossQueriesAndInvalidation) {
  SessionRegistry registry{SessionOptions{}};
  ASSERT_TRUE(registry.HandleLine(LoadLine("s")).GetBool("ok"));
  JsonValue stats = registry.HandleLine(R"({"cmd":"STATS","session":"s"})");
  uint64_t cold = stats.Find("session")->GetUint("cache_bytes");

  ASSERT_TRUE(
      registry
          .HandleLine(R"({"cmd":"QUERY","session":"s","query_index":0,)"
                      R"("engine":"linear"})")
          .GetBool("ok"));
  stats = registry.HandleLine(R"({"cmd":"STATS","session":"s"})");
  uint64_t warm = stats.Find("session")->GetUint("cache_bytes");
  EXPECT_GT(warm, cold);

  // e feeds t, so this delta's cone covers every recorded refutation:
  // the invalidation drops them all and the byte figure comes back down
  // (the interned-atom dictionary legitimately remains).
  JsonValue added = registry.HandleLine(
      R"({"cmd":"ADD_FACTS","session":"s","facts":"e(c, q1)."})");
  ASSERT_TRUE(added.GetBool("ok")) << added.Dump();
  EXPECT_EQ(added.GetUint("added"), 1u);
  EXPECT_EQ(added.GetUint("affected_predicates"), 2u);  // e and t
  EXPECT_GT(added.GetUint("cache_entries_invalidated"), 0u);
  stats = registry.HandleLine(R"({"cmd":"STATS","session":"s"})");
  const JsonValue* session = stats.Find("session");
  EXPECT_LT(session->GetUint("cache_bytes"), warm);
  EXPECT_EQ(session->GetUint("cache_invalidations"), 1u);
  EXPECT_GT(session->GetUint("cache_invalidated_entries"), 0u);
  EXPECT_EQ(session->GetUint("cache_evictions"), 0u);

  // And the invalidated session answers against the grown graph.
  JsonValue after = registry.HandleLine(
      R"({"cmd":"QUERY","session":"s","query_index":0,"engine":"linear"})");
  ASSERT_TRUE(after.GetBool("ok")) << after.Dump();
  EXPECT_EQ(after.Find("answers")->Items().size(), 3u);  // b, c, q1
}

TEST(ProtocolTest, ConeDisjointAddFactsInvalidatesNothing) {
  // tag feeds no rule: inserting into it must leave the warm cache
  // entirely intact, and a duplicate-only batch must not even count as
  // an invalidation.
  SessionRegistry registry{SessionOptions{}};
  ASSERT_TRUE(registry
                  .HandleLine(LoadLine(
                      "s",
                      "t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z). "
                      "e(a, b). e(b, c). tag(a). ?(X) :- t(a, X)."))
                  .GetBool("ok"));
  ASSERT_TRUE(
      registry
          .HandleLine(R"({"cmd":"QUERY","session":"s","query_index":0,)"
                      R"("engine":"linear"})")
          .GetBool("ok"));
  JsonValue added = registry.HandleLine(
      R"({"cmd":"ADD_FACTS","session":"s","facts":"tag(b)."})");
  ASSERT_TRUE(added.GetBool("ok")) << added.Dump();
  EXPECT_EQ(added.GetUint("affected_predicates"), 1u);  // tag alone
  EXPECT_EQ(added.GetUint("cache_entries_invalidated"), 0u);

  JsonValue dup = registry.HandleLine(
      R"({"cmd":"ADD_FACTS","session":"s","facts":"tag(b)."})");
  ASSERT_TRUE(dup.GetBool("ok")) << dup.Dump();
  EXPECT_EQ(dup.GetUint("added"), 0u);
  EXPECT_EQ(dup.GetUint("affected_predicates"), 0u);

  JsonValue stats = registry.HandleLine(R"({"cmd":"STATS","session":"s"})");
  const JsonValue* session = stats.Find("session");
  EXPECT_EQ(session->GetUint("cache_invalidations"), 1u);
  EXPECT_EQ(session->GetUint("cache_invalidated_entries"), 0u);
  JsonValue after = registry.HandleLine(
      R"({"cmd":"QUERY","session":"s","query_index":0,"engine":"linear"})");
  ASSERT_TRUE(after.GetBool("ok")) << after.Dump();
  EXPECT_EQ(after.Find("answers")->Items().size(), 2u);  // b, c
}

// --- wire-API v2: HELLO negotiation and the binary answer frame ---

protocol::Response Hello(const std::string& line, protocol::WireState* state,
                         const std::vector<protocol::Encoding>& allowed = {
                             protocol::Encoding::kJson,
                             protocol::Encoding::kBinary}) {
  protocol::Error error;
  JsonValue id;
  std::optional<protocol::Request> request =
      protocol::ParseRequest(line, &error, &id);
  EXPECT_TRUE(request.has_value()) << line << ": " << error.message;
  return protocol::NegotiateHello(*request, allowed, state);
}

// --- Answer memo ---

constexpr const char* kPoolProgram =
    "t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z). "
    "e(a, b). e(b, c). ?(X) :- t(a, X). ?(X, Y) :- t(X, Y).";

/// The "answers" array a fresh Reasoner gives for query `index` of
/// `program`, rendered as the v1 QUERY response renders it.
std::string ColdAnswers(const std::string& program, size_t index) {
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

/// A response's bytes with its one timing-dependent field zeroed.
std::string StableBytes(const JsonValue& response) {
  static const std::regex kMillis("\"millis\":[0-9]+");
  return std::regex_replace(response.Dump(), kMillis, "\"millis\":0");
}

struct MemoCounts {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t cache_bytes = 0;
};

MemoCounts MemoStats(SessionRegistry* registry, const std::string& session) {
  JsonValue stats = registry->HandleLine(
      R"({"cmd":"STATS","session":")" + session + R"("})");
  const JsonValue* object = stats.Find("session");
  EXPECT_NE(object, nullptr) << stats.Dump();
  if (object == nullptr) return {};
  return {object->GetUint("answer_memo_hits"),
          object->GetUint("answer_memo_misses"),
          object->GetUint("cache_evictions"), object->GetUint("cache_bytes")};
}

std::string QueryLine(const std::string& session, int index,
                      const std::string& engine = "") {
  std::string line = R"({"cmd":"QUERY","session":")" + session +
                     R"(","query_index":)" + std::to_string(index);
  if (!engine.empty()) line += R"(,"engine":")" + engine + R"(")";
  return line + "}";
}

TEST(ProtocolTest, MemoHitReturnsTheColdReasonersBytes) {
  SessionRegistry registry{SessionOptions{}};
  ASSERT_TRUE(registry.HandleLine(LoadLine("s", kPoolProgram)).GetBool("ok"));
  uint64_t cold_bytes = MemoStats(&registry, "s").cache_bytes;
  for (int q = 0; q < 2; ++q) {
    JsonValue first = registry.HandleLine(QueryLine("s", q));
    JsonValue again = registry.HandleLine(QueryLine("s", q));
    ASSERT_TRUE(first.GetBool("ok")) << first.Dump();
    EXPECT_EQ(first.Find("answers")->Dump(),
              ColdAnswers(kPoolProgram, static_cast<size_t>(q)));
    EXPECT_EQ(StableBytes(again), StableBytes(first));
    EXPECT_EQ(first.GetString("cache"), "unused");
  }
  // One materialization filled both pooled queries.
  MemoCounts counts = MemoStats(&registry, "s");
  EXPECT_EQ(counts.misses, 1u);
  EXPECT_EQ(counts.hits, 3u);
  // The memo's bytes count as the session's cache bytes.
  EXPECT_GT(counts.cache_bytes, cold_bytes);
  // engine=chase enumerates by materialization too: same memo.
  JsonValue chase = registry.HandleLine(QueryLine("s", 1, "chase"));
  EXPECT_EQ(chase.Find("answers")->Dump(), ColdAnswers(kPoolProgram, 1));
  EXPECT_EQ(MemoStats(&registry, "s").hits, 4u);
}

TEST(ProtocolTest, AddFactsThatInsertClearTheMemoDuplicatesKeepIt) {
  SessionRegistry registry{SessionOptions{}};
  ASSERT_TRUE(registry.HandleLine(LoadLine("s", kPoolProgram)).GetBool("ok"));
  ASSERT_TRUE(registry.HandleLine(QueryLine("s", 0)).GetBool("ok"));
  uint64_t filled_bytes = MemoStats(&registry, "s").cache_bytes;

  JsonValue added = registry.HandleLine(
      R"({"cmd":"ADD_FACTS","session":"s","facts":"e(c, d)."})");
  ASSERT_EQ(added.GetUint("added"), 1u) << added.Dump();
  EXPECT_LT(MemoStats(&registry, "s").cache_bytes, filled_bytes);
  JsonValue grown = registry.HandleLine(QueryLine("s", 0));
  EXPECT_EQ(grown.Find("answers")->Dump(),
            ColdAnswers(std::string(kPoolProgram) + " e(c, d).", 0));
  EXPECT_EQ(grown.Find("answers")->Items().size(), 3u);  // b, c, d
  EXPECT_EQ(MemoStats(&registry, "s").misses, 2u);

  // A duplicate-only batch and a failed one change nothing: still hits.
  JsonValue duplicate = registry.HandleLine(
      R"({"cmd":"ADD_FACTS","session":"s","facts":"e(a, b). e(c, d)."})");
  ASSERT_EQ(duplicate.GetUint("added"), 0u) << duplicate.Dump();
  JsonValue failed = registry.HandleLine(
      R"({"cmd":"ADD_FACTS","session":"s","facts":"e(d, e). e(oops"})");
  ASSERT_EQ(failed.Find("error")->GetString("code"), "EPARSE");
  JsonValue same = registry.HandleLine(QueryLine("s", 0));
  EXPECT_EQ(StableBytes(same), StableBytes(grown));
  MemoCounts counts = MemoStats(&registry, "s");
  EXPECT_EQ(counts.misses, 2u);
  EXPECT_EQ(counts.hits, 1u);
}

TEST(ProtocolTest, ReplaceStartsWithAnEmptyMemo) {
  SessionRegistry registry{SessionOptions{}};
  ASSERT_TRUE(registry.HandleLine(LoadLine("s", kPoolProgram)).GetBool("ok"));
  ASSERT_TRUE(registry.HandleLine(QueryLine("s", 0)).GetBool("ok"));
  ASSERT_TRUE(registry.HandleLine(QueryLine("s", 0)).GetBool("ok"));
  // The replacement has a different database: a kept memo would answer
  // the old one.
  JsonValue replaced = registry.HandleLine(
      R"({"cmd":"LOAD_PROGRAM","session":"s","replace":true,"program":)" +
      JsonValue::String(std::string(kPoolProgram) + " e(c, z).").Dump() +
      "}");
  ASSERT_TRUE(replaced.GetBool("ok")) << replaced.Dump();
  JsonValue after = registry.HandleLine(QueryLine("s", 0));
  EXPECT_EQ(after.Find("answers")->Dump(),
            ColdAnswers(std::string(kPoolProgram) + " e(c, z).", 0));
  // Counters are cumulative per session name; the miss is the new one.
  MemoCounts counts = MemoStats(&registry, "s");
  EXPECT_EQ(counts.misses, 2u);
  EXPECT_EQ(counts.hits, 1u);
}

TEST(ProtocolTest, ByteCapCrossingClearsTheMemo) {
  SessionOptions options;
  options.cache_byte_limit = 1;  // every fill crosses the cap
  SessionRegistry capped{options};
  ASSERT_TRUE(capped.HandleLine(LoadLine("s", kPoolProgram)).GetBool("ok"));
  for (int i = 0; i < 3; ++i) {
    JsonValue response = capped.HandleLine(QueryLine("s", 0));
    EXPECT_EQ(response.Find("answers")->Dump(), ColdAnswers(kPoolProgram, 0));
  }
  MemoCounts counts = MemoStats(&capped, "s");
  EXPECT_EQ(counts.misses, 3u);
  EXPECT_EQ(counts.hits, 0u);
  EXPECT_EQ(counts.evictions, 3u);

  SessionRegistry uncapped{SessionOptions{}};
  ASSERT_TRUE(uncapped.HandleLine(LoadLine("s", kPoolProgram)).GetBool("ok"));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(uncapped.HandleLine(QueryLine("s", 0)).GetBool("ok"));
  }
  counts = MemoStats(&uncapped, "s");
  EXPECT_EQ(counts.misses, 1u);
  EXPECT_EQ(counts.hits, 2u);
  EXPECT_EQ(counts.evictions, 0u);
}

TEST(ProtocolTest, NegationProgramIsMemoised) {
  const std::string program =
      "q(a). r(a). q(b). p(X) :- q(X), not r(X). ?(X) :- p(X). "
      "?(X) :- q(X).";
  SessionRegistry registry{SessionOptions{}};
  ASSERT_TRUE(registry.HandleLine(LoadLine("d", program)).GetBool("ok"));
  // The stratified Datalog evaluator serves every engine on a negation
  // program, so all of these share one fill.
  for (const char* engine : {"", "chase", "linear", "alternating"}) {
    for (int q = 0; q < 2; ++q) {
      JsonValue response = registry.HandleLine(QueryLine("d", q, engine));
      ASSERT_TRUE(response.GetBool("ok")) << response.Dump();
      EXPECT_EQ(response.Find("answers")->Dump(),
                ColdAnswers(program, static_cast<size_t>(q)))
          << engine;
    }
  }
  MemoCounts counts = MemoStats(&registry, "d");
  EXPECT_EQ(counts.misses, 1u);
  EXPECT_EQ(counts.hits, 7u);
}

TEST(ProtocolTest, InlineQueriesAndProofSearchBypassTheMemo) {
  SessionRegistry registry{SessionOptions{}};
  ASSERT_TRUE(registry.HandleLine(LoadLine("s", kPoolProgram)).GetBool("ok"));
  for (int i = 0; i < 2; ++i) {
    JsonValue inline_query = registry.HandleLine(
        R"({"cmd":"QUERY","session":"s","query":"?(X) :- t(a, X)."})");
    EXPECT_EQ(inline_query.Find("answers")->Dump(),
              ColdAnswers(kPoolProgram, 0));
    JsonValue linear = registry.HandleLine(QueryLine("s", 0, "linear"));
    EXPECT_EQ(linear.Find("answers")->Dump(), ColdAnswers(kPoolProgram, 0));
    JsonValue alternating =
        registry.HandleLine(QueryLine("s", 0, "alternating"));
    EXPECT_EQ(alternating.Find("answers")->Dump(),
              ColdAnswers(kPoolProgram, 0));
  }
  MemoCounts counts = MemoStats(&registry, "s");
  EXPECT_EQ(counts.misses, 0u);
  EXPECT_EQ(counts.hits, 0u);
}

TEST(ProtocolTest, ConcurrentFillsNeverPublishAStaleState) {
  // A chain that one ADD_FACTS at a time extends by one edge: every
  // state's answer set is {v1..vk}. Readers race fills against the
  // writer's clears; a fill of an old state published after a clear
  // would make some reader see k go down.
  SessionRegistry registry{SessionOptions{}};
  ASSERT_TRUE(registry
                  .HandleLine(LoadLine("s",
                                       "t(X, Y) :- e(X, Y). "
                                       "t(X, Z) :- e(X, Y), t(Y, Z). "
                                       "e(v0, v1). ?(X) :- t(v0, X)."))
                  .GetBool("ok"));
  constexpr int kEdges = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      size_t last = 0;
      for (int i = 0; i < 300; ++i) {
        JsonValue response = registry.HandleLine(QueryLine("s", 0));
        const JsonValue* answers = response.Find("answers");
        if (answers == nullptr) {
          ++failures;
          return;
        }
        std::set<std::string> seen;
        for (const JsonValue& row : answers->Items()) {
          seen.insert(row.Items()[0].AsString());
        }
        std::set<std::string> prefix;
        for (size_t k = 1; k <= seen.size(); ++k) {
          prefix.insert("v" + std::to_string(k));
        }
        if (seen != prefix || seen.size() < last) ++failures;
        last = seen.size();
      }
    });
  }
  for (int k = 1; k < kEdges; ++k) {
    JsonValue added = registry.HandleLine(
        R"({"cmd":"ADD_FACTS","session":"s","facts":"e(v)" +
        std::to_string(k) + ", v" + std::to_string(k + 1) + R"()."})");
    EXPECT_EQ(added.GetUint("added"), 1u) << added.Dump();
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  JsonValue last = registry.HandleLine(QueryLine("s", 0));
  EXPECT_EQ(last.Find("answers")->Items().size(),
            static_cast<size_t>(kEdges));
}

TEST(ProtocolTest, BothWireVersionsAreAccepted) {
  for (const char* line :
       {R"({"v":1,"cmd":"PING"})", R"({"v":2,"cmd":"PING"})"}) {
    protocol::Error error;
    JsonValue id;
    EXPECT_TRUE(protocol::ParseRequest(line, &error, &id).has_value())
        << line << ": " << error.message;
  }
}

TEST(ProtocolTest, HelloNegotiatesVersionAndEncoding) {
  // Full v2 + binary handshake.
  protocol::WireState state;
  protocol::Response response = Hello(
      R"({"cmd":"HELLO","max_version":2,"encodings":["binary","json"]})",
      &state);
  EXPECT_TRUE(response.body.GetBool("ok"));
  EXPECT_EQ(response.body.GetUint("version"), 2u);
  EXPECT_EQ(response.body.GetUint("max_version"), 2u);
  EXPECT_EQ(response.body.GetString("encoding"), "binary");
  EXPECT_EQ(state.version, 2);
  EXPECT_EQ(state.encoding, protocol::Encoding::kBinary);

  // Unknown encoding names are skipped, not errors: the first name the
  // server knows wins.
  state = protocol::WireState{};
  response = Hello(
      R"({"cmd":"HELLO","max_version":2,"encodings":["zstd","json"]})",
      &state);
  EXPECT_EQ(response.body.GetString("encoding"), "json");
  EXPECT_EQ(state.encoding, protocol::Encoding::kJson);

  // No usable intersection falls back to JSON.
  state = protocol::WireState{};
  response = Hello(
      R"({"cmd":"HELLO","max_version":2,"encodings":["zstd"]})", &state);
  EXPECT_EQ(state.encoding, protocol::Encoding::kJson);

  // A client future-proofed beyond the server clamps down to the
  // server's maximum rather than failing.
  state = protocol::WireState{};
  response = Hello(R"({"cmd":"HELLO","max_version":99})", &state);
  EXPECT_EQ(response.body.GetUint("version"),
            static_cast<uint64_t>(protocol::kMaxVersion));
}

TEST(ProtocolTest, BinaryEncodingNeedsVersionTwo) {
  // A v1-pinned client keeps the v1 contract: binary is refused even
  // when explicitly preferred and allowed.
  protocol::WireState state;
  protocol::Response response = Hello(
      R"({"cmd":"HELLO","max_version":1,"encodings":["binary"]})", &state);
  EXPECT_EQ(state.version, 1);
  EXPECT_EQ(response.body.GetString("encoding"), "json");
  EXPECT_EQ(state.encoding, protocol::Encoding::kJson);
}

TEST(ProtocolTest, HelloHonorsServerAllowlist) {
  // encodings=json in the server config keeps every connection on JSON
  // no matter what clients prefer; the offer list tells them so.
  protocol::WireState state;
  protocol::Response response = Hello(
      R"({"cmd":"HELLO","max_version":2,"encodings":["binary","json"]})",
      &state, {protocol::Encoding::kJson});
  EXPECT_EQ(state.encoding, protocol::Encoding::kJson);
  const JsonValue* offered = response.body.Find("encodings");
  ASSERT_NE(offered, nullptr);
  ASSERT_EQ(offered->Items().size(), 1u);
  EXPECT_EQ(offered->Items()[0].AsString(), "json");
}

TEST(ProtocolTest, HelloWorksThroughTheRegistryDispatcher) {
  SessionRegistry registry{SessionOptions{}};
  JsonValue response = registry.HandleLine(
      R"({"cmd":"HELLO","id":9,"max_version":2,"encodings":["binary"]})");
  EXPECT_TRUE(response.GetBool("ok")) << response.Dump();
  EXPECT_EQ(response.GetUint("version"), 2u);
  EXPECT_EQ(response.GetUint("id"), 9u);
}

TEST(ProtocolTest, AnswerFrameRoundTripsExactly) {
  protocol::AnswerTable table;
  table.columns = 2;
  table.row_count = 3;
  table.cells = {"a", "bb", "", "d\"\n\x01", "λ→", "f"};
  std::string payload = protocol::EncodeAnswerFrame(table);
  protocol::AnswerTable decoded;
  std::string error;
  ASSERT_TRUE(protocol::DecodeAnswerFrame(payload, &decoded, &error))
      << error;
  EXPECT_EQ(decoded, table);
}

TEST(ProtocolTest, AnswerFrameKeepsBooleanCertaintyDistinct) {
  // Zero columns, one row ("certain") and zero rows ("not certain") are
  // different answers; the frame must not quotient them away.
  protocol::AnswerTable certain;
  certain.columns = 0;
  certain.row_count = 1;
  protocol::AnswerTable refuted;
  refuted.columns = 0;
  refuted.row_count = 0;
  std::string certain_payload = protocol::EncodeAnswerFrame(certain);
  std::string refuted_payload = protocol::EncodeAnswerFrame(refuted);
  EXPECT_NE(certain_payload, refuted_payload);
  protocol::AnswerTable decoded;
  std::string error;
  ASSERT_TRUE(
      protocol::DecodeAnswerFrame(certain_payload, &decoded, &error));
  EXPECT_EQ(decoded.rows(), 1u);
  ASSERT_TRUE(
      protocol::DecodeAnswerFrame(refuted_payload, &decoded, &error));
  EXPECT_EQ(decoded.rows(), 0u);
}

TEST(ProtocolTest, AnswerFrameRejectsMalformedPayloads) {
  protocol::AnswerTable table;
  table.columns = 1;
  table.row_count = 2;
  table.cells = {"xy", "z"};
  std::string good = protocol::EncodeAnswerFrame(table);

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  std::string truncated = good.substr(0, good.size() - 1);
  std::string trailing = good + "!";
  std::string short_header = good.substr(0, 11);
  // rows=0xffffffff, cols=1 in a 12-byte frame: the plausibility bound
  // must refuse before allocating anything rows-sized.
  std::string hostile("VDF2\xff\xff\xff\xff\x01\x00\x00\x00", 12);

  for (const std::string& bad :
       {bad_magic, truncated, trailing, short_header, hostile,
        std::string()}) {
    protocol::AnswerTable decoded;
    std::string error;
    EXPECT_FALSE(protocol::DecodeAnswerFrame(bad, &decoded, &error));
    EXPECT_FALSE(error.empty());
  }
}

TEST(ProtocolTest, EncodeResponseFramesAnswersPerEncoding) {
  protocol::Response response = protocol::OkResponse(JsonValue());
  protocol::AnswerTable table;
  table.columns = 1;
  table.row_count = 2;
  table.cells = {"b", "c"};
  response.answers = table;

  // JSON: one line, rows inlined.
  std::string json_wire =
      protocol::EncodeResponse(response, protocol::Encoding::kJson);
  ASSERT_EQ(json_wire.back(), '\n');
  std::string parse_error;
  std::optional<JsonValue> json_head = JsonValue::Parse(
      std::string_view(json_wire).substr(0, json_wire.size() - 1),
      &parse_error);
  ASSERT_TRUE(json_head.has_value()) << parse_error;
  EXPECT_EQ(json_head->Find("answers")->Items().size(), 2u);
  EXPECT_EQ(json_head->Find("answers_frame"), nullptr);

  // Binary: a head line announcing the frame, then the exact payload.
  std::string wire =
      protocol::EncodeResponse(response, protocol::Encoding::kBinary);
  size_t newline = wire.find('\n');
  ASSERT_NE(newline, std::string::npos);
  std::optional<JsonValue> head = JsonValue::Parse(
      std::string_view(wire).substr(0, newline), &parse_error);
  ASSERT_TRUE(head.has_value()) << parse_error;
  EXPECT_EQ(head->Find("answers"), nullptr);
  const JsonValue* descriptor = head->Find("answers_frame");
  ASSERT_NE(descriptor, nullptr);
  EXPECT_EQ(descriptor->GetUint("rows"), 2u);
  EXPECT_EQ(descriptor->GetUint("cols"), 1u);
  std::string_view payload = std::string_view(wire).substr(newline + 1);
  EXPECT_EQ(descriptor->GetUint("bytes"), payload.size());
  protocol::AnswerTable decoded;
  std::string decode_error;
  ASSERT_TRUE(protocol::DecodeAnswerFrame(payload, &decoded, &decode_error))
      << decode_error;
  EXPECT_EQ(decoded, table);

  // Responses without a table stay pure JSON lines on every encoding.
  protocol::Response plain = protocol::OkResponse(JsonValue());
  std::string control =
      protocol::EncodeResponse(plain, protocol::Encoding::kBinary);
  EXPECT_EQ(control.find('\n'), control.size() - 1);
}

// --- ANALYZE: source-located lint diagnostics over the wire ---

TEST(ProtocolTest, AnalyzeReportsDiagnosticsAndClassification) {
  SessionRegistry registry{SessionOptions{}};
  // Line 2 yields two warnings in document order: filing/2 is write-only
  // (V301, anchored at the rule head) and X is a body singleton (V201,
  // anchored at the t(X, Y) atom). The existential W keeps the program
  // outside plain Datalog without costing wardedness.
  ASSERT_TRUE(registry
                  .HandleLine(LoadLine("s",
                                       "t(X, Y) :- e(X, Y).\n"
                                       "filing(Y, W) :- t(X, Y).\n"
                                       "e(a, b).\n"
                                       "?(X) :- t(a, X).\n"))
                  .GetBool("ok"));
  JsonValue response =
      registry.HandleLine(R"({"id":7,"cmd":"ANALYZE","session":"s"})");
  ASSERT_TRUE(response.GetBool("ok")) << response.Dump();
  EXPECT_EQ(response.GetUint("errors"), 0u);
  EXPECT_EQ(response.GetUint("warnings"), 2u);
  EXPECT_EQ(response.GetUint("notes"), 0u);
  const JsonValue* diagnostics = response.Find("diagnostics");
  ASSERT_NE(diagnostics, nullptr);
  ASSERT_EQ(diagnostics->Items().size(), 2u);
  const JsonValue& unused = diagnostics->Items()[0];
  EXPECT_EQ(unused.GetString("id"), "V301");
  EXPECT_EQ(unused.GetUint("line"), 2u);
  EXPECT_EQ(unused.GetUint("column"), 1u);
  const JsonValue& d = diagnostics->Items()[1];
  EXPECT_EQ(d.GetString("id"), "V201");
  EXPECT_EQ(d.GetString("severity"), "warning");
  EXPECT_EQ(d.GetUint("line"), 2u);
  EXPECT_EQ(d.GetUint("column"), 17u);
  ASSERT_NE(d.Find("witness"), nullptr);
  const JsonValue* classification = response.Find("classification");
  ASSERT_NE(classification, nullptr);
  EXPECT_TRUE(classification->GetBool("warded"));
  EXPECT_TRUE(classification->GetBool("piecewise_linear"));
  EXPECT_FALSE(classification->GetBool("datalog"));
  EXPECT_FALSE(classification->GetBool("uses_negation"));
  EXPECT_FALSE(classification->GetString("recursion_bucket").empty());

  // A clean program analyzes to an empty diagnostics array, not an error.
  ASSERT_TRUE(registry.HandleLine(LoadLine("clean")).GetBool("ok"));
  JsonValue clean =
      registry.HandleLine(R"({"cmd":"ANALYZE","session":"clean"})");
  ASSERT_TRUE(clean.GetBool("ok")) << clean.Dump();
  EXPECT_EQ(clean.Find("diagnostics")->Items().size(), 0u);
  EXPECT_EQ(clean.GetUint("errors"), 0u);
}

TEST(ProtocolTest, AnalyzeRequiresAKnownSession) {
  SessionRegistry registry{SessionOptions{}};
  JsonValue missing =
      registry.HandleLine(R"({"cmd":"ANALYZE","session":"gone"})");
  EXPECT_FALSE(missing.GetBool("ok"));
  EXPECT_EQ(missing.Find("error")->GetString("code"), "ENOSESSION");
  JsonValue no_session = registry.HandleLine(R"({"cmd":"ANALYZE"})");
  EXPECT_FALSE(no_session.GetBool("ok"));
}

TEST(ProtocolTest, AnalyzeRendersIdenticallyUnderBothEncodings) {
  // ANALYZE is a pure control-plane response (no answer table), so the
  // v2 binary encoding must produce the same single JSON line as v1.
  SessionRegistry registry{SessionOptions{}};
  ASSERT_TRUE(registry.HandleLine(LoadLine("s")).GetBool("ok"));
  protocol::Error error;
  JsonValue id;
  std::optional<protocol::Request> request = protocol::ParseRequest(
      R"({"v":2,"cmd":"ANALYZE","session":"s"})", &error, &id);
  ASSERT_TRUE(request.has_value()) << error.message;
  protocol::Response response = registry.Handle(*request);
  EXPECT_FALSE(response.answers.has_value());
  std::string json =
      protocol::EncodeResponse(response, protocol::Encoding::kJson);
  std::string binary =
      protocol::EncodeResponse(response, protocol::Encoding::kBinary);
  EXPECT_EQ(json, binary);
  EXPECT_EQ(json.find('\n'), json.size() - 1);
  std::string parse_error;
  std::optional<JsonValue> head = JsonValue::Parse(
      std::string_view(json).substr(0, json.size() - 1), &parse_error);
  ASSERT_TRUE(head.has_value()) << parse_error;
  EXPECT_TRUE(head->GetBool("ok"));
  EXPECT_NE(head->Find("diagnostics"), nullptr);
}

TEST(ProtocolTest, StatsAndPing) {
  SessionRegistry registry{SessionOptions{}};
  JsonValue pong = registry.HandleLine(R"({"cmd":"PING"})");
  EXPECT_TRUE(pong.GetBool("ok"));
  EXPECT_TRUE(pong.GetBool("pong"));
  ASSERT_TRUE(registry.HandleLine(LoadLine("s1")).GetBool("ok"));
  ASSERT_TRUE(registry.HandleLine(LoadLine("s2")).GetBool("ok"));
  JsonValue stats = registry.HandleLine(R"({"cmd":"STATS"})");
  ASSERT_TRUE(stats.GetBool("ok"));
  EXPECT_EQ(stats.Find("server")->GetUint("sessions"), 2u);
  EXPECT_EQ(stats.Find("sessions")->Items().size(), 2u);
  // STATS reports process uptime and the negotiated-encoding tallies.
  const JsonValue* server = stats.Find("server");
  EXPECT_NE(server->Find("uptime_ms"), nullptr);
  const JsonValue* negotiated = server->Find("encoding_negotiated");
  ASSERT_NE(negotiated, nullptr);
  EXPECT_EQ(negotiated->GetUint("json"), 0u);
  EXPECT_EQ(negotiated->GetUint("binary"), 0u);
}

// --- METRICS and per-request tracing ---

TEST(ProtocolTest, ParsesMetricsCommand) {
  protocol::Error error;
  JsonValue id;
  std::optional<protocol::Request> request =
      protocol::ParseRequest(R"({"cmd":"METRICS"})", &error, &id);
  ASSERT_TRUE(request.has_value()) << error.message;
  EXPECT_EQ(request->cmd, protocol::Command::kMetrics);
  EXPECT_EQ(protocol::CommandName(request->cmd), std::string("METRICS"));
}

TEST(ProtocolTest, TraceFlagParsesStrictly) {
  protocol::Error error;
  JsonValue id;
  std::optional<protocol::Request> request = protocol::ParseRequest(
      R"({"cmd":"QUERY","session":"s","query_index":0,"trace":true})",
      &error, &id);
  ASSERT_TRUE(request.has_value()) << error.message;
  EXPECT_TRUE(request->trace);
  request = protocol::ParseRequest(
      R"({"cmd":"QUERY","session":"s","query_index":0})", &error, &id);
  ASSERT_TRUE(request.has_value());
  EXPECT_FALSE(request->trace);
  // A non-boolean trace is a request error, not a silent default.
  EXPECT_FALSE(
      protocol::ParseRequest(
          R"({"cmd":"QUERY","session":"s","query_index":0,"trace":1})",
          &error, &id)
          .has_value());
  EXPECT_EQ(error.code, "EBADREQ");
}

TEST(ProtocolTest, TracedQueryCarriesIdenticalSpansUnderBothEncodings) {
  // The trace rides in the response BODY, so the v1 inline head and the
  // v2 frame-announcing head must carry byte-identical span objects.
  SessionRegistry registry{SessionOptions{}};
  ASSERT_TRUE(registry.HandleLine(LoadLine("s")).GetBool("ok"));
  protocol::Error error;
  JsonValue id;
  std::optional<protocol::Request> request = protocol::ParseRequest(
      R"({"v":2,"cmd":"QUERY","session":"s","query_index":0,"trace":true})",
      &error, &id);
  ASSERT_TRUE(request.has_value()) << error.message;
  protocol::Response response = registry.Handle(*request);
  ASSERT_TRUE(response.answers.has_value());
  std::string json =
      protocol::EncodeResponse(response, protocol::Encoding::kJson);
  std::string binary =
      protocol::EncodeResponse(response, protocol::Encoding::kBinary);
  std::string parse_error;
  std::optional<JsonValue> json_head = JsonValue::Parse(
      std::string_view(json).substr(0, json.find('\n')), &parse_error);
  ASSERT_TRUE(json_head.has_value()) << parse_error;
  std::optional<JsonValue> binary_head = JsonValue::Parse(
      std::string_view(binary).substr(0, binary.find('\n')), &parse_error);
  ASSERT_TRUE(binary_head.has_value()) << parse_error;
  const JsonValue* json_trace = json_head->Find("trace");
  const JsonValue* binary_trace = binary_head->Find("trace");
  ASSERT_NE(json_trace, nullptr);
  ASSERT_NE(binary_trace, nullptr);
  EXPECT_EQ(json_trace->Dump(), binary_trace->Dump());
  for (const char* key : {"queue_wait_us", "parse_us", "lock_wait_us",
                          "search_us", "encode_us", "total_us"}) {
    EXPECT_NE(json_trace->Find(key), nullptr) << key;
  }
}

TEST(ProtocolTest, MetricsCommandRendersIdenticallyUnderBothEncodings) {
  SessionRegistry registry{SessionOptions{}};
  ASSERT_TRUE(registry.HandleLine(LoadLine("s")).GetBool("ok"));
  protocol::Error error;
  JsonValue id;
  std::optional<protocol::Request> request =
      protocol::ParseRequest(R"({"v":2,"cmd":"METRICS"})", &error, &id);
  ASSERT_TRUE(request.has_value()) << error.message;
  protocol::Response response = registry.Handle(*request);
  EXPECT_FALSE(response.answers.has_value());
  std::string json =
      protocol::EncodeResponse(response, protocol::Encoding::kJson);
  std::string binary =
      protocol::EncodeResponse(response, protocol::Encoding::kBinary);
  EXPECT_EQ(json, binary);
  std::string parse_error;
  std::optional<JsonValue> head = JsonValue::Parse(
      std::string_view(json).substr(0, json.size() - 1), &parse_error);
  ASSERT_TRUE(head.has_value()) << parse_error;
  EXPECT_TRUE(head->GetBool("ok"));
  ASSERT_NE(head->Find("metrics"), nullptr);
  EXPECT_TRUE(head->Find("metrics")->is_array());
}

}  // namespace
}  // namespace vadalog
