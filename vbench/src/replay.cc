#include "replay.h"

#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "analysis/classify.h"
#include "ast/parser.h"
#include "base/rng.h"
#include "chase/chase.h"
#include "engine/alternating_search.h"
#include "engine/linear_search.h"
#include "engine/search_cache.h"
#include "server/protocol.h"
#include "storage/homomorphism.h"

namespace vbench {

namespace {

// Repetitions of the whole-program calls (parse, classify, index, chase);
// their median is reported.
constexpr int kRepeats = 5;
// Reads replayed after each of warm_stream's writes.
constexpr size_t kReadsPerWrite = 16;
// Session programs replayed (search_cold has one per round).
constexpr size_t kMaxSessions = 8;

struct Totals {
  std::vector<double> parse_us, classify_us, index_us, chase_us;
  std::vector<double> insert_us, invalidate_us, eval_us, encode_us;
  double parse_sum = 0, classify_sum = 0, index_sum = 0, chase_sum = 0;
  uint64_t steps = 0, rounds = 0, atoms = 0;
  size_t peak_instance_bytes = 0;

  uint64_t searches = 0, states = 0, subsumed = 0, subsumption_checks = 0;
  uint64_t exhausted = 0;
  size_t peak_state_bytes = 0, visited_bytes = 0, cache_bytes = 0;
  uint64_t lookups = 0, hits = 0;
  uint64_t writes = 0, invalidated_entries = 0;
};

/// Median wall time over kRepeats calls of `fn`.
template <typename Fn>
double MedianUs(Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < kRepeats; ++i) samples.push_back(TimeUs(fn));
  return Median(samples);
}

/// One boolean decision against the shared cache, as the session runs it.
void Decide(const vadalog::Reasoner& reasoner, const SessionSpec& session,
            const vadalog::ConjunctiveQuery& query,
            const vadalog::ProofSearchOptions& options,
            vadalog::ProofSearchCache* cache, bool count_probes,
            Totals* totals) {
  const vadalog::ProofSearchCache::Stats& stats = cache->stats();
  uint64_t lookups = stats.lookups.load();
  uint64_t hits = stats.hits.load();
  ++totals->searches;
  if (session.engine == "alternating") {
    vadalog::AlternatingSearchResult result = vadalog::AlternatingProofSearch(
        reasoner.program(), reasoner.database(), query, {}, options);
    totals->states += result.states_expanded;
    totals->subsumed += result.subsumed_discarded;
    totals->exhausted += result.budget_exhausted ? 1 : 0;
    totals->peak_state_bytes =
        std::max(totals->peak_state_bytes, result.peak_state_bytes);
  } else {
    vadalog::ProofSearchResult result = vadalog::LinearProofSearch(
        reasoner.program(), reasoner.database(), query, {}, options);
    totals->states += result.states_expanded;
    totals->subsumed += result.subsumed_discarded;
    totals->subsumption_checks += result.subsumption_checks;
    totals->exhausted += result.budget_exhausted ? 1 : 0;
    totals->peak_state_bytes =
        std::max(totals->peak_state_bytes, result.peak_state_bytes);
    totals->visited_bytes =
        std::max(totals->visited_bytes, result.visited_bytes);
  }
  if (count_probes) {
    totals->lookups += stats.lookups.load() - lookups;
    totals->hits += stats.hits.load() - hits;
  }
}

/// ADD_FACTS as the session runs it: insert, then migrate the cache.
/// Every migration is timed; only a write into a warm cache (after
/// decisions filled it) counts towards the dropped entries per write,
/// since the load's batches find the cache empty.
void AddFacts(vadalog::Reasoner* reasoner, vadalog::ProofSearchCache* cache,
              const std::string& facts, bool warm, Totals* totals) {
  std::vector<vadalog::PredicateId> delta;
  std::string error;
  totals->insert_us.push_back(
      TimeUs([&] { error = reasoner->AddFactsText(facts, &delta); }));
  if (!error.empty()) {
    std::fprintf(stderr, "vbench: replayed facts rejected: %s\n",
                 error.c_str());
    std::abort();
  }
  vadalog::ProofSearchCache::DeltaInvalidation dropped;
  totals->invalidate_us.push_back(TimeUs([&] {
    dropped = cache->InvalidateForDelta(reasoner->program(),
                                        reasoner->database(), delta);
  }));
  if (warm) {
    totals->invalidated_entries +=
        dropped.exact_dropped + dropped.subsumers_dropped;
    ++totals->writes;
  }
}

void ReplaySession(const WorkloadInputs& inputs, const SessionSpec& session,
                   size_t writes, Totals* totals) {
  // ast / analysis: the LOAD_PROGRAM text.
  vadalog::ParseResult parsed;
  totals->parse_sum +=
      MedianUs([&] { parsed = vadalog::ParseProgram(session.program); });
  if (!parsed.ok()) {
    std::fprintf(stderr, "vbench: replay parse failed: %s\n",
                 parsed.error.c_str());
    std::abort();
  }
  totals->classify_sum += MedianUs(
      [&] { (void)vadalog::ClassifyProgram(*parsed.program); });

  // The session: program loaded, cache built, database streamed in.
  std::unique_ptr<vadalog::Reasoner> reasoner =
      vadalog::Reasoner::FromText(session.program);
  vadalog::ProofSearchCache cache(reasoner->program(), reasoner->database());
  for (const std::string& batch : session.fact_batches) {
    AddFacts(reasoner.get(), &cache, batch, /*warm=*/false, totals);
  }
  totals->index_sum += MedianUs([&] {
    vadalog::ProofSearchCache fresh(reasoner->program(), reasoner->database());
  });

  // chase / storage / protocol: the chase engine's enumeration path.
  vadalog::ChaseResult chase;
  totals->chase_sum += MedianUs([&] {
    chase = vadalog::RunChase(reasoner->program(), reasoner->database());
  });
  totals->steps += chase.steps_applied;
  totals->rounds += chase.rounds;
  totals->atoms += chase.instance.size();
  totals->peak_instance_bytes =
      std::max(totals->peak_instance_bytes, chase.peak_instance_bytes);
  const vadalog::SymbolTable& symbols = reasoner->program().symbols();
  for (const vadalog::ConjunctiveQuery& query : reasoner->program().queries()) {
    std::vector<std::vector<vadalog::Term>> rows;
    totals->eval_us.push_back(TimeUs(
        [&] { rows = vadalog::EvaluateQuerySorted(query, chase.instance); }));
    vadalog::protocol::Response response(
        vadalog::protocol::OkResponse(vadalog::JsonValue()));
    vadalog::protocol::AnswerTable table;
    table.row_count = rows.size();
    table.columns = rows.empty() ? 0 : rows.front().size();
    for (const auto& row : rows) {
      for (vadalog::Term t : row) {
        table.cells.push_back(symbols.TermToString(t));
      }
    }
    response.answers = std::move(table);
    totals->encode_us.push_back(TimeUs([&] {
      (void)vadalog::protocol::EncodeResponse(
          response, vadalog::protocol::Encoding::kJson);
    }));
  }

  // engine: every pool decision once against the session cache, then
  // search_cold's cone write, or warm_stream's write stream with reads
  // between the writes.
  if (session.engine != "linear" && session.engine != "alternating") return;
  vadalog::ProofSearchOptions options;
  options.max_states = inputs.max_states;
  options.num_threads = 1;
  options.cache = &cache;
  const auto& queries = reasoner->program().queries();
  bool stream = !inputs.writes.empty();
  for (const vadalog::ConjunctiveQuery& query : queries) {
    Decide(*reasoner, session, query, options, &cache, !stream, totals);
  }
  if (!session.cone_write.empty()) {
    AddFacts(reasoner.get(), &cache, session.cone_write, /*warm=*/true,
             totals);
  }
  vadalog::Rng rng(inputs.seed ^ 0x5eed);
  for (size_t w = 0; w < writes && w < inputs.writes.size(); ++w) {
    AddFacts(reasoner.get(), &cache, inputs.writes[w].facts, /*warm=*/true,
             totals);
    for (size_t r = 0; r < kReadsPerWrite; ++r) {
      Decide(*reasoner, session, queries[rng.Below(queries.size())], options,
             &cache, true, totals);
    }
  }
  totals->cache_bytes += cache.ApproximateBytes();
}

}  // namespace

void ReplayLayers(const WorkloadInputs& inputs, size_t writes,
                  Metrics* metrics) {
  Totals t;
  for (size_t s = 0; s < inputs.sessions.size() && s < kMaxSessions; ++s) {
    ReplaySession(inputs, inputs.sessions[s], writes, &t);
  }
  auto add = [&](const std::string& name, double value, const char* unit,
                 uint64_t samples = 0) {
    (*metrics)[name] = Metric{value, unit, samples};
  };
  add("ast.parse_program_us", t.parse_sum, "us");
  add("analysis.classify_us", t.classify_sum, "us");
  add("engine.program_index_us", t.index_sum, "us");
  add("chase.materialize_us", t.chase_sum, "us");
  add("chase.steps_applied", static_cast<double>(t.steps), "count");
  add("chase.rounds", static_cast<double>(t.rounds), "count");
  add("chase.atoms", static_cast<double>(t.atoms), "count");
  add("chase.peak_instance_bytes", static_cast<double>(t.peak_instance_bytes),
      "bytes");
  add("storage.query_eval_us", Median(t.eval_us), "us", t.eval_us.size());
  add("storage.insert_us", Median(t.insert_us), "us", t.insert_us.size());
  add("server.encode_response_us_p50", Median(t.encode_us), "us",
      t.encode_us.size());
  double searches = static_cast<double>(t.searches);
  add("engine.states_expanded_per_query",
      Ratio(static_cast<double>(t.states), searches), "count", t.searches);
  add("engine.subsumed_per_query",
      Ratio(static_cast<double>(t.subsumed), searches), "count", t.searches);
  add("engine.subsumption_checks", static_cast<double>(t.subsumption_checks),
      "count", t.searches);
  add("engine.budget_exhausted_per_query",
      Ratio(static_cast<double>(t.exhausted), searches), "count", t.searches);
  add("engine.peak_state_bytes", static_cast<double>(t.peak_state_bytes),
      "bytes");
  add("engine.visited_bytes", static_cast<double>(t.visited_bytes), "bytes");
  add("engine.cache_bytes", static_cast<double>(t.cache_bytes), "bytes");
  add("engine.cache_hit_ratio",
      Ratio(static_cast<double>(t.hits), static_cast<double>(t.lookups)),
      "ratio", t.lookups);
  // A mean, not a median: search_cold's calls are half load batches into
  // an empty cache and half writes into a warm one.
  add("engine.invalidate_us",
      Ratio(std::accumulate(t.invalidate_us.begin(), t.invalidate_us.end(),
                            0.0),
            static_cast<double>(t.invalidate_us.size())),
      "us", t.invalidate_us.size());
  add("engine.cache_invalidated_entries_per_write",
      Ratio(static_cast<double>(t.invalidated_entries),
            static_cast<double>(t.writes)),
      "count", t.writes);
}

}  // namespace vbench
