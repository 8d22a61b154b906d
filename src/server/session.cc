#include "server/session.h"

#include <chrono>
#include <utility>

#include "analysis/lint.h"

namespace vadalog {

using protocol::Error;
using protocol::ErrorResponse;
using protocol::OkResponse;
using protocol::Request;

namespace {

EngineChoice EngineFromName(const std::string& name) {
  if (name == "chase") return EngineChoice::kChase;
  if (name == "linear") return EngineChoice::kLinearProof;
  if (name == "alternating") return EngineChoice::kAlternatingProof;
  return EngineChoice::kAuto;
}

protocol::AnswerTable RenderAnswers(const Reasoner& reasoner, size_t rows,
                                    size_t columns,
                                    const std::vector<Term>& cells) {
  protocol::AnswerTable table;
  table.row_count = rows;
  table.columns = columns;
  table.cells.reserve(cells.size());
  const SymbolTable& symbols = reasoner.program().symbols();
  for (Term t : cells) table.cells.push_back(symbols.TermToString(t));
  return table;
}

uint64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

Session::Session(std::string name, std::unique_ptr<Reasoner> reasoner,
                 std::string program_text, const SessionOptions& options)
    : name_(std::move(name)),
      program_text_(std::move(program_text)),
      options_(options),
      reasoner_(std::move(reasoner)) {
  cache_ = std::make_unique<ProofSearchCache>(reasoner_->program(),
                                              reasoner_->database());
  // Register the session's instrument handles once; every serving path
  // after this is lock-free Adds on them. The SessionRegistry guarantees
  // a non-null registry (it owns a fallback when the caller passed none).
  obs::MetricsRegistry* registry = options_.metrics;
  const obs::LabelSet labels = {{"session", name_}};
  metrics_.queries = registry->GetCounter(
      "vadalog_session_queries_total", labels, "QUERY requests served");
  metrics_.queries_waited = registry->GetCounter(
      "vadalog_session_queries_waited_total", labels,
      "queries that blocked behind a cache writer before starting");
  metrics_.queries_coalesced = registry->GetCounter(
      "vadalog_session_queries_coalesced_total", labels,
      "queries answered by an identical concurrent proof search");
  metrics_.cache_evictions = registry->GetCounter(
      "vadalog_session_cache_evictions_total", labels,
      "byte-cap generational evictions (whole cache dropped)");
  metrics_.cache_invalidations = registry->GetCounter(
      "vadalog_session_cache_invalidations_total", labels,
      "ADD_FACTS delta invalidation passes");
  metrics_.cache_invalidated_entries = registry->GetCounter(
      "vadalog_session_cache_invalidated_entries_total", labels,
      "cache entries dropped by delta invalidation");
  metrics_.facts_added = registry->GetCounter(
      "vadalog_session_facts_added_total", labels,
      "facts inserted by successful ADD_FACTS batches");
  metrics_.slow_queries = registry->GetCounter(
      "vadalog_session_slow_queries_total", labels,
      "requests recorded in the slow-query log");
  metrics_.answer_memo_hits = registry->GetCounter(
      "vadalog_session_answer_memo_hits_total", labels,
      "pooled enumerations served from the answer memo");
  metrics_.answer_memo_misses = registry->GetCounter(
      "vadalog_session_answer_memo_misses_total", labels,
      "pooled enumerations that materialized to fill the answer memo");
  metrics_.cache_bytes = registry->GetGauge(
      "vadalog_session_cache_bytes", labels,
      "approximate bytes of the session's proof cache and answer memo");
  metrics_.cache_lookups = registry->GetGauge(
      "vadalog_session_cache_lookups", labels,
      "proof-cache probes in the current cache generation");
  metrics_.cache_probe_hits = registry->GetGauge(
      "vadalog_session_cache_probe_hits", labels,
      "proof-cache probe hits in the current cache generation");
  metrics_.query_us = registry->GetHistogram(
      "vadalog_query_us", labels,
      "end-to-end QUERY serving time in microseconds");
  metrics_.linear = obs::MakeEngineCounters(
      registry, {{"session", name_}, {"engine", "linear"}});
  metrics_.alternating = obs::MakeEngineCounters(
      registry, {{"session", name_}, {"engine", "alternating"}});
  metrics_.cache_bytes->Set(
      static_cast<int64_t>(cache_->ApproximateBytes()));
}

ReasonerOptions Session::BuildOptions(const Request& request) const {
  ReasonerOptions options;
  options.engine = EngineFromName(request.engine);
  options.proof.max_states = request.max_states;
  options.proof.max_millis = request.max_millis;
  // Wire the matching per-(session, engine) counter family; the search
  // flushes its result totals there once at completion. EXPLAIN always
  // runs the linear search regardless of request.engine.
  if (request.cmd == protocol::Command::kExplain ||
      request.engine == "linear") {
    options.proof.metrics = &metrics_.linear;
  } else if (request.engine == "alternating") {
    options.proof.metrics = &metrics_.alternating;
  }
  return options;
}

size_t Session::MemoBytes() {
  base::MutexLock lock(&memo_mutex_);
  return memo_bytes_;
}

void Session::ClearMemo() {
  base::MutexLock lock(&memo_mutex_);
  memo_.clear();
  memo_bytes_ = 0;
}

void Session::FinishCacheUse() {
  size_t bytes;
  {
    base::ReaderLock cache_lock(&cache_mutex_);
    bytes = cache_->ApproximateBytes();
    // Generation-scoped probe figures (reset when the cache is evicted
    // or migrated, hence gauges): refreshed whenever a request finishes
    // with the cache, so METRICS tracks hit rates as they develop.
    const ProofSearchCache::Stats& stats = cache_->stats();
    metrics_.cache_lookups->Set(static_cast<int64_t>(
        stats.lookups.load(std::memory_order_relaxed)));
    metrics_.cache_probe_hits->Set(static_cast<int64_t>(
        stats.hits.load(std::memory_order_relaxed)));
  }
  bytes += MemoBytes();
  if (bytes > options_.cache_byte_limit) {
    // Generational eviction: drop the whole generation, start warm
    // again from empty (entries cannot be evicted individually), and the
    // answer memo with it. Replacing the cache_ pointer needs the
    // exclusive lock; re-check under it — a concurrent query may have
    // evicted first, and evicting twice would throw away the second
    // fresh generation's warmth for nothing.
    base::WriterLock cache_lock(&cache_mutex_);
    bytes = cache_->ApproximateBytes() + MemoBytes();
    if (bytes > options_.cache_byte_limit) {
      cache_ = std::make_unique<ProofSearchCache>(reasoner_->program(),
                                                  reasoner_->database());
      ClearMemo();
      metrics_.cache_evictions->Add(1);
      bytes = cache_->ApproximateBytes();
    }
  }
  metrics_.cache_bytes->Set(static_cast<int64_t>(bytes));
}

void Session::RunSearch(const ConjunctiveQuery& query,
                        const ReasonerOptions& options, CertainAnswerSet* set,
                        protocol::AnswerTable* table, obs::TraceSpans* spans) {
  auto search_start = std::chrono::steady_clock::now();
  *set = reasoner_->AnswerChecked(query, options);
  spans->search_us = ElapsedUs(search_start);
  if (set->error.empty()) {
    auto encode_start = std::chrono::steady_clock::now();
    AnswerRows rows = Flatten(set->answers);
    *table = RenderAnswers(*reasoner_, rows.rows, rows.columns, rows.cells);
    spans->encode_us = ElapsedUs(encode_start);
  }
}

Session::AnswerRows Session::Flatten(
    const std::vector<std::vector<Term>>& answers) {
  AnswerRows flat;
  flat.rows = answers.size();
  flat.columns = answers.empty() ? 0 : answers.front().size();
  flat.cells.reserve(flat.rows * flat.columns);
  for (const std::vector<Term>& tuple : answers) {
    flat.cells.insert(flat.cells.end(), tuple.begin(), tuple.end());
  }
  return flat;
}

void Session::ServeFromMemo(size_t index, const ReasonerOptions& options,
                            CertainAnswerSet* set, protocol::AnswerTable* table,
                            obs::TraceSpans* spans) {
  auto search_start = std::chrono::steady_clock::now();
  std::shared_ptr<const AnswerRows> entry;
  {
    base::MutexLock lock(&memo_mutex_);
    if (index < memo_.size()) entry = memo_[index];
  }
  if (entry != nullptr) {
    metrics_.answer_memo_hits->Add(1);
  } else {
    metrics_.answer_memo_misses->Add(1);
    // One materialization answers the whole pool; the instance is gone
    // again when this returns.
    std::vector<CertainAnswerSet> pool = reasoner_->AnswerAllByMaterialization(
        reasoner_->program().queries(), options.chase);
    // Every result of one materialization shares its error and
    // completeness, so `index`'s decide whether the fill is kept: an
    // incomplete (budget-cut) or failed one never is.
    set->complete = pool[index].complete;
    set->error = pool[index].error;
    std::vector<std::shared_ptr<const AnswerRows>> entries;
    entries.reserve(pool.size());
    for (const CertainAnswerSet& result : pool) {
      entries.push_back(std::make_shared<AnswerRows>(Flatten(result.answers)));
    }
    entry = entries[index];
    if (set->complete && set->error.empty()) PublishMemo(std::move(entries));
  }
  spans->search_us = ElapsedUs(search_start);
  if (set->error.empty()) {
    auto encode_start = std::chrono::steady_clock::now();
    *table = RenderAnswers(*reasoner_, entry->rows, entry->columns,
                           entry->cells);
    spans->encode_us = ElapsedUs(encode_start);
  }
}

void Session::PublishMemo(
    std::vector<std::shared_ptr<const AnswerRows>> entries) {
  {
    base::MutexLock lock(&memo_mutex_);
    if (memo_.empty()) {
      memo_bytes_ = entries.size() * sizeof(entries[0]);
      for (const auto& rows : entries) {
        memo_bytes_ += sizeof(AnswerRows) + rows->cells.size() * sizeof(Term);
      }
      memo_ = std::move(entries);
    }
  }
  FinishCacheUse();
}

bool Session::ResolveQuery(const Request& request, ConjunctiveQuery* query,
                           JsonValue* response) {
  if (!request.query_text.empty()) {
    // Inline query text interns symbols: writer lock, briefly.
    base::WriterLock lock(&data_mutex_);
    std::string error;
    std::optional<ConjunctiveQuery> parsed =
        reasoner_->ParseQuery(request.query_text, &error);
    if (!parsed.has_value()) {
      *response = ErrorResponse(Error{"EPARSE", error}, request.id);
      return false;
    }
    *query = std::move(*parsed);
    return true;
  }
  base::ReaderLock lock(&data_mutex_);
  const auto& queries = reasoner_->program().queries();
  if (request.query_index < 0 ||
      static_cast<size_t>(request.query_index) >= queries.size()) {
    *response = ErrorResponse(
        Error{"EBADREQ", "query_index out of range (program has " +
                             std::to_string(queries.size()) + " queries)"},
        request.id);
    return false;
  }
  *query = queries[static_cast<size_t>(request.query_index)];
  return true;
}

protocol::Response Session::Query(const Request& request) {
  // Span collection is unconditional — a handful of steady_clock reads
  // per request — so the slow-query log always has the breakdown even
  // for clients that never asked for a trace.
  auto start = std::chrono::steady_clock::now();
  obs::TraceSpans spans;
  spans.queue_wait_us = request.queue_wait_us;

  ConjunctiveQuery query;
  JsonValue response;
  if (!ResolveQuery(request, &query, &response)) {
    return protocol::Response(std::move(response));
  }
  spans.parse_us = ElapsedUs(start);
  ReasonerOptions options = BuildOptions(request);

  // Only the explicitly-selected proof-search engines read or write the
  // session cache; chase enumeration (auto/chase) and the stratified
  // Datalog evaluator never touch it, so those queries skip the cache
  // lock entirely and run fully concurrently.
  bool uses_proof_cache =
      request.engine == "linear" || request.engine == "alternating";

  CertainAnswerSet set;
  protocol::AnswerTable table;
  bool waited = false;
  bool coalesced = false;
  {
    base::ReaderLock data(&data_mutex_);
    if (request.query_text.empty() &&
        reasoner_->AnswersByMaterialization(options.engine)) {
      // A pooled enumeration answered by materialization: the answer memo
      // serves it (filling on a miss). Inline texts are not pooled.
      ServeFromMemo(static_cast<size_t>(request.query_index), options, &set,
                    &table, &spans);
    } else if (uses_proof_cache) {
      // Proof-search queries share the cache: the session lock is taken
      // SHARED (it only pins the cache_ pointer against a concurrent
      // generational eviction or delta migration), and the cache's own
      // reader-writer lock arbitrates entry access — so same-session
      // queries probe and record concurrently instead of serializing.
      // A failed try means a writer (eviction/ADD_FACTS) is active;
      // count (and time) the wait for observability. The acquisition
      // order (data before cache, so this cannot deadlock with
      // AddFacts) is compiler-checked: see ACQUIRED_BEFORE in session.h.
      //
      // An identical search already running (same key, and the same
      // database state: its leader holds the data lock too) is waited
      // for instead of repeated; the wait is this query's search span.
      auto flight_start = std::chrono::steady_clock::now();
      base::SingleFlight<SearchKey, SearchOutcome>::Call flight =
          searches_.Begin(SearchKey{request.query_index, request.query_text,
                                    request.engine, request.max_states,
                                    request.max_millis});
      if (flight.leader()) {
        if (!cache_mutex_.TryLockShared()) {
          waited = true;
          auto lock_start = std::chrono::steady_clock::now();
          cache_mutex_.LockShared();
          spans.lock_wait_us = ElapsedUs(lock_start);
        }
        options.proof.cache = cache_.get();
        RunSearch(query, options, &set, &table, &spans);
        cache_mutex_.UnlockShared();  // FinishCacheUse re-locks as needed
        // Copied for waiters only; a leader nobody joined just frees
        // the key.
        flight.PublishIfWaited([&] { return SearchOutcome{set, table}; });
        FinishCacheUse();
      } else {
        coalesced = true;
        set = flight.value()->set;
        table = flight.value()->table;
        spans.search_us = ElapsedUs(flight_start);
      }
    } else {
      RunSearch(query, options, &set, &table, &spans);
    }
  }
  metrics_.queries->Add(1);
  if (waited) metrics_.queries_waited->Add(1);
  if (coalesced) metrics_.queries_coalesced->Add(1);
  if (!set.error.empty()) {
    return protocol::Response(
        ErrorResponse(Error{"EUNSUPPORTED", set.error}, request.id));
  }
  spans.total_us = ElapsedUs(start);
  metrics_.query_us->Observe(spans.total_us);

  response = OkResponse(request.id);
  response.Set("session", JsonValue::String(name_));
  response.Set("complete", JsonValue::Bool(set.complete));
  response.Set("budget_exhausted_candidates",
               JsonValue::Number(set.budget_exhausted_candidates));
  response.Set("engine", JsonValue::String(request.engine));
  response.Set("cache",
               JsonValue::String(!uses_proof_cache ? "unused"
                                 : waited          ? "shared-waited"
                                                   : "shared"));
  response.Set("millis", JsonValue::Number(spans.total_us / 1000));
  if (request.trace) {
    // The trace rides in the response BODY, which is the head line under
    // every encoding — so v1 JSON and v2 binary carry identical spans.
    response.Set("trace", RenderTraceSpans(spans));
  }
  MaybeLogSlowQuery(request, spans);
  protocol::Response result(std::move(response));
  result.answers = std::move(table);
  return result;
}

void Session::MaybeLogSlowQuery(const Request& request,
                                const obs::TraceSpans& spans) {
  if (options_.slow_log == nullptr || options_.slow_query_micros == 0 ||
      spans.total_us < options_.slow_query_micros) {
    return;
  }
  metrics_.slow_queries->Add(1);
  JsonValue record = JsonValue::Object();
  record.Set("ts", JsonValue::String(obs::FormatTimestampUtc()));
  record.Set("session", JsonValue::String(name_));
  record.Set("cmd",
             JsonValue::String(protocol::CommandName(request.cmd)));
  record.Set("engine", JsonValue::String(request.engine));
  record.Set("spans", RenderTraceSpans(spans));
  options_.slow_log->Write(record.Dump());
}

JsonValue Session::Explain(const Request& request) {
  auto start = std::chrono::steady_clock::now();
  obs::TraceSpans spans;
  spans.queue_wait_us = request.queue_wait_us;
  {
    // Under the shared data lock like every reasoner_ read — this
    // pre-check used to run unlocked, which the thread-safety
    // annotations flagged (benign only because the classification is
    // immutable after construction, a guarantee nothing enforced).
    base::ReaderLock data(&data_mutex_);
    if (reasoner_->classification().uses_negation) {
      // The linear proof search behind EXPLAIN ignores negative bodies;
      // refuse rather than produce a proof the evaluator contradicts.
      return ErrorResponse(
          Error{"EUNSUPPORTED",
                "EXPLAIN runs the linear proof search, which does not "
                "support programs with negation"},
          request.id);
    }
  }
  ConjunctiveQuery query;
  JsonValue response;
  if (!ResolveQuery(request, &query, &response)) return response;
  spans.parse_us = ElapsedUs(start);
  if (request.answer.size() != query.output.size()) {
    return ErrorResponse(
        Error{"EBADREQ",
              "answer arity " + std::to_string(request.answer.size()) +
                  " does not match query output arity " +
                  std::to_string(query.output.size())},
        request.id);
  }
  std::vector<Term> answer;
  {
    base::WriterLock lock(&data_mutex_);  // interning
    SymbolTable::Generation generation = reasoner_->MarkSymbolGeneration();
    answer.reserve(request.answer.size());
    for (const std::string& name : request.answer) {
      answer.push_back(reasoner_->InternConstant(name));
    }
    // An answer naming a constant this session has never seen cannot be
    // certain when the query is safe (every output variable occurs in
    // the body): chase(D, Σ) only contains constants of D and Σ, and
    // homomorphisms are the identity on constants. Short-circuit to
    // "not certain" and release the speculative interning generation —
    // nothing (no cache state, no database row) holds the fresh ids, so
    // probing with arbitrary unknown constants does not grow the table.
    bool interned_fresh =
        reasoner_->MarkSymbolGeneration().constants > generation.constants;
    bool query_is_safe = true;
    for (Term t : query.output) {
      if (!t.is_variable()) continue;
      bool in_body = false;
      for (const Atom& atom : query.atoms) {
        for (Term arg : atom.args) {
          if (arg == t) {
            in_body = true;
            break;
          }
        }
        if (in_body) break;
      }
      if (!in_body) {
        query_is_safe = false;
        break;
      }
    }
    if (interned_fresh && query_is_safe) {
      reasoner_->RollbackSymbolGeneration(generation);
      response = OkResponse(request.id);
      response.Set("session", JsonValue::String(name_));
      response.Set("certain", JsonValue::Bool(false));
      response.Set("complete", JsonValue::Bool(true));
      response.Set("proof", JsonValue::String(""));
      return response;
    }
  }
  ReasonerOptions options = BuildOptions(request);
  std::string proof;
  ProofSearchResult result;
  {
    base::ReaderLock data(&data_mutex_);
    {
      // Shared, like Query: the proof search records through the
      // cache's internal lock; only the pointer needs pinning here.
      base::ReaderLock cache_lock(&cache_mutex_);
      options.proof.cache = cache_.get();
      auto search_start = std::chrono::steady_clock::now();
      result = reasoner_->Explain(query, answer, &proof, options);
      spans.search_us = ElapsedUs(search_start);
    }
    FinishCacheUse();
  }
  response = OkResponse(request.id);
  response.Set("session", JsonValue::String(name_));
  response.Set("certain", JsonValue::Bool(result.accepted));
  // As on QUERY: false when a budget cut the search short, so "certain":
  // false is then "not proved within the budget", not a refutation.
  response.Set("complete", JsonValue::Bool(!result.budget_exhausted));
  response.Set("proof", JsonValue::String(std::move(proof)));
  spans.total_us = ElapsedUs(start);
  if (request.trace) response.Set("trace", RenderTraceSpans(spans));
  MaybeLogSlowQuery(request, spans);
  return response;
}

JsonValue Session::Analyze(const Request& request) {
  if (program_text_.empty()) {
    return ErrorResponse(
        Error{"EUNSUPPORTED",
              "session was built without program text; nothing to analyze"},
        request.id);
  }
  // program_text_ is immutable after LOAD_PROGRAM and the lint driver
  // re-parses it into a private Program, so no session lock is needed:
  // ANALYZE runs fully concurrently with queries and ADD_FACTS.
  LintResult lint = LintSource(program_text_, name_);
  JsonValue response = OkResponse(request.id);
  response.Set("session", JsonValue::String(name_));
  JsonValue diagnostics = JsonValue::Array();
  for (const Diagnostic& d : lint.file.diagnostics) {
    JsonValue item = JsonValue::Object();
    item.Set("id", JsonValue::String(d.id));
    item.Set("severity",
             JsonValue::String(std::string(SeverityName(d.severity))));
    item.Set("line", JsonValue::Number(static_cast<uint64_t>(d.loc.line)));
    item.Set("column",
             JsonValue::Number(static_cast<uint64_t>(d.loc.column)));
    item.Set("message", JsonValue::String(d.message));
    JsonValue witness = JsonValue::Object();
    for (const auto& [key, value] : d.witness) {
      witness.Set(key, JsonValue::String(value));
    }
    item.Set("witness", std::move(witness));
    diagnostics.Append(std::move(item));
  }
  response.Set("diagnostics", std::move(diagnostics));
  response.Set("errors",
               JsonValue::Number(static_cast<uint64_t>(
                   lint.file.CountSeverity(Severity::kError))));
  response.Set("warnings",
               JsonValue::Number(static_cast<uint64_t>(
                   lint.file.CountSeverity(Severity::kWarning))));
  response.Set("notes",
               JsonValue::Number(static_cast<uint64_t>(
                   lint.file.CountSeverity(Severity::kNote))));
  if (lint.classification.has_value()) {
    const ProgramClassification& c = *lint.classification;
    JsonValue classification = JsonValue::Object();
    classification.Set("warded", JsonValue::Bool(c.warded));
    classification.Set("piecewise_linear",
                       JsonValue::Bool(c.piecewise_linear));
    classification.Set("datalog", JsonValue::Bool(c.datalog));
    classification.Set("uses_negation", JsonValue::Bool(c.uses_negation));
    classification.Set("recursion_bucket",
                       JsonValue::String(c.RecursionBucket()));
    response.Set("classification", std::move(classification));
  }
  return response;
}

JsonValue Session::AddFacts(const Request& request) {
  base::WriterLock lock(&data_mutex_);
  size_t before = reasoner_->database().size();
  std::vector<PredicateId> delta;
  std::string error = reasoner_->AddFactsText(request.facts, &delta);
  if (!error.empty()) {
    // All-or-nothing: AddFactsText rolled back the parsed clauses, the
    // database, and the batch's symbol-table generation — the session is
    // bitwise back where it was, warm cache included.
    return ErrorResponse(Error{"EPARSE", error}, request.id);
  }
  size_t added = reasoner_->database().size() - before;
  metrics_.facts_added->Add(added);
  ProofSearchCache::DeltaInvalidation invalidation;
  if (!delta.empty()) {
    // New facts can add answers to any pooled query: the memo answered
    // the old state. Cleared under the exclusive data lock, so no fill of
    // the old state can publish after this.
    ClearMemo();
    // No query can hold the cache here (queries hold the data lock
    // shared while they do), but the exclusive cache lock is still the
    // contract for migrating it. Delta maintenance instead of a rebuild:
    // only refuted entries whose supported-predicate cone intersects the
    // inserted predicates are dropped; everything else stays warm. An
    // all-duplicate batch has an empty delta and skips even this.
    base::WriterLock cache_lock(&cache_mutex_);
    invalidation = cache_->InvalidateForDelta(reasoner_->program(),
                                              reasoner_->database(), delta);
    metrics_.cache_invalidations->Add(1);
    metrics_.cache_invalidated_entries->Add(invalidation.exact_dropped +
                                            invalidation.subsumers_dropped);
    metrics_.cache_bytes->Set(
        static_cast<int64_t>(cache_->ApproximateBytes()));
  }
  JsonValue response = OkResponse(request.id);
  response.Set("session", JsonValue::String(name_));
  response.Set("added", JsonValue::Number(static_cast<uint64_t>(added)));
  response.Set("facts",
               JsonValue::Number(
                   static_cast<uint64_t>(reasoner_->database().size())));
  response.Set("affected_predicates",
               JsonValue::Number(static_cast<uint64_t>(
                   invalidation.affected_predicates)));
  response.Set("cache_entries_invalidated",
               JsonValue::Number(static_cast<uint64_t>(
                   invalidation.exact_dropped +
                   invalidation.subsumers_dropped)));
  return response;
}

JsonValue Session::StatsObject() {
  JsonValue object = JsonValue::Object();
  object.Set("name", JsonValue::String(name_));
  {
    base::ReaderLock lock(&data_mutex_);
    object.Set("rules", JsonValue::Number(static_cast<uint64_t>(
                            reasoner_->program().tgds().size())));
    object.Set("facts",
               JsonValue::Number(
                   static_cast<uint64_t>(reasoner_->database().size())));
    object.Set("queries_loaded",
               JsonValue::Number(static_cast<uint64_t>(
                   reasoner_->program().queries().size())));
    // Successful inline query texts intern symbols permanently (rolling
    // them back would dangle ids held by the cache); failed parses,
    // failed ADD_FACTS batches, and unknown EXPLAIN constants release
    // their generation, so only genuinely retained names grow this.
    object.Set("symbols",
               JsonValue::Number(static_cast<uint64_t>(
                   reasoner_->program().symbols().num_constants() +
                   reasoner_->program().symbols().num_predicates())));
    // Refresh the byte figure opportunistically so STATS reflects growth
    // since the last request finished; when a writer (eviction or delta
    // migration) holds the cache, the last stored value (at most one
    // request stale) is reported instead of blocking the stats path.
    if (cache_mutex_.TryLockShared()) {
      metrics_.cache_bytes->Set(
          static_cast<int64_t>(cache_->ApproximateBytes() + MemoBytes()));
      cache_mutex_.UnlockShared();
    }
  }
  // STATS reads the same registry handles METRICS snapshots — one source
  // of truth, no parallel atomics to drift.
  object.Set("queries_served", JsonValue::Number(metrics_.queries->Value()));
  object.Set("queries_waited",
             JsonValue::Number(metrics_.queries_waited->Value()));
  object.Set("cache_bytes",
             JsonValue::Number(
                 static_cast<uint64_t>(metrics_.cache_bytes->Value())));
  object.Set("cache_evictions",
             JsonValue::Number(metrics_.cache_evictions->Value()));
  object.Set("cache_invalidations",
             JsonValue::Number(metrics_.cache_invalidations->Value()));
  object.Set("cache_invalidated_entries",
             JsonValue::Number(metrics_.cache_invalidated_entries->Value()));
  object.Set("facts_added",
             JsonValue::Number(metrics_.facts_added->Value()));
  object.Set("answer_memo_hits",
             JsonValue::Number(metrics_.answer_memo_hits->Value()));
  object.Set("answer_memo_misses",
             JsonValue::Number(metrics_.answer_memo_misses->Value()));
  return object;
}

JsonValue Session::DescribeLoaded(const JsonValue& id) {
  JsonValue response = OkResponse(id);
  base::ReaderLock lock(&data_mutex_);
  const ProgramClassification& c = reasoner_->classification();
  response.Set("session", JsonValue::String(name_));
  response.Set("rules", JsonValue::Number(static_cast<uint64_t>(
                            reasoner_->program().tgds().size())));
  response.Set("facts",
               JsonValue::Number(
                   static_cast<uint64_t>(reasoner_->database().size())));
  response.Set("queries", JsonValue::Number(static_cast<uint64_t>(
                              reasoner_->program().queries().size())));
  JsonValue classification = JsonValue::Object();
  classification.Set("warded", JsonValue::Bool(c.warded));
  classification.Set("piecewise_linear", JsonValue::Bool(c.piecewise_linear));
  classification.Set("datalog", JsonValue::Bool(c.datalog));
  classification.Set("uses_negation", JsonValue::Bool(c.uses_negation));
  response.Set("classification", std::move(classification));
  return response;
}

SessionRegistry::SessionRegistry(const SessionOptions& defaults)
    : defaults_(defaults) {
  if (defaults_.metrics == nullptr) {
    // No registry supplied (in-process tests, bare registries): own one
    // so sessions and the dispatcher can count unconditionally.
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    defaults_.metrics = owned_registry_.get();
  }
  metrics_ = defaults_.metrics;
  requests_ = metrics_->GetCounter("vadalog_requests_total", {},
                                   "requests dispatched (all commands)");
  errors_ = metrics_->GetCounter("vadalog_request_errors_total", {},
                                 "requests answered with ok:false");
  negotiated_json_ = metrics_->GetCounter(
      "vadalogd_encoding_negotiated_total", {{"encoding", "json"}},
      "HELLO negotiations that settled on this response encoding");
  negotiated_binary_ = metrics_->GetCounter(
      "vadalogd_encoding_negotiated_total", {{"encoding", "binary"}},
      "HELLO negotiations that settled on this response encoding");
}

void SessionRegistry::CountNegotiatedEncoding(protocol::Encoding encoding) {
  (encoding == protocol::Encoding::kBinary ? negotiated_binary_
                                           : negotiated_json_)
      ->Add(1);
}

size_t SessionRegistry::session_count() {
  base::MutexLock lock(&mutex_);
  return sessions_.size();
}

std::shared_ptr<Session> SessionRegistry::Find(const std::string& name) {
  base::MutexLock lock(&mutex_);
  auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : it->second;
}

JsonValue SessionRegistry::LoadProgram(const Request& request) {
  std::string error;
  std::unique_ptr<Reasoner> reasoner =
      Reasoner::FromText(request.program, &error);
  if (reasoner == nullptr) {
    return ErrorResponse(Error{"EPARSE", error}, request.id);
  }
  std::shared_ptr<Session> session;
  {
    base::MutexLock lock(&mutex_);
    auto it = sessions_.find(request.session);
    if (it != sessions_.end() && !request.replace) {
      return ErrorResponse(
          Error{"EEXISTS", "session \"" + request.session +
                               "\" already loaded (set replace:true)"},
          request.id);
    }
    session = std::make_shared<Session>(request.session, std::move(reasoner),
                                        request.program, defaults_);
    sessions_[request.session] = session;
  }
  return session->DescribeLoaded(request.id);
}

JsonValue SessionRegistry::Unload(const Request& request) {
  std::shared_ptr<Session> removed;  // destroyed outside the lock
  {
    base::MutexLock lock(&mutex_);
    auto it = sessions_.find(request.session);
    if (it == sessions_.end()) {
      return ErrorResponse(
          Error{"ENOSESSION", "no session \"" + request.session + "\""},
          request.id);
    }
    removed = std::move(it->second);
    sessions_.erase(it);
  }
  JsonValue response = OkResponse(request.id);
  response.Set("session", JsonValue::String(request.session));
  return response;
}

JsonValue SessionRegistry::Stats(const Request& request) {
  if (!request.session.empty()) {
    std::shared_ptr<Session> session = Find(request.session);
    if (session == nullptr) {
      return ErrorResponse(
          Error{"ENOSESSION", "no session \"" + request.session + "\""},
          request.id);
    }
    JsonValue response = OkResponse(request.id);
    response.Set("session", session->StatsObject());
    return response;
  }
  std::vector<std::shared_ptr<Session>> sessions;
  {
    base::MutexLock lock(&mutex_);
    for (const auto& [name, session] : sessions_) sessions.push_back(session);
  }
  JsonValue response = OkResponse(request.id);
  JsonValue server = JsonValue::Object();
  server.Set("protocol_version", JsonValue::Number(protocol::kVersion));
  server.Set("protocol_max_version", JsonValue::Number(protocol::kMaxVersion));
  server.Set("sessions",
             JsonValue::Number(static_cast<uint64_t>(sessions.size())));
  server.Set("requests", JsonValue::Number(requests_->Value()));
  server.Set("errors", JsonValue::Number(errors_->Value()));
  server.Set("uptime_ms",
             JsonValue::Number(static_cast<uint64_t>(
                 std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start_)
                     .count())));
  JsonValue negotiated = JsonValue::Object();
  negotiated.Set("json", JsonValue::Number(negotiated_json_->Value()));
  negotiated.Set("binary", JsonValue::Number(negotiated_binary_->Value()));
  server.Set("encoding_negotiated", std::move(negotiated));
  response.Set("server", std::move(server));
  JsonValue list = JsonValue::Array();
  for (const std::shared_ptr<Session>& session : sessions) {
    list.Append(session->StatsObject());
  }
  response.Set("sessions", std::move(list));
  return response;
}

protocol::Response SessionRegistry::Handle(const Request& request) {
  requests_->Add(1);
  protocol::Response response;
  switch (request.cmd) {
    case protocol::Command::kHello: {
      // In-process callers have no connection, hence no per-connection
      // wire state to mutate — negotiate against a scratch state with
      // the default allowlist so HELLO still answers coherently (the
      // socket server intercepts HELLO before this dispatcher and
      // negotiates the real connection state, counting the outcome
      // itself via CountNegotiatedEncoding).
      protocol::WireState scratch;
      response = protocol::NegotiateHello(
          request,
          {protocol::Encoding::kJson, protocol::Encoding::kBinary},
          &scratch);
      if (response.body.GetBool("ok")) {
        CountNegotiatedEncoding(scratch.encoding);
      }
      break;
    }
    case protocol::Command::kMetrics: {
      JsonValue body = OkResponse(request.id);
      body.Set("metrics", RenderMetricsSnapshot(*metrics_));
      response = std::move(body);
      break;
    }
    case protocol::Command::kPing: {
      JsonValue pong = OkResponse(request.id);
      pong.Set("pong", JsonValue::Bool(true));
      pong.Set("v", JsonValue::Number(protocol::kVersion));
      response = std::move(pong);
      break;
    }
    case protocol::Command::kLoadProgram:
      response = LoadProgram(request);
      break;
    case protocol::Command::kUnload:
      response = Unload(request);
      break;
    case protocol::Command::kStats:
      response = Stats(request);
      break;
    case protocol::Command::kAnalyze:
    case protocol::Command::kAddFacts:
    case protocol::Command::kQuery:
    case protocol::Command::kExplain: {
      std::shared_ptr<Session> session = Find(request.session);
      if (session == nullptr) {
        response = ErrorResponse(
            Error{"ENOSESSION", "no session \"" + request.session + "\""},
            request.id);
        break;
      }
      if (request.cmd == protocol::Command::kAnalyze) {
        response = session->Analyze(request);
      } else if (request.cmd == protocol::Command::kAddFacts) {
        response = session->AddFacts(request);
      } else if (request.cmd == protocol::Command::kQuery) {
        response = session->Query(request);
      } else {
        response = session->Explain(request);
      }
      break;
    }
  }
  const JsonValue* ok = response.body.Find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->AsBool()) {
    errors_->Add(1);
  }
  return response;
}

JsonValue SessionRegistry::HandleLine(std::string_view line) {
  protocol::Error error;
  JsonValue id;
  std::optional<Request> request = protocol::ParseRequest(line, &error, &id);
  if (!request.has_value()) {
    requests_->Add(1);
    errors_->Add(1);
    return ErrorResponse(error, id);
  }
  return Handle(*request).ToJson();
}

JsonValue RenderTraceSpans(const obs::TraceSpans& spans) {
  JsonValue object = JsonValue::Object();
  for (const obs::SpanView& span : obs::SpanList(spans)) {
    object.Set(std::string(span.name) + "_us", JsonValue::Number(span.us));
  }
  object.Set("total_us", JsonValue::Number(spans.total_us));
  return object;
}

JsonValue RenderMetricsSnapshot(const obs::MetricsRegistry& registry) {
  JsonValue list = JsonValue::Array();
  for (const obs::Sample& sample : registry.Snapshot()) {
    JsonValue item = JsonValue::Object();
    item.Set("name", JsonValue::String(sample.name));
    item.Set("type",
             JsonValue::String(obs::MetricTypeName(sample.type)));
    JsonValue labels = JsonValue::Object();
    for (const auto& [key, value] : sample.labels) {
      labels.Set(key, JsonValue::String(value));
    }
    item.Set("labels", std::move(labels));
    if (!sample.help.empty()) {
      item.Set("help", JsonValue::String(sample.help));
    }
    if (sample.type == obs::MetricType::kHistogram) {
      // Cumulative counts; buckets[i] covers observations <= bounds[i],
      // the final count (no finite bound) is the +inf bucket == "count".
      JsonValue bounds = JsonValue::Array();
      JsonValue buckets = JsonValue::Array();
      for (size_t i = 0; i < sample.buckets.size(); ++i) {
        if (i + 1 < sample.buckets.size()) {
          bounds.Append(JsonValue::Number(obs::Histogram::BucketBound(i)));
        }
        buckets.Append(JsonValue::Number(sample.buckets[i]));
      }
      item.Set("bounds", std::move(bounds));
      item.Set("buckets", std::move(buckets));
      item.Set("sum", JsonValue::Number(sample.sum));
      item.Set("count", JsonValue::Number(sample.count));
    } else {
      // Counter totals are unsigned; gauges may legitimately be negative.
      if (sample.value < 0) {
        item.Set("value",
                 JsonValue::Number(static_cast<double>(sample.value)));
      } else {
        item.Set("value",
                 JsonValue::Number(static_cast<uint64_t>(sample.value)));
      }
    }
    list.Append(std::move(item));
  }
  return list;
}

}  // namespace vadalog
