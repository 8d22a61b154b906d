// Named reasoning sessions and the registry behind vadalogd.
//
// A session owns one parsed, classified program (a Reasoner) and one
// long-lived ProofSearchCache, so the cross-query memoization that makes
// repeated proof searches fast survives across requests and across
// clients — the whole point of running a daemon instead of the one-shot
// CLI. Concurrency contract:
//
//   * the lock protocol — which capability guards what, shared vs
//     exclusive per path, and the data-before-cache acquisition order —
//     is machine-checked: see the GUARDED_BY/REQUIRES/ACQUIRED_BEFORE
//     annotations on the members and methods below (and the README
//     "Concurrency invariants" table). `queries_waited` counts queries
//     that found a writer holding the cache lock (had to block before
//     starting), not queries serialized behind another query;
//   * ADD_FACTS delta-invalidates the cache instead of rebuilding it:
//     only refuted entries (exact tables + subsumption banks) whose
//     predicates fall in the inserted facts' affected cone — forward
//     reachability from the delta in pg(Σ) — are dropped; proven entries
//     and cone-disjoint refutations carry over warm with their soundness
//     intact (ProofSearchCache::InvalidateForDelta). Counted in
//     `cache_invalidations`. A batch that inserts nothing new (or fails)
//     leaves the cache untouched;
//   * ADD_FACTS is all-or-nothing including the symbol table: a failed
//     batch rolls back its interning generation, so repeated failing
//     batches do not grow the table (see SymbolTable::RollbackGeneration);
//   * enumerations answered by materialization (engine auto/chase, or any
//     engine on a stratified-negation program) of a *pooled* query — one
//     sent by query_index — are served from the session's answer memo:
//     the sorted certain answers of every query in the loaded program,
//     all filled by ONE chase (or Datalog fixpoint) on the first miss and
//     published while the shared data lock is still held, so a
//     concurrent ADD_FACTS (exclusive) can never be overtaken by a stale
//     fill. The materialized instance itself is dropped: the memo keeps
//     answers, not models. An ADD_FACTS that inserts at least one fact
//     clears it; a duplicate-only or failed batch keeps it. Inline query
//     texts and the proof-search engines never touch it. Counted in
//     `answer_memo_hits` / `answer_memo_misses`;
//   * concurrent identical proof searches run once (single-flight): a
//     proof-search QUERY arriving while an equal one (same query, engine
//     and budgets) is searching waits for that search's result. The
//     waiters are counted in `vadalog_session_queries_coalesced_total`
//     (their search runs no engine, so not in `vadalog_search_total`);
//   * the cache has a byte cap covering the proof cache and the answer
//     memo together (both are reported as `cache_bytes`): when a request
//     leaves them oversized the proof cache is generationally evicted
//     (dropped and rebuilt empty) and the memo cleared, counted in
//     `cache_evictions`. Entries cannot be evicted individually — a
//     SubsumptionIndex never forgets — so wholesale generations keep the
//     accounting simple and the worst case bounded at roughly one warm
//     generation.
//
// SessionRegistry::Handle() is the full command dispatcher mapping
// protocol::Request to a transport-independent protocol::Response (a
// JSON body plus an optional answer table); the socket server renders
// it under the connection's negotiated encoding, the in-process paths
// (HandleLine) render it to the v1 JSON value. One execution path,
// two encodings.

#ifndef VADALOG_SERVER_SESSION_H_
#define VADALOG_SERVER_SESSION_H_

#include <atomic>
#include <chrono>
#include <compare>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/mutex.h"
#include "base/single_flight.h"
#include "base/thread_annotations.h"
#include "engine/search_cache.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/protocol.h"
#include "vadalog/reasoner.h"

namespace vadalog {

struct SessionOptions {
  /// Generational eviction threshold for the per-session proof cache and
  /// answer memo together.
  size_t cache_byte_limit = 64ull << 20;
  /// Metrics registry every session registers its counter families in
  /// (the daemon's one registry). May be null; the SessionRegistry then
  /// owns a private one, so handles always exist and the counting paths
  /// stay branch-free.
  obs::MetricsRegistry* metrics = nullptr;
  /// Structured slow-query sink; null or a threshold of 0 disables the
  /// slow-query log entirely.
  obs::SlowQueryLog* slow_log = nullptr;
  /// Slow-query threshold in MICROseconds (ServerConfig's slow_query_ms
  /// times 1000; microseconds here so tests can set 1 and fire
  /// deterministically). 0 = disabled.
  uint64_t slow_query_micros = 0;
};

class Session {
 public:
  /// `program_text` is the LOAD_PROGRAM surface text, kept verbatim so
  /// ANALYZE can lint the *unnormalized* program (the Reasoner holds the
  /// single-head-normalized form, whose invented predicates and dropped
  /// source anchors would make diagnostics useless). Empty for sessions
  /// built programmatically; ANALYZE then reports EUNSUPPORTED.
  Session(std::string name, std::unique_ptr<Reasoner> reasoner,
          std::string program_text, const SessionOptions& options);

  const std::string& name() const { return name_; }

  /// Command implementations; each returns a complete response (ok or
  /// error) correlated to `request.id`. Query carries its answers as a
  /// structured table (rendered per-encoding by the transport).
  JsonValue AddFacts(const protocol::Request& request)
      EXCLUDES(data_mutex_, cache_mutex_, memo_mutex_);
  protocol::Response Query(const protocol::Request& request)
      EXCLUDES(data_mutex_, cache_mutex_, memo_mutex_);
  JsonValue Explain(const protocol::Request& request)
      EXCLUDES(data_mutex_, cache_mutex_, memo_mutex_);

  /// ANALYZE: re-parses the stored program text through the lint driver
  /// (analysis/lint.h) and returns the diagnostics as a JSON array plus
  /// severity counts and the fragment classification. Pure control-plane
  /// response (no answer table), so it renders identically under the v1
  /// JSON and v2 binary encodings.
  JsonValue Analyze(const protocol::Request& request);

  /// One {"name":...,"rules":...,...} stats object; lock-free counters
  /// plus a shared-lock peek at the program sizes.
  JsonValue StatsObject() EXCLUDES(data_mutex_, cache_mutex_, memo_mutex_);

  /// LOAD_PROGRAM's response payload (classification, sizes).
  JsonValue DescribeLoaded(const JsonValue& id) EXCLUDES(data_mutex_);

 private:
  /// Lets server_test hold proof-search leaders at the cache lock and
  /// count the waiters on their flights.
  friend struct SessionTestPeer;

  /// The session's registered instrument handles (vadalog_session_* /
  /// vadalog_search_* families, labeled {"session": name}). Registered
  /// once at construction; handles are registry-owned and stable, so the
  /// serving paths only ever do lock-free Adds. A session re-created
  /// under the same name (LOAD_PROGRAM replace:true) resolves to the
  /// SAME series and keeps counting cumulatively — the Prometheus model,
  /// and what lets an external scraper compare totals across reloads.
  struct Metrics {
    obs::Counter* queries = nullptr;
    obs::Counter* queries_waited = nullptr;
    obs::Counter* queries_coalesced = nullptr;
    obs::Counter* cache_evictions = nullptr;
    obs::Counter* cache_invalidations = nullptr;
    obs::Counter* cache_invalidated_entries = nullptr;
    obs::Counter* facts_added = nullptr;
    obs::Counter* slow_queries = nullptr;
    obs::Counter* answer_memo_hits = nullptr;
    obs::Counter* answer_memo_misses = nullptr;
    /// Proof cache plus answer memo bytes.
    obs::Gauge* cache_bytes = nullptr;
    /// Current generation's proof-cache probe totals (reset by
    /// eviction, hence gauges not counters).
    obs::Gauge* cache_lookups = nullptr;
    obs::Gauge* cache_probe_hits = nullptr;
    obs::Histogram* query_us = nullptr;
    obs::EngineCounters linear;
    obs::EngineCounters alternating;
  };

  /// Resolves the request's query (inline text — parsed under the write
  /// lock — or index into the loaded program). Returns false with
  /// `response` set to the error.
  bool ResolveQuery(const protocol::Request& request, ConjunctiveQuery* query,
                    JsonValue* response) EXCLUDES(data_mutex_);

  ReasonerOptions BuildOptions(const protocol::Request& request) const;

  /// One pooled query's certain answers as the memo keeps them: Terms,
  /// row-major in one flat vector (no allocation per row), rendered to
  /// strings on every hit.
  struct AnswerRows {
    size_t rows = 0;
    size_t columns = 0;
    std::vector<Term> cells;
  };
  static AnswerRows Flatten(const std::vector<std::vector<Term>>& answers);

  /// Everything a proof-search QUERY hands the engine besides the
  /// database state: the query (pooled index or inline text), the engine
  /// and the budgets. Concurrent QUERYs with equal keys share one search.
  struct SearchKey {
    int64_t query_index = -1;
    std::string query_text;
    std::string engine;
    uint64_t max_states = 0;
    uint64_t max_millis = 0;
    auto operator<=>(const SearchKey&) const = default;
  };
  /// A search's result as its leader hands it to coalesced waiters.
  struct SearchOutcome {
    CertainAnswerSet set;
    protocol::AnswerTable table;
  };

  /// The search + answer-render step of Query, factored out so the
  /// cache-holding and cache-free paths stay branch-uniform for the
  /// thread-safety analysis (a lock held on one arm of a join is a
  /// warning).
  void RunSearch(const ConjunctiveQuery& query, const ReasonerOptions& options,
                 CertainAnswerSet* set, protocol::AnswerTable* table,
                 obs::TraceSpans* spans) REQUIRES_SHARED(data_mutex_);

  /// RunSearch for the pooled query `index` of a program answered by
  /// materialization: a memo hit renders the kept answers; a miss
  /// materializes once, answers every pooled query, and publishes them
  /// all (when complete) before returning. `set` carries only the
  /// completeness/error signal — the answers go straight to `table`.
  void ServeFromMemo(size_t index, const ReasonerOptions& options,
                     CertainAnswerSet* set, protocol::AnswerTable* table,
                     obs::TraceSpans* spans) REQUIRES_SHARED(data_mutex_)
      EXCLUDES(cache_mutex_, memo_mutex_);

  /// Installs a complete fill unless a concurrent miss got there first
  /// (same database state, same answers), then applies the byte cap.
  /// REQUIRES the data lock so no ADD_FACTS can slip between the
  /// materialization and the publish.
  void PublishMemo(std::vector<std::shared_ptr<const AnswerRows>> entries)
      REQUIRES_SHARED(data_mutex_) EXCLUDES(cache_mutex_, memo_mutex_);

  size_t MemoBytes() EXCLUDES(memo_mutex_);
  void ClearMemo() EXCLUDES(memo_mutex_);

  /// Appends one JSON record to the slow-query log when the request's
  /// end-to-end time reached the configured threshold. No-op when the
  /// slow log is disabled.
  void MaybeLogSlowQuery(const protocol::Request& request,
                         const obs::TraceSpans& spans);

  /// Post-use cache bookkeeping: reads the byte figure (proof cache plus
  /// answer memo), and only when it crosses the cap upgrades to the
  /// exclusive cache lock, re-checks (another query may have evicted
  /// first), and applies the generational eviction, which clears the memo
  /// too. Refreshes the `cache_bytes` gauge either way so STATS tracks
  /// growth as it happens, not only at the next eviction.
  void FinishCacheUse() REQUIRES_SHARED(data_mutex_)
      EXCLUDES(cache_mutex_, memo_mutex_);

  const std::string name_;
  /// Original LOAD_PROGRAM text (immutable after construction; ANALYZE
  /// re-parses it without touching the session's live program).
  const std::string program_text_;
  const SessionOptions options_;
  /// The pointer itself is set once in the constructor; the capability
  /// guards the Reasoner behind it (program + database): queries take it
  /// shared (the Reasoner's query entry points are const and re-entrant),
  /// ADD_FACTS and inline-query parsing (which interns symbols) take it
  /// exclusive.
  std::unique_ptr<Reasoner> reasoner_ GUARDED_BY(data_mutex_);

  /// Guards program + database (reasoner_). ACQUIRED_BEFORE is the whole
  /// lock-order story: every nested acquisition in this class is data,
  /// then cache, then memo, so an inversion is a compile error under
  /// -Wthread-safety-beta (it used to be a prose rule in Query).
  base::SharedMutex data_mutex_ ACQUIRED_BEFORE(cache_mutex_, memo_mutex_);

  /// Guards the cache_ *pointer*: queries shared (pinning it against
  /// wholesale replacement), generational eviction and ADD_FACTS delta
  /// migration exclusive. Entry-level safety is the ProofSearchCache's
  /// own internal lock, so same-session proof-search queries run
  /// concurrently.
  base::SharedMutex cache_mutex_ ACQUIRED_BEFORE(memo_mutex_);
  std::unique_ptr<ProofSearchCache> cache_ GUARDED_BY(cache_mutex_);

  /// Guards the answer memo, innermost of the three. Held only to look up,
  /// install or clear entries — never across a materialization or a
  /// render (hits copy out a shared_ptr) — so it is only ever held
  /// briefly.
  base::Mutex memo_mutex_;
  /// One entry per query of reasoner_->program().queries(), or empty when
  /// unfilled. Every entry answers the current database state: fills
  /// publish under the shared data lock, and ADD_FACTS clears under the
  /// exclusive one.
  std::vector<std::shared_ptr<const AnswerRows>> memo_ GUARDED_BY(memo_mutex_);
  size_t memo_bytes_ GUARDED_BY(memo_mutex_) = 0;

  /// In-flight proof searches. Every participant of a flight holds the
  /// shared data lock from before it joins until it has the result, so
  /// no ADD_FACTS lands in between: a coalesced result always answers
  /// the database state the waiter sees. Waiters hold no cache or memo
  /// lock while they block, and leaders publish before FinishCacheUse
  /// (which may take the cache lock exclusively).
  base::SingleFlight<SearchKey, SearchOutcome> searches_;

  /// All per-session counters live in the metrics registry; STATS and
  /// METRICS read the same handles, one source of truth. (The former
  /// per-session atomics — queries_, cache_evictions_, ... — are these
  /// handles now.)
  Metrics metrics_;
};

class SessionRegistry {
 public:
  explicit SessionRegistry(const SessionOptions& defaults);

  /// Dispatches one parsed request (any command, HELLO included) to a
  /// transport-independent response. The socket server renders it under
  /// the connection's negotiated encoding.
  protocol::Response Handle(const protocol::Request& request);

  /// Parses one line, dispatches it, and renders the response as the v1
  /// JSON value (answers inlined); protocol errors become error
  /// responses. The entry point for the in-process client mode and the
  /// tests — paths with no connection and hence no negotiated state.
  JsonValue HandleLine(std::string_view line);

  size_t session_count();
  std::shared_ptr<Session> Find(const std::string& name);

  /// The registry every session and the dispatcher count into: the one
  /// handed in via SessionOptions, or the private fallback this
  /// SessionRegistry owns when none was (in-process tests). Never null.
  obs::MetricsRegistry* metrics() { return metrics_; }

  /// Counts one negotiated response encoding (HELLO outcome). The socket
  /// server calls this for connection HELLOs (which it intercepts before
  /// this dispatcher); in-process HELLOs count in Handle() itself.
  void CountNegotiatedEncoding(protocol::Encoding encoding);

 private:
  JsonValue LoadProgram(const protocol::Request& request);
  JsonValue Unload(const protocol::Request& request);
  JsonValue Stats(const protocol::Request& request);

  SessionOptions defaults_;  // metrics pointer patched to metrics_
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* metrics_ = nullptr;
  base::Mutex mutex_;
  std::map<std::string, std::shared_ptr<Session>> sessions_
      GUARDED_BY(mutex_);
  const std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  obs::Counter* requests_ = nullptr;
  obs::Counter* errors_ = nullptr;
  obs::Counter* negotiated_json_ = nullptr;
  obs::Counter* negotiated_binary_ = nullptr;
};

/// Renders a registry snapshot as the METRICS payload: one JSON object
/// per metric, sorted by (name, labels) — {"name","type","labels",
/// "help","value"} for counters and gauges, plus {"bounds","buckets"
/// (cumulative, last = +inf = "count"),"sum","count"} for histograms.
/// Identical bytes under both wire encodings (pure control response).
JsonValue RenderMetricsSnapshot(const obs::MetricsRegistry& registry);

/// Renders the span breakdown as the "trace" response object / slow-log
/// "spans" object: {"queue_wait_us",...,"encode_us","total_us"}.
JsonValue RenderTraceSpans(const obs::TraceSpans& spans);

}  // namespace vadalog

#endif  // VADALOG_SERVER_SESSION_H_
