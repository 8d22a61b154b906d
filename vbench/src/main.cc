// vbench_load — the end-to-end benchmark of vadalogd (see
// vbench/README.md). One invocation runs one workload against a freshly
// spawned daemon:
//
//   vbench_load --daemon PATH --workload NAME --seed N --seconds S
//                 --trace 0|1
//
// Set-up (spawn, HELLO, LOAD_PROGRAM + ADD_FACTS of every session, and
// the warm-up pass where the workload has one) is repeated before and
// after the measured phase and its median reported; the last daemon set
// up before the phase serves it. Every answer is checked against the
// chase oracle (inputs.h).
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer ones: the daemon's trace
// spans and METRICS deltas over a traced half-phase, and the in-process
// layer replay (replay.h). The load is one thread polling every
// connection; the process exits non-zero on any answer mismatch or
// failed request.

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "base/rng.h"
#include "daemon.h"
#include "inputs.h"
#include "replay.h"
#include "report.h"

namespace vbench {
namespace {

using vadalog::JsonValue;

constexpr size_t kConnections = 4;
// Set-ups per run: kSetupsBefore before the measured phase (the last
// daemon serves it) and kSetupsAfter after it, so that the median spans
// the run rather than one moment of the host.
constexpr int kSetupsBefore = 8;
constexpr int kSetupsAfter = 7;
// search_cold: distinct decisions each connection sends after a round's
// stampede.
constexpr size_t kDistinctPerConnection = 3;
// warm_stream: connection kWriter writes, the others read, pausing
// kReaderThinkTime between a reply and their next request.
constexpr size_t kWriter = 3;
constexpr auto kReaderThinkTime = std::chrono::milliseconds(1);

enum Kind : int { kLoad = 0, kQuery = 1, kAddFacts = 2 };

constexpr const char* kMetricsLine = R"({"cmd":"METRICS"})";

struct Args {
  std::string daemon;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one measured phase (or the set-up) observed.
struct PhaseStats {
  Clock::time_point start, end;
  std::vector<double> query_ms;             // ok QUERY responses
  std::vector<Clock::time_point> query_at;  // arrival of each query_ms
  std::vector<double> add_facts_ms;  // ok ADD_FACTS, from when each was due
  std::vector<double> writer_late_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t completed = 0;  // ok QUERY responses inside the phase window
  uint64_t answered = 0;   // ok QUERY responses, drain included
  uint64_t incomplete = 0;
  uint64_t mismatches = 0;
  // trace spans of traced QUERY responses, in microseconds
  std::vector<double> queue_wait, parse, lock_wait, search, encode, wire;
  std::vector<double> search_linear, search_alternating;
};

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

Rows RowsOf(const JsonValue& response) {
  Rows rows;
  if (const JsonValue* answers = response.Find("answers")) {
    for (const JsonValue& row : answers->Items()) {
      std::vector<std::string> tuple;
      for (const JsonValue& cell : row.Items()) {
        tuple.push_back(cell.AsString());
      }
      rows.push_back(std::move(tuple));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// A complete answer must equal the oracle's; an incomplete one (a
/// budget gave up) must be a subset of it.
bool Matches(const Rows& got, const Rows& expected, bool complete) {
  if (complete) return got == expected;
  return std::includes(expected.begin(), expected.end(), got.begin(),
                       got.end());
}

std::string LoadLine(const SessionSpec& session) {
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::String("LOAD_PROGRAM"));
  request.Set("session", JsonValue::String(session.name));
  request.Set("replace", JsonValue::Bool(true));
  request.Set("program", JsonValue::String(session.program));
  return request.Dump();
}

std::string AddFactsLine(const std::string& session, const std::string& facts) {
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::String("ADD_FACTS"));
  request.Set("session", JsonValue::String(session));
  request.Set("facts", JsonValue::String(facts));
  return request.Dump();
}

std::string QueryLine(const SessionSpec& session, size_t index,
                      uint64_t max_states, bool trace) {
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::String("QUERY"));
  request.Set("session", JsonValue::String(session.name));
  request.Set("query_index", JsonValue::Number(static_cast<uint64_t>(index)));
  if (session.engine != "auto") {
    request.Set("engine", JsonValue::String(session.engine));
  }
  if (max_states != 0) request.Set("max_states", JsonValue::Number(max_states));
  if (trace) request.Set("trace", JsonValue::Bool(true));
  return request.Dump();
}

/// Sums every sample of each metric family in a METRICS response.
std::map<std::string, double> SumByName(const JsonValue& response) {
  std::map<std::string, double> sums;
  if (const JsonValue* list = response.Find("metrics")) {
    for (const JsonValue& sample : list->Items()) {
      const JsonValue* value = sample.Find("value");
      if (value != nullptr) {
        sums[sample.GetString("name")] += value->AsNumber();
      }
    }
  }
  return sums;
}

/// One workload's protocol client: set-up, measured phases and answer
/// checks, over a Client whose connections it schedules.
class Workload {
 public:
  explicit Workload(const WorkloadInputs& inputs)
      : in_(inputs), rng_(inputs.seed ^ 0x10adull) {
    for (const SessionSpec& session : in_.sessions) {
      Lines lines;
      for (size_t q = 0; q < session.num_queries; ++q) {
        lines.query.push_back(QueryLine(session, q, in_.max_states, false));
        lines.traced.push_back(QueryLine(session, q, in_.max_states, true));
      }
      lines_.push_back(std::move(lines));
      Oracle oracle(session);
      expected_.push_back(oracle.Answers());
    }
  }

  /// Loads the set-up sessions and runs the warm-up pass (warm_stream).
  bool Setup(Client* client, PhaseStats* stats, std::string* error) {
    std::vector<size_t> sessions;
    for (size_t s = 0; s < in_.setup_sessions; ++s) sessions.push_back(s);
    if (!Load(client, sessions, stats, error)) return false;
    if (in_.workload == "warm_stream") {
      // Warm-up: every pool decision once, over all connections.
      size_t next = 0;
      const size_t count = in_.sessions[0].num_queries;
      auto send = [&](size_t conn, Clock::time_point now) {
        if (next >= count) return false;
        client->Send(conn, lines_[0].query[next], {now, now, kQuery, next});
        ++next;
        return true;
      };
      auto done = [&](const Arrival& a) {
        OnQuery(a, 0, Clock::time_point::max(), stats);
      };
      return Drive(client, stats, error, send, done);
    }
    return true;
  }

  /// Runs the measured load for `seconds`.
  bool Phase(Client* client, double seconds, bool traced, PhaseStats* stats,
             std::string* error) {
    traced_ = traced;
    Clock::time_point start = Clock::now();
    Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    stats->start = start;
    stats->end = end;
    if (in_.workload == "chase_enum") {
      return EnumPhase(client, end, stats, error);
    }
    if (in_.workload == "search_cold") {
      return ColdPhase(client, end, stats, error);
    }
    return StreamPhase(client, start, end, stats, error);
  }

  /// Remembers where the request sequence stands (the seeded draws and
  /// search_cold's round), so a later phase can replay it from there.
  void Mark() {
    marked_rng_ = rng_;
    marked_round_ = round_;
  }

  /// Returns the request sequence to the last Mark(): the traced half of
  /// a traced run sends the untraced half's rounds and queries again, so
  /// the tracing overhead compares like with like.
  void Rewind() {
    rng_ = marked_rng_;
    round_ = marked_round_;
  }

  /// warm_stream's deferred check: each read against the oracle at every
  /// write prefix its request overlapped.
  void VerifyReads(PhaseStats* stats) {
    if (reads_.empty()) return;
    uint64_t last = 0;
    for (const Read& read : reads_) last = std::max(last, read.hi);
    Oracle oracle(in_.sessions[0]);
    std::vector<std::vector<Rows>> at_prefix;
    at_prefix.push_back(oracle.Answers());
    for (uint64_t k = 0; k < last; ++k) {
      oracle.AddFacts(in_.writes[k].facts);
      at_prefix.push_back(oracle.Answers());
    }
    for (const Read& read : reads_) {
      bool ok = false;
      for (uint64_t k = read.lo; k <= read.hi && !ok; ++k) {
        ok = Matches(read.rows, at_prefix[k][read.query], read.complete);
      }
      if (!ok) Mismatch(stats, 0, read.query, "at no write prefix in range");
    }
  }

 private:
  struct Lines {
    std::vector<std::string> query, traced;
  };
  struct Read {
    size_t query;
    uint64_t lo, hi;
    Rows rows;
    bool complete;
  };

  const std::string& Line(size_t session, size_t query) const {
    const Lines& lines = lines_[session];
    return traced_ ? lines.traced[query] : lines.query[query];
  }

  /// LOAD_PROGRAM replace:true and the ADD_FACTS batches of each session,
  /// in parallel: connection c takes sessions c, c + 4, ... and sends
  /// their lines in order. A failed request ends the run.
  bool Load(Client* client, const std::vector<size_t>& sessions,
            PhaseStats* stats, std::string* error) {
    std::vector<std::vector<std::string>> scripts(client->size());
    for (size_t i = 0; i < sessions.size(); ++i) {
      const SessionSpec& session = in_.sessions[sessions[i]];
      std::vector<std::string>& script = scripts[i % scripts.size()];
      script.push_back(LoadLine(session));
      for (const std::string& batch : session.fact_batches) {
        script.push_back(AddFactsLine(session.name, batch));
      }
    }
    std::vector<size_t> next(scripts.size(), 0);
    bool ok = true;
    return Drive(client, stats, error, [&](size_t conn, Clock::time_point now) {
      if (!ok || next[conn] >= scripts[conn].size()) return false;
      client->Send(conn, scripts[conn][next[conn]++], {now, now, kLoad});
      return true;
    }, [&](const Arrival& a) {
      std::optional<JsonValue> response = JsonValue::Parse(a.line, nullptr);
      if (!response.has_value() || !response->GetBool("ok")) {
        ++stats->failed;
        *error = "load request failed: " + a.line;
        ok = false;
      } else if (response->Find("added") != nullptr) {
        stats->add_facts_ms.push_back(Ms(a.at - a.pending.sent));
      }
    }) && ok;
  }

  /// Closed-loop scheduler: `next(conn, now)` sends the idle connection's
  /// next request (false: nothing left), `done(arrival)` consumes a
  /// response. Returns when every connection is idle and has nothing left.
  template <typename Next, typename Done>
  bool Drive(Client* client, PhaseStats* stats, std::string* error, Next next,
             Done done) {
    std::vector<Arrival> arrivals;
    while (true) {
      Clock::time_point now = Clock::now();
      for (size_t c = 0; c < client->size(); ++c) {
        if (!client->busy(c) && next(c, now)) ++stats->attempted;
      }
      if (!client->AnyBusy()) return true;
      arrivals.clear();
      if (!client->Poll(std::chrono::milliseconds(100), &arrivals, error)) {
        ++stats->failed;
        return false;
      }
      for (const Arrival& a : arrivals) done(a);
    }
  }

  void Mismatch(PhaseStats* stats, size_t session, size_t query,
                const char* how) {
    if (stats->mismatches++ < 5) {
      std::fprintf(stderr,
                   "vbench: answer mismatch (%s) on session %s query %zu\n",
                   how, in_.sessions[session].name.c_str(), query);
    }
  }

  /// Consumes one QUERY response: latency, completeness, spans, and the
  /// answer check (deferred for warm_stream's reads).
  void OnQuery(const Arrival& a, size_t session, Clock::time_point end,
               PhaseStats* stats) {
    std::optional<JsonValue> response = JsonValue::Parse(a.line, nullptr);
    if (!response.has_value() || !response->GetBool("ok")) {
      if (stats->failed++ < 5) {
        std::fprintf(stderr, "vbench: QUERY failed: %s\n", a.line.c_str());
      }
      return;
    }
    double ms = Ms(a.at - a.pending.sent);
    stats->query_ms.push_back(ms);
    stats->query_at.push_back(a.at);
    ++stats->answered;
    if (a.at <= end) ++stats->completed;
    bool complete = response->GetBool("complete", true);
    if (!complete) ++stats->incomplete;
    size_t query = a.pending.item;
    // warm_stream's measured reads race the writer and are checked once
    // the run is over; warm-up replies (no deadline) precede every write.
    if (in_.workload == "warm_stream" && end != Clock::time_point::max()) {
      reads_.push_back({query, a.pending.lo, writes_sent_, RowsOf(*response),
                        complete});
    } else if (!Matches(RowsOf(*response), expected_[session][query],
                        complete)) {
      Mismatch(stats, session, query, "vs chase oracle");
    }
    if (const JsonValue* trace = response->Find("trace")) {
      double total = static_cast<double>(trace->GetUint("total_us"));
      double queue = static_cast<double>(trace->GetUint("queue_wait_us"));
      double search = static_cast<double>(trace->GetUint("search_us"));
      stats->queue_wait.push_back(queue);
      stats->parse.push_back(static_cast<double>(trace->GetUint("parse_us")));
      stats->lock_wait.push_back(
          static_cast<double>(trace->GetUint("lock_wait_us")));
      stats->search.push_back(search);
      stats->encode.push_back(static_cast<double>(trace->GetUint("encode_us")));
      stats->wire.push_back(ms * 1000.0 - total - queue);
      const std::string& engine = in_.sessions[session].engine;
      if (engine == "linear") stats->search_linear.push_back(search);
      if (engine == "alternating") stats->search_alternating.push_back(search);
    }
  }

  bool EnumPhase(Client* client, Clock::time_point end, PhaseStats* stats,
                 std::string* error) {
    return Drive(client, stats, error, [&](size_t conn, Clock::time_point now) {
      if (now >= end) return false;
      size_t s = rng_.Below(in_.sessions.size());
      size_t q = rng_.Below(in_.sessions[s].num_queries);
      client->Send(conn, Line(s, q), {now, now, kQuery, q, s});
      return true;
    }, [&](const Arrival& a) { OnQuery(a, a.pending.session, end, stats); });
  }

  /// Rounds: reload the next session program (a cold cache), stampede
  /// one refutation on every connection, then distinct decisions per
  /// connection, closed loop.
  bool ColdPhase(Client* client, Clock::time_point end, PhaseStats* stats,
                 std::string* error) {
    while (Clock::now() < end) {
      size_t s = round_++ % in_.sessions.size();
      const SessionSpec& session = in_.sessions[s];
      if (!Load(client, {s}, stats, error)) return false;
      size_t stampede = rng_.Below(std::max<size_t>(session.num_refuted, 1));
      std::vector<size_t> rest;
      for (size_t q = 0; q < session.num_queries; ++q) {
        if (q != stampede) rest.push_back(q);
      }
      size_t draws =
          std::min(rest.size(), kConnections * kDistinctPerConnection);
      for (size_t i = 0; i < draws; ++i) {
        std::swap(rest[i], rest[i + rng_.Below(rest.size() - i)]);
      }
      auto done = [&](const Arrival& a) { OnQuery(a, s, end, stats); };
      std::vector<bool> stampeded(client->size(), false);
      if (!Drive(client, stats, error, [&](size_t conn, Clock::time_point now) {
            if (stampeded[conn] || now >= end) return false;
            stampeded[conn] = true;
            client->Send(conn, Line(s, stampede), {now, now, kQuery, stampede});
            return true;
          }, done)) {
        return false;
      }
      std::vector<size_t> sent(client->size(), 0);
      if (!Drive(client, stats, error, [&](size_t conn, Clock::time_point now) {
            size_t pick = conn * kDistinctPerConnection + sent[conn];
            if (now >= end || sent[conn] >= kDistinctPerConnection ||
                pick >= draws) {
              return false;
            }
            ++sent[conn];
            client->Send(conn, Line(s, rest[pick]),
                         {now, now, kQuery, rest[pick]});
            return true;
          }, done)) {
        return false;
      }
    }
    return true;
  }

  /// Three closed-loop readers plus one writer on a fixed schedule.
  /// Each reader owns a slice of the pool (query index = reader mod 3),
  /// so concurrent refutations of one decision — search_cold's stampede —
  /// stay out of this workload, and waits kReaderThinkTime between a
  /// reply and its next request, as an application thread does some work
  /// with each answer. Write i is due kWritePeriodMs * i after the phase
  /// starts and is sent once due and once the previous write is
  /// acknowledged; its latency counts from when it was due.
  bool StreamPhase(Client* client, Clock::time_point start,
                   Clock::time_point end, PhaseStats* stats,
                   std::string* error) {
    const SessionSpec& session = in_.sessions[0];
    const size_t count = session.num_queries;
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(kWritePeriodMs));
    const uint64_t first_write = writes_sent_;
    std::vector<Clock::time_point> ready_at(client->size(), start);
    std::vector<Arrival> arrivals;
    while (true) {
      Clock::time_point now = Clock::now();
      Clock::time_point due = start + period * (writes_sent_ - first_write);
      if (!client->busy(kWriter) && due < end && now >= due &&
          writes_sent_ < in_.writes.size()) {
        client->Send(kWriter,
                     AddFactsLine(session.name, in_.writes[writes_sent_].facts),
                     {now, due, kAddFacts, writes_sent_});
        stats->writer_late_ms.push_back(Ms(now - due));
        ++writes_sent_;
        ++stats->attempted;
      }
      Clock::time_point wake = now + std::chrono::milliseconds(100);
      for (size_t c = 0; c < client->size(); ++c) {
        if (c == kWriter || client->busy(c) || now >= end) continue;
        if (now < ready_at[c]) {
          wake = std::min(wake, ready_at[c]);
          continue;
        }
        size_t slice = (count - c + kWriter - 1) / kWriter;
        size_t q = c + kWriter * rng_.Below(slice);
        Pending pending{now, now, kQuery, q};
        pending.lo = writes_acked_;
        client->Send(c, Line(0, q), pending);
        ++stats->attempted;
      }
      if (now >= end && !client->AnyBusy()) return true;
      if (!client->busy(kWriter) && due < end) wake = std::min(wake, due);
      arrivals.clear();
      if (!client->Poll(std::max(Clock::duration::zero(), wake - now),
                        &arrivals, error)) {
        ++stats->failed;
        return false;
      }
      for (const Arrival& a : arrivals) {
        if (a.pending.kind == kQuery) {
          OnQuery(a, 0, end, stats);
          ready_at[a.conn] = a.at + kReaderThinkTime;
          continue;
        }
        std::optional<JsonValue> response = JsonValue::Parse(a.line, nullptr);
        if (!response.has_value() || !response->GetBool("ok")) {
          ++stats->failed;
          *error = "ADD_FACTS failed: " + a.line;
          return false;  // later reads' prefixes would be unknown
        }
        writes_acked_ = a.pending.item + 1;
        stats->add_facts_ms.push_back(Ms(a.at - a.pending.due));
      }
    }
  }

  const WorkloadInputs& in_;
  vadalog::Rng rng_;
  vadalog::Rng marked_rng_{0};
  size_t marked_round_ = 0;
  std::vector<Lines> lines_;
  std::vector<std::vector<Rows>> expected_;  // per session, per query
  bool traced_ = false;
  size_t round_ = 0;
  uint64_t writes_sent_ = 0;
  uint64_t writes_acked_ = 0;
  std::vector<Read> reads_;
};

void Add(Metrics* metrics, const std::string& name, double value,
         const char* unit, uint64_t samples = 0) {
  (*metrics)[name] = Metric{value, unit, samples};
}

/// The measured phase cut into equal windows of at least
/// kSamplesPerWindow replies each (at most kMaxWindows): the end-to-end
/// latency and throughput figures are medians over the windows, so a
/// burst of interference from other tenants of the host moves one
/// window's figure, not the run's.
struct Windowed {
  double p50_ms = 0, p90_ms = 0, p99_ms = 0, qps = 0;
  size_t windows = 0;
  std::vector<double> qps_series, p99_series;
};

Windowed WindowMedians(const PhaseStats& stats) {
  constexpr size_t kSamplesPerWindow = 1000;
  constexpr size_t kMaxWindows = 8;
  Windowed w;
  w.windows = std::clamp<size_t>(stats.query_ms.size() / kSamplesPerWindow, 1,
                                 kMaxWindows);
  const double length =
      std::chrono::duration<double>(stats.end - stats.start).count() /
      static_cast<double>(w.windows);
  std::vector<std::vector<double>> samples(w.windows);
  std::vector<double> done(w.windows, 0.0);
  for (size_t i = 0; i < stats.query_ms.size(); ++i) {
    double offset =
        std::chrono::duration<double>(stats.query_at[i] - stats.start).count();
    size_t window =
        std::min(w.windows - 1, static_cast<size_t>(offset / length));
    samples[window].push_back(stats.query_ms[i]);
    if (stats.query_at[i] <= stats.end) done[window] += 1.0;
  }
  std::vector<double> p50, p90, p99;
  for (size_t i = 0; i < w.windows; ++i) {
    p50.push_back(Percentile(samples[i], 0.5));
    p90.push_back(Percentile(samples[i], 0.9));
    p99.push_back(Percentile(samples[i], 0.99));
    w.p99_series.push_back(p99.back());
    w.qps_series.push_back(done[i] / length);
  }
  w.p50_ms = Median(p50);
  w.p90_ms = Median(p90);
  w.p99_ms = Median(p99);
  w.qps = Median(w.qps_series);
  return w;
}

/// Sets up a daemon `count` times (all but the last are stopped again),
/// appending each set-up's seconds to `samples`; `daemon`/`client` keep
/// the last.
bool SetUp(const Args& args, int count, Workload* workload,
           DaemonProcess* daemon, Client* client, PhaseStats* stats,
           std::vector<double>* samples, std::string* error) {
  for (int i = 0; i < count; ++i) {
    client->Close();
    daemon->Stop();
    Clock::time_point start = Clock::now();
    if (!daemon->Start(args.daemon, error) ||
        !client->Open(*daemon, kConnections, error) ||
        !workload->Setup(client, stats, error)) {
      return false;
    }
    samples->push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
  return true;
}

void PrintInputs(const WorkloadInputs& inputs) {
  std::printf("workload %s  seed %" PRIu64 "  inputs %016" PRIx64 "\n",
              inputs.workload.c_str(), inputs.seed, inputs.Fingerprint());
  // One line per kind of session: chase_enum's enum0, enum1, ... share
  // one, and search_cold reloads each name with a new program per round.
  std::map<std::string, std::vector<const SessionSpec*>> by_name;
  for (const SessionSpec& session : inputs.sessions) {
    std::string kind = session.name;
    while (!kind.empty() &&
           std::isdigit(static_cast<unsigned char>(kind.back()))) {
      kind.pop_back();
    }
    by_name[kind].push_back(&session);
  }
  for (const auto& [key, group] : by_name) {
    size_t bytes = 0, facts = 0, batches = 0, queries = 0, refuted = 0;
    for (const SessionSpec* session : group) {
      bytes += session->program.size();
      facts += session->num_facts;
      batches += session->fact_batches.size();
      queries += session->num_queries;
      refuted += session->num_refuted;
    }
    const SessionSpec& first = *group.front();
    std::printf("  %zu x session %s* engine=%s: program %zu B, %zu facts in "
                "%zu ADD_FACTS batches, %zu %s",
                group.size(), key.c_str(), first.engine.c_str(), bytes,
                facts, batches, queries,
                first.boolean_queries ? "decisions" : "enumeration queries");
    if (first.boolean_queries) std::printf(" (%zu not entailed)", refuted);
    std::printf(" in total\n");
  }
  if (!inputs.writes.empty()) {
    size_t hitting = 0;
    for (const WriteBatch& write : inputs.writes) hitting += write.cone_hitting;
    std::printf("  writes: %zu scheduled every %.0f ms, %zu cone-hitting\n",
                inputs.writes.size(), kWritePeriodMs, hitting);
  }
  if (inputs.max_states != 0) {
    std::printf("  QUERY budget: max_states=%" PRIu64 "\n", inputs.max_states);
  }
}

int Run(const Args& args) {
  WorkloadInputs inputs;
  if (!MakeInputs(args.workload, args.seed, args.seconds, &inputs)) {
    std::fprintf(stderr, "vbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  PrintInputs(inputs);
  Workload workload(inputs);
  DaemonProcess daemon;
  Client client;
  PhaseStats setup;
  std::vector<double> setup_samples;
  std::string error;
  if (!SetUp(args, kSetupsBefore, &workload, &daemon, &client, &setup,
             &setup_samples, &error)) {
    std::fprintf(stderr, "vbench: set-up failed: %s\n", error.c_str());
    return 1;
  }

  // Measured phase. A traced run measures an untraced half first (the
  // reference for the tracing overhead), then the traced half between
  // two METRICS scrapes.
  PhaseStats untraced, traced;
  std::map<std::string, double> before, after;
  double cpu_ms = 0.0, rss_mib = 0.0, measured_s = args.seconds;
  if (args.trace) measured_s = args.seconds / 2;
  double cpu0 = daemon.CpuMs();
  const uint64_t stalls0 = client.stalls();
  workload.Mark();
  bool ok = workload.Phase(&client, measured_s, false, &untraced, &error);
  cpu_ms = daemon.CpuMs() - cpu0;
  if (args.trace) {
    std::optional<JsonValue> scrape;
    if (ok) ok = (scrape = client.Call(0, kMetricsLine, &error)).has_value();
    if (ok) before = SumByName(*scrape);
    workload.Rewind();
    if (ok) ok = workload.Phase(&client, measured_s, true, &traced, &error);
    if (ok) ok = (scrape = client.Call(0, kMetricsLine, &error)).has_value();
    if (ok) after = SumByName(*scrape);
  }
  rss_mib = daemon.PeakRssMib();
  const uint64_t stalls = client.stalls() - stalls0;
  client.Close();
  bool clean_exit = daemon.Stop();
  if (!ok) {
    std::fprintf(stderr, "vbench: measured phase failed: %s\n", error.c_str());
    return 1;
  }
  if (!clean_exit) {
    std::fprintf(stderr, "vbench: vadalogd did not exit cleanly\n");
  }
  if (!SetUp(args, kSetupsAfter, &workload, &daemon, &client, &setup,
             &setup_samples, &error)) {
    std::fprintf(stderr, "vbench: set-up failed: %s\n", error.c_str());
    return 1;
  }
  client.Close();
  daemon.Stop();
  workload.VerifyReads(&untraced);  // every read of both halves

  PhaseStats& main = args.trace ? traced : untraced;
  uint64_t attempted =
      setup.attempted + untraced.attempted + traced.attempted;
  uint64_t failed = setup.failed + untraced.failed + traced.failed;
  uint64_t mismatches =
      setup.mismatches + untraced.mismatches + traced.mismatches;
  uint64_t answered = untraced.answered + traced.answered;
  uint64_t incomplete = untraced.incomplete + traced.incomplete;

  // chase_enum sends no ADD_FACTS in its measured phase: its figures come
  // from the set-up's bulk loads.
  const std::vector<double>& add_ms =
      main.add_facts_ms.empty() ? setup.add_facts_ms : main.add_facts_ms;

  Windowed windowed = WindowMedians(untraced);
  Metrics e2e;
  Add(&e2e, "setup_s", Median(setup_samples), "s", setup_samples.size());
  Add(&e2e, "query_p50_ms", windowed.p50_ms, "ms", untraced.query_ms.size());
  Add(&e2e, "query_p90_ms", windowed.p90_ms, "ms", untraced.query_ms.size());
  Add(&e2e, "query_qps", windowed.qps, "1/s", untraced.completed);
  Add(&e2e, "daemon_cpu_ms_per_query",
      Ratio(cpu_ms, static_cast<double>(untraced.answered)), "ms",
      untraced.answered);
  Add(&e2e, "daemon_peak_rss_mib", rss_mib, "MiB");

  Metrics layers;
  // p99 is reported but not gated: on a shared host its run-to-run
  // spread was twice that of p90 (vbench/README.md).
  Add(&layers, "query_p99_ms", windowed.p99_ms, "ms",
      untraced.query_ms.size());
  Add(&layers, "add_facts_p50_ms", Percentile(add_ms, 0.5), "ms",
      add_ms.size());
  Add(&layers, "add_facts_p90_ms", Percentile(add_ms, 0.9), "ms",
      add_ms.size());
  Add(&layers, "failed_frac",
      Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
      "ratio", attempted);
  Add(&layers, "incomplete_frac",
      Ratio(static_cast<double>(incomplete), static_cast<double>(answered)),
      "ratio", answered);
  Add(&layers, "server.stalled_replies", static_cast<double>(stalls), "count");
  // Printed but left out of the JSON line: times that read a constant 0
  // on a gated workload, which no change there could move (no query
  // waits for the data lock without a writer; chase_enum runs no search).
  Metrics report_only;
  if (args.trace) {
    auto delta = [&](const char* name) { return after[name] - before[name]; };
    double queries = delta("vadalog_session_queries_total");
    auto span = [&](const char* name, const std::vector<double>& us,
                    double q, Metrics* metrics) {
      Add(metrics, name, SpanPercentile(us, q), "us", us.size());
    };
    span("server.queue_wait_us_p50", traced.queue_wait, 0.5, &layers);
    span("server.queue_wait_us_p99", traced.queue_wait, 0.99, &layers);
    span("server.parse_us_p50", traced.parse, 0.5, &layers);
    span("server.encode_us_p50", traced.encode, 0.5, &layers);
    Add(&layers, "server.wire_us_p50", Percentile(traced.wire, 0.5), "us",
        traced.wire.size());
    span("server.lock_wait_us_p99", traced.lock_wait, 0.99, &report_only);
    Add(&layers, "server.queries_waited_frac",
        Ratio(delta("vadalog_session_queries_waited_total"), queries), "ratio");
    Add(&layers, "server.wakeups_per_request",
        Ratio(delta("vadalogd_wakeups_total"),
              delta("vadalogd_requests_total")),
        "count");
    Add(&layers, "server.rejected", delta("vadalogd_rejected_total"), "count");
    span("engine.search_us_p50", traced.search, 0.5, &layers);
    span("engine.search_us_p99", traced.search, 0.99, &layers);
    span("engine.linear.search_us_p50", traced.search_linear, 0.5,
         &report_only);
    span("engine.linear.search_us_p99", traced.search_linear, 0.99,
         &report_only);
    span("engine.alternating.search_us_p50", traced.search_alternating, 0.5,
         &report_only);
    span("engine.alternating.search_us_p99", traced.search_alternating, 0.99,
         &report_only);
    Add(&layers, "engine.searches_per_query",
        Ratio(delta("vadalog_search_total"), queries), "count");
    Add(&layers, "engine.daemon_states_expanded_per_query",
        Ratio(delta("vadalog_search_states_expanded_total"), queries), "count");
    Add(&layers, "engine.daemon_cache_bytes",
        after["vadalog_session_cache_bytes"], "bytes");
    double traced_p50 = Percentile(traced.query_ms, 0.5);
    Add(&layers, "trace.query_p50_ms", traced_p50, "ms",
        traced.query_ms.size());
    Add(&layers, "trace.overhead_query_p50_ms",
        traced_p50 - Percentile(untraced.query_ms, 0.5), "ms");
    ReplayLayers(inputs,
                 static_cast<size_t>(args.seconds * 1000.0 / kWritePeriodMs),
                 &layers);
  }

  // Human-readable report, then the machine-readable last line.
  auto print = [](const Metrics& metrics) {
    for (const auto& [name, m] : metrics) {
      if (m.samples != 0) {
        std::printf("  %-40s %14.6g %-6s (n=%" PRIu64 ")\n", name.c_str(),
                    m.value, m.unit.c_str(), m.samples);
      } else {
        std::printf("  %-40s %14.6g %s\n", name.c_str(), m.value,
                    m.unit.c_str());
      }
    }
  };
  std::printf("end-to-end (%s phase of %.1f s):\n",
              args.trace ? "untraced half" : "measured", measured_s);
  print(e2e);
  std::printf("per-layer%s:\n",
              args.trace ? "" : " (run with --trace 1 for the rest)");
  print(layers);
  if (!report_only.empty()) {
    std::printf("per-layer, report only:\n");
    print(report_only);
  }
  if (!main.writer_late_ms.empty()) {
    std::printf("  writer lateness: p50 %.3f ms, max %.3f ms over %zu writes\n",
                Percentile(main.writer_late_ms, 0.5),
                Percentile(main.writer_late_ms, 1.0),
                main.writer_late_ms.size());
  }
  std::printf("  (latency and q/s: medians over %zu windows; q/s per window:",
              windowed.windows);
  for (double qps : windowed.qps_series) std::printf(" %.0f", qps);
  std::printf("; p99 ms:");
  for (double p99 : windowed.p99_series) std::printf(" %.1f", p99);
  std::printf(")\n");
  std::printf("  set-ups (ms, in run order):");
  for (double s : setup_samples) std::printf(" %.1f", s * 1000.0);
  std::printf("\n");
  if (untraced.query_ms.size() < 1000) {
    std::printf("  warning: %zu QUERY samples leave fewer than 10 beyond p99\n",
                untraced.query_ms.size());
  }
  // A failed request (an error reply, EBUSY, a dropped connection) fails
  // the run like a mismatch: none fails at the default configuration, and
  // a failed QUERY would otherwise only leave the latency samples.
  bool correct = mismatches == 0 && failed == 0;
  std::printf("answers: %" PRIu64 " checked against the chase oracle, %" PRIu64
              " mismatches; %" PRIu64 " of %" PRIu64 " requests failed\n",
              setup.answered + answered, mismatches, failed, attempted);

  std::string json = "{\"correct\": " +
                     std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : args.trace ? layers : e2e) {
    char value[64];
    std::snprintf(value, sizeof value, "%.12g", m.value);
    json += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
            value + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--daemon") {
      args->daemon = value;
    } else if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->daemon.empty() && !args->workload.empty() &&
         args->seconds > 0.0;
}

}  // namespace
}  // namespace vbench

int main(int argc, char** argv) {
  vbench::Args args;
  if (!vbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --daemon PATH --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1]\n",
                 argv[0]);
    return 2;
  }
  return vbench::Run(args);
}
