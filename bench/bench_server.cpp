// Experiment E13: vadalogd daemon throughput. Measures (1) warm-session
// protocol queries against the OWL 2 QL example vs cold one-shot runs
// that re-parse the program and rebuild the caches per query (what the
// CLI does), and (2) queries/sec through the socket server at 1, 4 and
// 16 simulated clients, cold (first pass, empty session cache) vs warm
// (steady state). Expected shape: the warm session amortizes parsing,
// classification and the ProofSearchCache across queries, so warm
// per-query latency collapses versus the cold one-shot path; client
// scaling on a single core mostly measures multiplexing overhead, on
// multi-core it should scale until the worker pool saturates.
//
// Self-checking: every protocol answer is diffed against a direct
// in-process Reasoner; any mismatch fails the bench (nonzero exit).

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "bench_util.h"
#include "server/server.h"
#include "vadalog/reasoner.h"

using namespace vadalog;
using namespace vadalog::bench;

#ifdef _WIN32
int main() {
  std::fprintf(stderr, "bench_server requires POSIX sockets\n");
  return 0;
}
#else

namespace {

// The Example 3.3 OWL 2 QL encoding over the hand-written ontology of
// examples/owl2ql_reasoning.cpp; the query is the example's headline
// "all inferred types of ada".
constexpr const char* kOwl2QlProgram = R"(
  subclassStar(X, Y) :- subclass(X, Y).
  subclassStar(X, Z) :- subclassStar(X, Y), subclass(Y, Z).
  type(X, Z) :- type(X, Y), subclassStar(Y, Z).
  triple(X, Z, W) :- type(X, Y), restriction(Y, Z).
  triple(Z, W, X) :- triple(X, Y, Z), inverse(Y, W).
  type(X, W) :- triple(X, Y, Z), restriction(W, Y).

  subclass(professor, faculty).
  subclass(faculty, employee).
  subclass(employee, person).
  restriction(teacher, teaches).
  inverse(teaches, taughtBy).
  restriction(student, taughtBy).
  type(ada, professor).
  type(ada, teacher).

  ?(X) :- type(ada, X).
)";

class BenchClient {
 public:
  explicit BenchClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ =
        fd_ >= 0 &&
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  }
  ~BenchClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  std::optional<JsonValue> RoundTrip(const std::string& line) {
    std::string out = line + "\n";
    size_t sent = 0;
    while (sent < out.size()) {
      ssize_t n =
          ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return std::nullopt;
      sent += static_cast<size_t>(n);
    }
    while (true) {
      size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string response = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return JsonValue::Parse(response, nullptr);
      }
      char chunk[65536];
      ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

std::vector<std::vector<std::string>> ExpectedRows(const std::string& engine) {
  std::unique_ptr<Reasoner> reasoner = Reasoner::FromText(kOwl2QlProgram);
  ReasonerOptions options;
  if (engine == "linear") options.engine = EngineChoice::kLinearProof;
  std::vector<std::vector<std::string>> rows;
  for (const std::vector<Term>& tuple :
       reasoner->Answer(reasoner->program().queries()[0], options)) {
    std::vector<std::string> row;
    for (Term t : tuple) {
      row.push_back(reasoner->program().symbols().TermToString(t));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<std::vector<std::string>> RowsOf(const JsonValue& response) {
  std::vector<std::vector<std::string>> rows;
  const JsonValue* answers = response.Find("answers");
  if (answers == nullptr) return rows;
  for (const JsonValue& row : answers->Items()) {
    std::vector<std::string> tuple;
    for (const JsonValue& cell : row.Items()) tuple.push_back(cell.AsString());
    rows.push_back(std::move(tuple));
  }
  return rows;
}

const char* kQueryLine =
    "{\"cmd\":\"QUERY\",\"session\":\"owl\",\"query_index\":0,"
    "\"engine\":\"linear\"}";

/// Proof searches the daemon has run so far, over every session and
/// engine (the vadalog_search_total series).
uint64_t SearchesRun(const obs::MetricsRegistry& registry) {
  uint64_t total = 0;
  for (const obs::Sample& sample : registry.Snapshot()) {
    if (sample.name == "vadalog_search_total") {
      total += static_cast<uint64_t>(sample.value);
    }
  }
  return total;
}

bool LoadSession(BenchClient* client) {
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::String("LOAD_PROGRAM"));
  request.Set("session", JsonValue::String("owl"));
  request.Set("replace", JsonValue::Bool(true));
  request.Set("program", JsonValue::String(kOwl2QlProgram));
  std::optional<JsonValue> response = client->RoundTrip(request.Dump());
  return response.has_value() && response->GetBool("ok");
}

}  // namespace

int main() {
  Banner("E13 / vadalogd",
         "sessions amortize parse+classify+ProofSearchCache across "
         "queries: warm protocol queries beat cold one-shot runs; "
         "queries/sec at 1/4/16 clients");

  const std::vector<std::vector<std::string>> expected =
      ExpectedRows("linear");
  int failures = 0;

  // --- cold one-shot baseline: what each CLI invocation pays -----------
  constexpr int kColdRuns = 5;
  Timer cold_timer;
  for (int i = 0; i < kColdRuns; ++i) {
    std::unique_ptr<Reasoner> reasoner = Reasoner::FromText(kOwl2QlProgram);
    ReasonerOptions options;
    options.engine = EngineChoice::kLinearProof;
    std::vector<std::vector<Term>> answers =
        reasoner->Answer(reasoner->program().queries()[0], options);
    if (answers.size() != expected.size()) ++failures;
  }
  double cold_ms = cold_timer.Ms() / kColdRuns;

  ServerConfig options;
  options.tcp_port = 0;
  options.workers = 4;
  Server server(options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "bench_server: %s\n", error.c_str());
    return 1;
  }

  // --- warm session: one load, repeated protocol queries ---------------
  double first_query_ms = 0.0;
  double warm_ms = 0.0;
  {
    BenchClient client(server.tcp_port());
    if (!client.connected() || !LoadSession(&client)) {
      std::fprintf(stderr, "bench_server: load failed\n");
      return 1;
    }
    Timer first;
    std::optional<JsonValue> response = client.RoundTrip(kQueryLine);
    first_query_ms = first.Ms();
    if (!response.has_value() || RowsOf(*response) != expected) ++failures;

    constexpr int kWarmRuns = 20;
    Timer warm;
    for (int i = 0; i < kWarmRuns; ++i) {
      response = client.RoundTrip(kQueryLine);
      if (!response.has_value() || RowsOf(*response) != expected) {
        ++failures;
      }
    }
    warm_ms = warm.Ms() / kWarmRuns;
  }

  std::printf("\nOWL 2 QL example, engine=linear (answers: %zu types)\n",
              expected.size());
  Row("%-44s %10.2f ms/query", "cold one-shot (parse+classify+search)",
      cold_ms);
  Row("%-44s %10.2f ms/query", "warm session, first query (fills cache)",
      first_query_ms);
  Row("%-44s %10.2f ms/query", "warm session, steady state", warm_ms);
  Row("%-44s %10.1fx", "warm speedup over cold one-shot",
      warm_ms > 0.0 ? cold_ms / warm_ms : 0.0);

  // --- throughput at 1 / 4 / 16 clients, cold vs warm cache ------------
  // "searches" is the pass's vadalog_search_total delta: engine runs,
  // not queries — concurrent identical cold queries share one search.
  std::printf("\nthroughput over the socket server (queries/sec)\n");
  Row("%-10s %14s %10s %14s", "clients", "cold cache", "searches",
      "warm cache");
  for (int clients : {1, 4, 16}) {
    double rates[2] = {0.0, 0.0};
    uint64_t cold_searches = 0;
    for (int pass = 0; pass < 2; ++pass) {
      // pass 0: session replaced right before, caches empty (cold);
      // pass 1: same session retained, caches hot (warm).
      if (pass == 0) {
        BenchClient loader(server.tcp_port());
        if (!loader.connected() || !LoadSession(&loader)) {
          std::fprintf(stderr, "bench_server: reload failed\n");
          return 1;
        }
      }
      const int queries_per_client = pass == 0 ? 4 : 16;
      const uint64_t searches_before = SearchesRun(server.metrics());
      std::atomic<int> bad{0};
      Timer timer;
      std::vector<std::thread> threads;
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&] {
          BenchClient client(server.tcp_port());
          if (!client.connected()) {
            ++bad;
            return;
          }
          for (int q = 0; q < queries_per_client; ++q) {
            std::optional<JsonValue> response =
                client.RoundTrip(kQueryLine);
            if (!response.has_value() || !response->GetBool("ok") ||
                RowsOf(*response) != expected) {
              ++bad;
              return;
            }
          }
        });
      }
      for (std::thread& t : threads) t.join();
      double seconds = timer.Ms() / 1000.0;
      failures += bad.load();
      rates[pass] =
          seconds > 0.0 ? clients * queries_per_client / seconds : 0.0;
      if (pass == 0) {
        cold_searches = SearchesRun(server.metrics()) - searches_before;
      }
    }
    Row("%-10d %14.1f %10llu %14.1f", clients, rates[0],
        static_cast<unsigned long long>(cold_searches), rates[1]);
  }

  Server::Stats stats = server.stats();
  std::printf("\nserver: %llu connections, %llu requests, "
              "%llu+%llu admission rejections\n",
              static_cast<unsigned long long>(stats.connections),
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.rejected_global),
              static_cast<unsigned long long>(stats.rejected_session));

  // CI uploads the full registry snapshot alongside the timing numbers
  // (tools/run_bench.sh exports VADALOG_BENCH_METRICS); the JSON is the
  // same shape METRICS returns, so vadalog_metrics converts it offline.
  if (const char* metrics_path = std::getenv("VADALOG_BENCH_METRICS")) {
    JsonValue snapshot = JsonValue::Object();
    snapshot.Set("metrics", RenderMetricsSnapshot(server.metrics()));
    std::ofstream out(metrics_path);
    out << snapshot.Dump() << "\n";
    std::printf("metrics snapshot written to %s\n", metrics_path);
  }
  server.Stop();

  if (failures != 0) {
    std::fprintf(stderr, "bench_server: %d answer mismatches/failures\n",
                 failures);
    return 1;
  }
  std::printf("\nall protocol answers matched the in-process reasoner\n");
  return 0;
}

#endif  // _WIN32
