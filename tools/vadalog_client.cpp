// vadalog_client — client and end-to-end checker for vadalogd.
//
// Modes:
//
//   * Raw:        pipe newline-delimited JSON requests on stdin, responses
//                 come back on stdout. Binary answer frames are decoded
//                 and re-inlined as "answers" so the output stays
//                 line-oriented JSON regardless of the negotiated
//                 encoding.
//
//       vadalog_client --connect=tcp:127.0.0.1:4333 < requests.ndjson
//
//   * Hello:      probe the server's wire-API: send one HELLO carrying
//                 this client's max_version and encoding preferences,
//                 print the negotiation result, exit 0 iff it succeeded.
//
//       vadalog_client --connect=tcp:127.0.0.1:4333 --hello
//
//   * Round-trip: load a .vada program into a session over the wire, run
//                 every query in it through the protocol — optionally
//                 from many concurrent client connections — and diff the
//                 answers against a direct in-process Reasoner on the
//                 same program. Exit 0 iff every answer set matches.
//                 With --encoding=binary the answers travel as columnar
//                 v2 frames and the decoded cells must match the JSON
//                 rendering bit for bit — the cross-encoding oracle.
//
//       vadalog_client --serve --clients=16 --repeat=4
//           --roundtrip=examples/programs/company_control.vada
//
//                 With --trace every QUERY carries "trace":true and the
//                 response must come back with the full span breakdown
//                 (queue_wait/parse/lock_wait/search/encode/total); one
//                 sample span table is printed. The round trip always
//                 ends with a machine-readable "CLIENT_QUERIES <n>" line
//                 on stdout — the number of served (ok) QUERYs across
//                 all client threads, EBUSY retries excluded — which CI
//                 sums and diffs against the server's METRICS counters.
//
//   * Metrics:    dump the daemon's metrics registry, one metric per
//                 line (counters/gauges as name{labels} = value,
//                 histograms as count and sum):
//
//       vadalog_client --connect=tcp:127.0.0.1:4333 --metrics
//
// --encoding=json|binary sends a HELLO at connect time and fails hard if
// the server negotiates something other than the requested encoding.
// Without the flag no HELLO is sent: the connection speaks the v1
// contract, exactly like an old client.
//
// Endpoints: --connect=tcp:HOST:PORT (HOST is an IPv4 literal or
// "localhost") or --connect=unix:PATH, or --serve to spin up an
// in-process daemon on an ephemeral loopback port and talk to it over a
// real socket — the zero-setup round trip the e2e suite runs.

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include "base/version.h"
#include "server/server.h"
#include "vadalog/reasoner.h"

using namespace vadalog;

#ifdef _WIN32
int main() {
  std::fprintf(stderr, "vadalog_client requires POSIX sockets\n");
  return 1;
}
#else

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--connect=tcp:HOST:PORT | --connect=unix:PATH | "
               "--serve)\n"
               "          [--encoding=json|binary] [--hello] [--metrics]\n"
               "          [--roundtrip=FILE.vada [--engine=E] "
               "[--clients=N] "
               "[--repeat=N] [--trace]]\n",
               argv0);
  return 2;
}

/// A blocking protocol connection: line-framed JSON requests out, JSON
/// head lines plus optional binary answer frames back in.
class Connection {
 public:
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ConnectTcp(const std::string& host, uint16_t port,
                  std::string* error) {
    std::string address = host == "localhost" ? "127.0.0.1" : host;
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
      *error = "bad IPv4 address: " + address;
      return false;
    }
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
            0) {
      *error = "connect tcp:" + host + ":" + std::to_string(port) + ": " +
               std::strerror(errno);
      return false;
    }
    return true;
  }

  bool ConnectUnix(const std::string& path, std::string* error) {
    sockaddr_un addr{};
    if (path.size() >= sizeof addr.sun_path) {
      *error = "unix socket path too long";
      return false;
    }
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
            0) {
      *error = "connect unix:" + path + ": " + std::strerror(errno);
      return false;
    }
    return true;
  }

  /// Sends one request line, reads the JSON head line, and — when the
  /// head announces an answers_frame — reads and decodes the binary
  /// payload that follows it. `answers` is reset to nullopt when the
  /// response carried none.
  bool Transact(const std::string& line, JsonValue* head,
                std::optional<protocol::AnswerTable>* answers,
                std::string* error) {
    answers->reset();
    std::string out = line + "\n";
    size_t sent = 0;
    while (sent < out.size()) {
      ssize_t n =
          ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        *error = "connection lost (send)";
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    std::string head_line;
    if (!ReadLine(&head_line)) {
      *error = "connection lost (recv)";
      return false;
    }
    std::string parse_error;
    std::optional<JsonValue> parsed =
        JsonValue::Parse(head_line, &parse_error);
    if (!parsed.has_value()) {
      *error = "malformed response: " + head_line;
      return false;
    }
    *head = std::move(*parsed);
    const JsonValue* descriptor = head->Find("answers_frame");
    if (descriptor != nullptr) {
      uint64_t bytes = descriptor->GetUint("bytes");
      std::string payload;
      if (!ReadExact(static_cast<size_t>(bytes), &payload)) {
        *error = "connection lost mid-frame";
        return false;
      }
      protocol::AnswerTable table;
      std::string decode_error;
      if (!protocol::DecodeAnswerFrame(payload, &table, &decode_error)) {
        *error = "bad answer frame: " + decode_error;
        return false;
      }
      *answers = std::move(table);
    }
    return true;
  }

  /// Sends one HELLO and verifies the server granted the requested
  /// encoding (the negotiation response lands in `response` either way).
  bool Hello(const std::string& encoding, JsonValue* response,
             std::string* error) {
    std::string request =
        R"({"cmd":"HELLO","max_version":)" +
        std::to_string(protocol::kMaxVersion) + R"(,"encodings":[)" +
        JsonValue::String(encoding).Dump() + "]}";
    std::optional<protocol::AnswerTable> none;
    if (!Transact(request, response, &none, error)) return false;
    if (!response->GetBool("ok")) {
      *error = "HELLO failed: " + response->Dump();
      return false;
    }
    if (response->GetString("encoding") != encoding) {
      *error = "server declined encoding " + encoding + ": " +
               response->Dump();
      return false;
    }
    return true;
  }

 private:
  bool ReadLine(std::string* line) {
    while (true) {
      size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        *line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      if (!Fill()) return false;
    }
  }

  bool ReadExact(size_t n, std::string* out) {
    while (buffer_.size() < n) {
      if (!Fill()) return false;
    }
    *out = buffer_.substr(0, n);
    buffer_.erase(0, n);
    return true;
  }

  bool Fill() {
    char chunk[65536];
    ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

struct Endpoint {
  bool use_unix = false;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string unix_path;
  std::string encoding;  // empty = no HELLO, plain v1

  std::unique_ptr<Connection> Dial(std::string* error) const {
    auto connection = std::make_unique<Connection>();
    bool ok = use_unix ? connection->ConnectUnix(unix_path, error)
                       : connection->ConnectTcp(host, port, error);
    if (!ok) return nullptr;
    if (!encoding.empty()) {
      JsonValue response;
      if (!connection->Hello(encoding, &response, error)) return nullptr;
    }
    return connection;
  }
};

std::string EscapeJson(const std::string& s) {
  return JsonValue::String(s).Dump();
}

/// Computes the expected protocol-rendered answer rows for one query by
/// running the in-process Reasoner the same way the session does.
std::vector<std::vector<std::string>> ExpectedAnswers(
    const Reasoner& reasoner, size_t query_index, const std::string& engine) {
  ReasonerOptions options;
  if (engine == "chase") options.engine = EngineChoice::kChase;
  if (engine == "linear") options.engine = EngineChoice::kLinearProof;
  if (engine == "alternating") {
    options.engine = EngineChoice::kAlternatingProof;
  }
  std::vector<std::vector<std::string>> rendered;
  for (const std::vector<Term>& tuple :
       reasoner.Answer(reasoner.program().queries()[query_index], options)) {
    std::vector<std::string> row;
    for (Term t : tuple) {
      row.push_back(reasoner.program().symbols().TermToString(t));
    }
    rendered.push_back(std::move(row));
  }
  return rendered;
}

std::vector<std::vector<std::string>> AnswersFromJson(
    const JsonValue& response) {
  std::vector<std::vector<std::string>> rows;
  const JsonValue* answers = response.Find("answers");
  if (answers == nullptr || !answers->is_array()) return rows;
  for (const JsonValue& row : answers->Items()) {
    std::vector<std::string> tuple;
    for (const JsonValue& cell : row.Items()) {
      tuple.push_back(cell.is_string() ? cell.AsString() : cell.Dump());
    }
    rows.push_back(std::move(tuple));
  }
  return rows;
}

std::vector<std::vector<std::string>> AnswersFromTable(
    const protocol::AnswerTable& table) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(table.rows());
  for (size_t r = 0; r < table.rows(); ++r) {
    std::vector<std::string> tuple;
    tuple.reserve(table.columns);
    for (size_t c = 0; c < table.columns; ++c) {
      tuple.push_back(table.cells[r * table.columns + c]);
    }
    rows.push_back(std::move(tuple));
  }
  return rows;
}

/// The span keys every traced response must carry, in canonical order
/// (mirrors obs::TraceSpans::SpanList plus the total).
constexpr const char* kSpanKeys[] = {"queue_wait_us", "parse_us",
                                     "lock_wait_us",  "search_us",
                                     "encode_us",     "total_us"};

/// Validates the "trace" object of a traced QUERY response: present,
/// an object, and carrying every span key as a number.
bool CheckTrace(const JsonValue& response, std::string* error) {
  const JsonValue* trace = response.Find("trace");
  if (trace == nullptr || !trace->is_object()) {
    *error = "traced response carried no trace object";
    return false;
  }
  for (const char* key : kSpanKeys) {
    const JsonValue* span = trace->Find(key);
    if (span == nullptr || !span->is_number()) {
      *error = std::string("trace is missing span \"") + key + "\"";
      return false;
    }
  }
  return true;
}

/// One simulated client: its own connection (negotiating the endpoint's
/// encoding), running every query of the session `repeat` times and
/// diffing each answer set — decoded from the binary frame when that is
/// what was negotiated — against the in-process oracle. Every served
/// (ok) QUERY is counted into `served` — EBUSY-rejected attempts are
/// not, which is what makes the total comparable to the server's
/// vadalog_session_queries_total series.
bool RunClientThread(const Endpoint& endpoint, const std::string& session,
                     const std::string& engine, size_t num_queries, int repeat,
                     bool trace, std::atomic<uint64_t>* served,
                     const std::vector<std::vector<std::vector<std::string>>>&
                         expected) {
  std::string error;
  std::unique_ptr<Connection> connection = endpoint.Dial(&error);
  if (connection == nullptr) {
    std::fprintf(stderr, "client: %s\n", error.c_str());
    return false;
  }
  for (int r = 0; r < repeat; ++r) {
    for (size_t q = 0; q < num_queries; ++q) {
      std::string request = "{\"cmd\":\"QUERY\",\"session\":" +
                            EscapeJson(session) +
                            ",\"query_index\":" + std::to_string(q) +
                            ",\"engine\":" + EscapeJson(engine);
      if (trace) request += ",\"trace\":true";
      request += "}";
      while (true) {
        JsonValue response;
        std::optional<protocol::AnswerTable> table;
        if (!connection->Transact(request, &response, &table, &error)) {
          std::fprintf(stderr, "client: %s\n", error.c_str());
          return false;
        }
        if (!response.GetBool("ok")) {
          // Admission-control rejections are part of normal operation
          // under a 16-client burst: honor the retry hint, fail on
          // anything else.
          const JsonValue* detail = response.Find("error");
          if (detail != nullptr &&
              detail->GetString("code") == "EBUSY") {
            continue;
          }
          std::fprintf(stderr, "client: query failed: %s\n",
                       response.Dump().c_str());
          return false;
        }
        served->fetch_add(1, std::memory_order_relaxed);
        if (trace && !CheckTrace(response, &error)) {
          std::fprintf(stderr, "client: %s\n", error.c_str());
          return false;
        }
        // A binary connection must get frames, a JSON one inline rows.
        if (endpoint.encoding == "binary" && !table.has_value()) {
          std::fprintf(
              stderr,
              "client: negotiated binary but got inline answers\n");
          return false;
        }
        std::vector<std::vector<std::string>> got =
            table.has_value() ? AnswersFromTable(*table)
                              : AnswersFromJson(response);
        if (got != expected[q]) {
          std::fprintf(stderr,
                       "client: ANSWER MISMATCH on query %zu:\n  got  %s\n",
                       q, response.Dump().c_str());
          return false;
        }
        break;
      }
    }
  }
  return true;
}

int RunRoundTrip(const Endpoint& endpoint, const std::string& path,
                 const std::string& engine, int clients, int repeat,
                 bool trace) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::stringstream text;
  text << file.rdbuf();

  std::string parse_error;
  std::unique_ptr<Reasoner> reasoner =
      Reasoner::FromText(text.str(), &parse_error);
  if (reasoner == nullptr) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), parse_error.c_str());
    return 1;
  }
  size_t num_queries = reasoner->program().queries().size();
  if (num_queries == 0) {
    std::fprintf(stderr, "%s has no queries to round-trip\n", path.c_str());
    return 1;
  }
  std::vector<std::vector<std::vector<std::string>>> expected;
  for (size_t q = 0; q < num_queries; ++q) {
    expected.push_back(ExpectedAnswers(*reasoner, q, engine));
  }

  // Load the session over the wire.
  std::string error;
  std::unique_ptr<Connection> connection = endpoint.Dial(&error);
  if (connection == nullptr) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const std::string session = "roundtrip";
  JsonValue loaded;
  std::optional<protocol::AnswerTable> no_table;
  if (!connection->Transact("{\"cmd\":\"LOAD_PROGRAM\",\"session\":" +
                                EscapeJson(session) +
                                ",\"replace\":true,\"program\":" +
                                EscapeJson(text.str()) + "}",
                            &loaded, &no_table, &error)) {
    std::fprintf(stderr, "LOAD_PROGRAM: %s\n", error.c_str());
    return 1;
  }
  if (!loaded.GetBool("ok")) {
    std::fprintf(stderr, "LOAD_PROGRAM failed: %s\n",
                 loaded.Dump().c_str());
    return 1;
  }

  std::atomic<int> failures{0};
  std::atomic<uint64_t> served{0};
  std::vector<std::thread> client_threads;
  for (int c = 0; c < clients; ++c) {
    client_threads.emplace_back([&] {
      if (!RunClientThread(endpoint, session, engine, num_queries, repeat,
                           trace, &served, expected)) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : client_threads) t.join();

  // Wrap up with a STATS probe so the e2e run also exercises it.
  JsonValue stats;
  if (connection->Transact("{\"cmd\":\"STATS\",\"session\":" +
                               EscapeJson(session) + "}",
                           &stats, &no_table, &error)) {
    std::fprintf(stderr, "stats: %s\n", stats.Dump().c_str());
  }
  if (trace) {
    // One sample traced query on the control connection so the span
    // breakdown is visible in the run output (and counted in served).
    JsonValue traced;
    std::optional<protocol::AnswerTable> table;
    if (connection->Transact("{\"cmd\":\"QUERY\",\"session\":" +
                                 EscapeJson(session) +
                                 ",\"query_index\":0,\"engine\":" +
                                 EscapeJson(engine) + ",\"trace\":true}",
                             &traced, &table, &error) &&
        traced.GetBool("ok")) {
      served.fetch_add(1, std::memory_order_relaxed);
      if (!CheckTrace(traced, &error)) {
        std::fprintf(stderr, "trace: %s\n", error.c_str());
        return 1;
      }
      const JsonValue* spans = traced.Find("trace");
      std::fprintf(stderr, "trace spans (us):");
      for (const char* key : kSpanKeys) {
        std::fprintf(stderr, " %s=%.0f", key, spans->Find(key)->AsNumber());
      }
      std::fprintf(stderr, "\n");
    }
  }
  // Machine-readable served-QUERY total on stdout: CI sums these across
  // runs and diffs the sum against the server's cumulative
  // vadalog_session_queries_total{session="roundtrip"} series.
  std::printf("CLIENT_QUERIES %llu\n",
              static_cast<unsigned long long>(served.load()));
  std::fflush(stdout);
  if (failures.load() != 0) {
    std::fprintf(stderr, "FAILED: %d/%d clients saw mismatches or errors\n",
                 failures.load(), clients);
    return 1;
  }
  std::fprintf(stderr,
               "OK: %d client(s) x %d repeat(s) x %zu query(ies)%s matched "
               "the in-process reasoner\n",
               clients, repeat, num_queries,
               endpoint.encoding == "binary" ? " (binary frames)" : "");
  return 0;
}

/// --metrics: one METRICS request, pretty-printed one metric per line —
/// counters/gauges as `name{labels} = value`, histograms as their count
/// and sum. The raw JSON is available via the raw mode when needed.
int RunMetrics(const Endpoint& endpoint) {
  std::string error;
  std::unique_ptr<Connection> connection = endpoint.Dial(&error);
  if (connection == nullptr) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  JsonValue response;
  std::optional<protocol::AnswerTable> no_table;
  if (!connection->Transact("{\"cmd\":\"METRICS\"}", &response, &no_table,
                            &error)) {
    std::fprintf(stderr, "METRICS: %s\n", error.c_str());
    return 1;
  }
  const JsonValue* metrics = response.Find("metrics");
  if (!response.GetBool("ok") || metrics == nullptr ||
      !metrics->is_array()) {
    std::fprintf(stderr, "METRICS failed: %s\n", response.Dump().c_str());
    return 1;
  }
  for (const JsonValue& metric : metrics->Items()) {
    std::string line = metric.GetString("name");
    const JsonValue* labels = metric.Find("labels");
    if (labels != nullptr && !labels->Members().empty()) {
      line += "{";
      bool first = true;
      for (const auto& [key, value] : labels->Members()) {
        if (!first) line += ",";
        first = false;
        line += key + "=" + EscapeJson(value.AsString());
      }
      line += "}";
    }
    if (metric.GetString("type") == "histogram") {
      std::printf("%s count=%llu sum=%llu\n", line.c_str(),
                  static_cast<unsigned long long>(metric.GetUint("count")),
                  static_cast<unsigned long long>(metric.GetUint("sum")));
    } else {
      const JsonValue* value = metric.Find("value");
      std::printf("%s = %.0f\n", line.c_str(),
                  value != nullptr ? value->AsNumber() : 0.0);
    }
  }
  return 0;
}

int RunHello(const Endpoint& endpoint) {
  // Dial without the automatic handshake so a declined encoding is a
  // printable outcome here, not a connect failure.
  Endpoint plain = endpoint;
  plain.encoding.clear();
  std::string error;
  std::unique_ptr<Connection> connection = plain.Dial(&error);
  if (connection == nullptr) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::string prefs = endpoint.encoding.empty()
                          ? "\"binary\",\"json\""
                          : EscapeJson(endpoint.encoding);
  JsonValue response;
  std::optional<protocol::AnswerTable> no_table;
  if (!connection->Transact(R"({"cmd":"HELLO","max_version":)" +
                                std::to_string(protocol::kMaxVersion) +
                                R"(,"encodings":[)" + prefs + "]}",
                            &response, &no_table, &error)) {
    std::fprintf(stderr, "HELLO: %s\n", error.c_str());
    return 1;
  }
  std::printf("%s\n", response.Dump().c_str());
  return response.GetBool("ok") ? 0 : 1;
}

int RunRaw(const Endpoint& endpoint) {
  std::string error;
  std::unique_ptr<Connection> connection = endpoint.Dial(&error);
  if (connection == nullptr) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    JsonValue response;
    std::optional<protocol::AnswerTable> table;
    if (!connection->Transact(line, &response, &table, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    // Keep stdout line-oriented: a decoded frame is re-inlined exactly
    // the way the JSON encoding would have carried it.
    protocol::Response model(std::move(response));
    model.answers = std::move(table);
    std::printf("%s\n", model.ToJson().Dump().c_str());
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Endpoint endpoint;
  bool have_endpoint = false;
  bool serve = false;
  bool hello = false;
  bool metrics = false;
  bool trace = false;
  std::string roundtrip_path;
  std::string engine = "auto";
  int clients = 1;
  int repeat = 1;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--version") == 0) {
      std::printf("vadalog_client %s (protocol v%d..%d)\n", kVersionString,
                  protocol::kVersion, protocol::kMaxVersion);
      return 0;
    } else if (std::strcmp(arg, "--serve") == 0) {
      serve = true;
    } else if (std::strcmp(arg, "--hello") == 0) {
      hello = true;
    } else if (std::strcmp(arg, "--metrics") == 0) {
      metrics = true;
    } else if (std::strcmp(arg, "--trace") == 0) {
      trace = true;
    } else if (std::strncmp(arg, "--connect=", 10) == 0) {
      std::string spec = arg + 10;
      if (spec.rfind("unix:", 0) == 0) {
        endpoint.use_unix = true;
        endpoint.unix_path = spec.substr(5);
      } else if (spec.rfind("tcp:", 0) == 0) {
        std::string rest = spec.substr(4);
        size_t colon = rest.rfind(':');
        if (colon == std::string::npos) return Usage(argv[0]);
        endpoint.host = rest.substr(0, colon);
        endpoint.port =
            static_cast<uint16_t>(std::atoi(rest.c_str() + colon + 1));
        if (endpoint.port == 0) return Usage(argv[0]);
      } else {
        return Usage(argv[0]);
      }
      have_endpoint = true;
    } else if (std::strncmp(arg, "--encoding=", 11) == 0) {
      endpoint.encoding = arg + 11;
      if (endpoint.encoding != "json" && endpoint.encoding != "binary") {
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--roundtrip=", 12) == 0) {
      roundtrip_path = arg + 12;
    } else if (std::strncmp(arg, "--engine=", 9) == 0) {
      engine = arg + 9;
      if (engine != "auto" && engine != "chase" && engine != "linear" &&
          engine != "alternating") {
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--clients=", 10) == 0) {
      clients = std::atoi(arg + 10);
      if (clients < 1 || clients > 1024) return Usage(argv[0]);
    } else if (std::strncmp(arg, "--repeat=", 9) == 0) {
      repeat = std::atoi(arg + 9);
      if (repeat < 1) return Usage(argv[0]);
    } else {
      return Usage(argv[0]);
    }
  }
  if (serve == have_endpoint) return Usage(argv[0]);  // exactly one

  std::unique_ptr<Server> server;
  if (serve) {
    // In-process daemon on an ephemeral loopback port; the traffic still
    // crosses real sockets, so this is a faithful round trip.
    ServerConfig config;
    config.tcp_port = 0;
    server = std::make_unique<Server>(config);
    std::string error;
    if (!server->Start(&error)) {
      std::fprintf(stderr, "--serve: %s\n", error.c_str());
      return 1;
    }
    endpoint.port = server->tcp_port();
  }

  int status;
  if (hello) {
    status = RunHello(endpoint);
  } else if (metrics) {
    status = RunMetrics(endpoint);
  } else if (roundtrip_path.empty()) {
    status = RunRaw(endpoint);
  } else {
    status = RunRoundTrip(endpoint, roundtrip_path, engine, clients, repeat,
                          trace);
  }
  if (server != nullptr) server->Stop();
  return status;
}

#endif  // _WIN32
