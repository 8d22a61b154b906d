// End-to-end tests for the vadalogd socket server: multi-client
// concurrency stress (answers must match a single-threaded Reasoner on
// the same program), admission control, and graceful shutdown. Run under
// the ASan and TSan presets in CI — the concurrency contract of
// Session/SessionRegistry/WorkerPool is exactly what they race.

#include <gtest/gtest.h>

#ifndef _WIN32
#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include <csignal>

#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "server/server.h"
#include "vadalog/reasoner.h"

namespace vadalog {

/// Holds a session's proof-search leaders at the cache lock, so a test
/// can watch identical queries join their flights before any search
/// runs — coalescing becomes deterministic instead of a timing race.
struct SessionTestPeer {
  /// Callers waiting on the flight of pooled query 0 under the linear
  /// engine with `max_states` (max_millis unset).
  static size_t Waiters(Session& session, uint64_t max_states) {
    return session.searches_.waiters(
        Session::SearchKey{0, "", "linear", max_states, 0});
  }

  /// Takes `session`'s cache lock exclusively — a flight's leader then
  /// blocks before searching — runs `send`, and keeps the lock until
  /// `joined()` holds or 10 s pass. Returns whether `joined()` held.
  static bool HoldLeaders(Session& session, const std::function<void()>& send,
                          const std::function<bool()>& joined) {
    base::WriterLock hold(&session.cache_mutex_);
    send();
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!joined()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }
};

namespace {

#ifndef _WIN32

constexpr const char* kProgram = R"(
  t(X, Y) :- e(X, Y).
  t(X, Z) :- e(X, Y), t(Y, Z).
  path2(X, Z) :- e(X, Y), e(Y, Z).
  e(a, b).  e(b, c).  e(c, d).  e(a, d).
  ?(X) :- t(a, X).
  ?(X, Z) :- path2(X, Z).
)";

/// Minimal blocking protocol client against 127.0.0.1:port. A non-zero
/// `rcvbuf` shrinks SO_RCVBUF before connecting (slow-reader tests).
class TestClient {
 public:
  explicit TestClient(uint16_t port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ >= 0 && rcvbuf > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ =
        fd_ >= 0 &&
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  /// Makes every blocking receive give up (and the read fail) after
  /// `millis` without data.
  void SetReceiveTimeout(int millis) {
    timeval timeout{};
    timeout.tv_sec = millis / 1000;
    timeout.tv_usec = (millis % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  }

  bool SendLine(const std::string& line) {
    std::string out = line + "\n";
    size_t sent = 0;
    while (sent < out.size()) {
      ssize_t n =
          ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  std::optional<std::string> ReadLine() {
    while (true) {
      size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      if (!Fill()) return std::nullopt;
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

  std::optional<JsonValue> RoundTrip(const std::string& line) {
    if (!SendLine(line)) return std::nullopt;
    std::optional<std::string> response = ReadLine();
    if (!response.has_value()) return std::nullopt;
    return JsonValue::Parse(*response, nullptr);
  }

 private:
  bool Fill() {
    char chunk[65536];
    ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

std::unique_ptr<Server> StartServer(ServerConfig options = {}) {
  options.tcp_port = 0;  // ephemeral
  auto server = std::make_unique<Server>(std::move(options));
  std::string error;
  EXPECT_TRUE(server->Start(&error)) << error;
  return server;
}

std::string LoadLine(const std::string& session, const std::string& program) {
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::String("LOAD_PROGRAM"));
  request.Set("session", JsonValue::String(session));
  request.Set("replace", JsonValue::Bool(true));
  request.Set("program", JsonValue::String(program));
  return request.Dump();
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

/// The single-threaded ground truth the stress clients diff against.
std::vector<std::vector<std::vector<std::string>>> DirectAnswers(
    const std::string& program_text, const std::string& engine) {
  std::unique_ptr<Reasoner> reasoner = Reasoner::FromText(program_text);
  EXPECT_NE(reasoner, nullptr);
  ReasonerOptions options;
  if (engine == "linear") options.engine = EngineChoice::kLinearProof;
  if (engine == "alternating") {
    options.engine = EngineChoice::kAlternatingProof;
  }
  std::vector<std::vector<std::vector<std::string>>> all;
  for (size_t q = 0; q < reasoner->program().queries().size(); ++q) {
    std::vector<std::vector<std::string>> rows;
    for (const std::vector<Term>& tuple :
         reasoner->Answer(reasoner->program().queries()[q], options)) {
      std::vector<std::string> row;
      for (Term t : tuple) {
        row.push_back(reasoner->program().symbols().TermToString(t));
      }
      rows.push_back(std::move(row));
    }
    all.push_back(std::move(rows));
  }
  return all;
}

TEST(ServerTest, SixteenConcurrentClientsMatchTheSingleThreadedReasoner) {
  std::unique_ptr<Server> server = StartServer();
  {
    TestClient loader(server->tcp_port());
    ASSERT_TRUE(loader.connected());
    std::optional<JsonValue> loaded =
        loader.RoundTrip(LoadLine("stress", kProgram));
    ASSERT_TRUE(loaded.has_value());
    ASSERT_TRUE(loaded->GetBool("ok")) << loaded->Dump();
  }
  // Mixed engines across clients: chase and linear must agree with the
  // direct Reasoner under the same engine — and with each other.
  const std::vector<std::string> engines = {"auto", "linear"};
  std::vector<std::vector<std::vector<std::vector<std::string>>>> expected;
  for (const std::string& engine : engines) {
    expected.push_back(DirectAnswers(kProgram, engine));
  }

  constexpr int kClients = 16;
  constexpr int kRepeats = 4;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TestClient client(server->tcp_port());
      if (!client.connected()) {
        ++failures;
        return;
      }
      const std::string& engine = engines[static_cast<size_t>(c) %
                                          engines.size()];
      const auto& want = expected[static_cast<size_t>(c) % engines.size()];
      for (int r = 0; r < kRepeats; ++r) {
        for (size_t q = 0; q < want.size(); ++q) {
          while (true) {
            std::optional<JsonValue> response = client.RoundTrip(
                R"({"cmd":"QUERY","session":"stress","query_index":)" +
                std::to_string(q) + R"(,"engine":")" + engine + "\"}");
            if (!response.has_value()) {
              ++failures;
              return;
            }
            if (!response->GetBool("ok")) {
              const JsonValue* detail = response->Find("error");
              if (detail != nullptr &&
                  detail->GetString("code") == "EBUSY") {
                continue;  // admission control said retry
              }
              ++failures;
              return;
            }
            if (RowsOf(*response) != want[q]) ++mismatches;
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  TestClient prober(server->tcp_port());
  std::optional<JsonValue> stats =
      prober.RoundTrip(R"({"cmd":"STATS","session":"stress"})");
  ASSERT_TRUE(stats.has_value() && stats->GetBool("ok"));
  EXPECT_GE(stats->Find("session")->GetUint("queries_served"),
            static_cast<uint64_t>(kClients * kRepeats * 2));
  server->Stop();
}

TEST(ServerTest, ConcurrentLoadsQueriesAndUnloadsStayCoherent) {
  // Clients hammer different sessions plus one shared session with
  // LOAD/QUERY/ADD_FACTS/UNLOAD mixes; every response must be a
  // well-formed protocol answer (ok or a structured error), no hangs, no
  // sanitizer reports.
  std::unique_ptr<Server> server = StartServer();
  constexpr int kClients = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TestClient client(server->tcp_port());
      if (!client.connected()) {
        ++failures;
        return;
      }
      std::string own = "own" + std::to_string(c);
      for (int r = 0; r < 6; ++r) {
        std::vector<std::string> lines = {
            LoadLine(own, kProgram),
            LoadLine("shared", kProgram),
            R"({"cmd":"QUERY","session":")" + own + R"(","query_index":0})",
            "{\"cmd\":\"ADD_FACTS\",\"session\":\"" + own +
                "\",\"facts\":\"e(d, z" + std::to_string(r) + ").\"}",
            R"({"cmd":"QUERY","session":"shared","query_index":1})",
            R"({"cmd":"STATS"})",
            R"({"cmd":"UNLOAD","session":"shared"})",
        };
        for (const std::string& line : lines) {
          std::optional<JsonValue> response = client.RoundTrip(line);
          if (!response.has_value() || response->Find("ok") == nullptr) {
            ++failures;
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  server->Stop();
}

TEST(ServerTest, AdmissionControlRejectsWithEbusy) {
  ServerConfig options;
  options.workers = 1;
  options.max_inflight = 1;
  options.max_inflight_per_session = 1;
  std::unique_ptr<Server> server = StartServer(std::move(options));
  TestClient loader(server->tcp_port());
  ASSERT_TRUE(loader.connected());
  ASSERT_TRUE(loader.RoundTrip(LoadLine("s", kProgram))->GetBool("ok"));

  // Many clients firing one query each at a 1-slot server: every
  // response is either a correct answer or a structured EBUSY.
  constexpr int kClients = 8;
  std::atomic<int> busy{0};
  std::atomic<int> ok{0};
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      TestClient client(server->tcp_port());
      if (!client.connected()) {
        ++bad;
        return;
      }
      std::optional<JsonValue> response = client.RoundTrip(
          R"({"cmd":"QUERY","session":"s","query_index":0})");
      if (!response.has_value()) {
        ++bad;
        return;
      }
      if (response->GetBool("ok")) {
        ++ok;
      } else if (response->Find("error")->GetString("code") == "EBUSY" &&
                 response->GetBool("retry")) {
        ++busy;
      } else {
        ++bad;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(ok.load() + busy.load(), kClients);
  EXPECT_GE(ok.load(), 1);
  // PING bypasses admission even when the server is saturated.
  EXPECT_TRUE(loader.RoundTrip(R"({"cmd":"PING"})")->GetBool("pong"));
  server->Stop();
}

TEST(ServerTest, GracefulShutdownFinishesInFlightWork) {
  std::unique_ptr<Server> server = StartServer();
  TestClient client(server->tcp_port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.RoundTrip(LoadLine("s", kProgram))->GetBool("ok"));
  std::thread stopper([&] { server->Stop(); });
  // Requests racing the shutdown either complete or see a closed
  // connection — never a hang or a torn response.
  for (int i = 0; i < 50; ++i) {
    std::optional<JsonValue> response = client.RoundTrip(
        R"({"cmd":"QUERY","session":"s","query_index":0})");
    if (!response.has_value()) break;
    EXPECT_NE(response->Find("ok"), nullptr);
  }
  stopper.join();
  EXPECT_FALSE(TestClient(server->tcp_port()).connected());
}

// Unit tests for the connection loop's recv taxonomy: a signal landing
// mid-read is retried inside RecvChunk, and a receive timeout (EAGAIN)
// is reported as kRetry — neither may be conflated with the peer
// closing, or a SIGTERM drain could drop an in-flight request.
TEST(ServerTest, RecvChunkRetriesInterruptedReads) {
  // SIGUSR1 with an empty handler and no SA_RESTART, so a blocked recv
  // really returns EINTR instead of being transparently restarted.
  struct sigaction action{};
  struct sigaction previous{};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  std::atomic<bool> reading{false};
  std::atomic<bool> done{false};
  server_internal::RecvStatus status = server_internal::RecvStatus::kError;
  std::string received;
  std::thread reader([&] {
    char chunk[256];
    size_t n = 0;
    reading.store(true);
    status = server_internal::RecvChunk(pair[0], chunk, sizeof chunk, &n);
    received.assign(chunk, n);
    done.store(true);
  });
  while (!reading.load()) std::this_thread::yield();
  // Pepper the blocked reader with signals; RecvChunk must absorb every
  // EINTR and still deliver the bytes that eventually arrive.
  for (int i = 0; i < 20 && !done.load(); ++i) {
    ::pthread_kill(reader.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(::send(pair[1], "hello", 5, MSG_NOSIGNAL), 5);
  reader.join();
  EXPECT_EQ(status, server_internal::RecvStatus::kData);
  EXPECT_EQ(received, "hello");
  ::close(pair[0]);
  ::close(pair[1]);
  ::sigaction(SIGUSR1, &previous, nullptr);
}

TEST(ServerTest, RecvChunkReportsTimeoutAsRetryNotClose) {
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  timeval tv{};
  tv.tv_usec = 20 * 1000;  // 20 ms receive timeout
  ASSERT_EQ(::setsockopt(pair[0], SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv),
            0);
  char chunk[256];
  size_t n = 0;
  // No data yet: timeout, reported as retry (not closed, not error).
  EXPECT_EQ(server_internal::RecvChunk(pair[0], chunk, sizeof chunk, &n),
            server_internal::RecvStatus::kRetry);
  ASSERT_EQ(::send(pair[1], "ok", 2, MSG_NOSIGNAL), 2);
  EXPECT_EQ(server_internal::RecvChunk(pair[0], chunk, sizeof chunk, &n),
            server_internal::RecvStatus::kData);
  EXPECT_EQ(n, 2u);
  ::close(pair[1]);
  EXPECT_EQ(server_internal::RecvChunk(pair[0], chunk, sizeof chunk, &n),
            server_internal::RecvStatus::kClosed);
  ::close(pair[0]);
}

// End-to-end: the event loop's readers never block, so idle pauses and
// mid-request pauses must not cost the connection or the buffered
// request prefix.
TEST(ServerTest, RecvTimeoutKeepsSlowConnectionsAndPartialRequests) {
  ServerConfig options;
  std::unique_ptr<Server> server = StartServer(options);

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->tcp_port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);

  auto read_line = [&]() -> std::string {
    std::string line;
    char c;
    while (::recv(fd, &c, 1, 0) == 1) {
      if (c == '\n') return line;
      line.push_back(c);
    }
    return line;
  };

  // Idle across several timeout periods, then a whole request.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::string ping = "{\"cmd\":\"PING\"}\n";
  ASSERT_EQ(::send(fd, ping.data(), ping.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(ping.size()));
  std::optional<JsonValue> pong = JsonValue::Parse(read_line(), nullptr);
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->GetBool("pong"));

  // A request split around a pause longer than the timeout: the prefix
  // must survive the EAGAIN wake-ups.
  const std::string head = "{\"cmd\":\"PI";
  const std::string tail = "NG\",\"id\":7}\n";
  ASSERT_EQ(::send(fd, head.data(), head.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(head.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(::send(fd, tail.data(), tail.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(tail.size()));
  std::optional<JsonValue> split = JsonValue::Parse(read_line(), nullptr);
  ASSERT_TRUE(split.has_value());
  EXPECT_TRUE(split->GetBool("pong"));
  EXPECT_EQ(split->Find("id")->AsNumber(), 7.0);

  ::close(fd);
  server->Stop();
}

// `recv_timeout_ms` configured nothing the event loop reads: it is an
// unknown key like any other and `--config list` does not advertise it.
TEST(ServerTest, RecvTimeoutIsNotAConfigKey) {
  ServerConfig config;
  std::string err;
  EXPECT_FALSE(config.Set("recv_timeout_ms", "20", &err));
  EXPECT_EQ(err,
            "unknown config key \"recv_timeout_ms\" (try --config list)");
  EXPECT_EQ(ServerConfig::DescribeKeys().find("recv_timeout_ms"),
            std::string::npos);
}

TEST(ServerTest, UnixSocketEndpointServes) {
  ServerConfig options;
  options.tcp = false;
  options.unix_path = "/tmp/vadalogd_test_" + std::to_string(::getpid()) +
                      ".sock";
  auto server = std::make_unique<Server>(options);
  std::string error;
  ASSERT_TRUE(server->Start(&error)) << error;

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options.unix_path.c_str(),
               sizeof addr.sun_path - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  std::string line = "{\"cmd\":\"PING\"}\n";
  ASSERT_EQ(::send(fd, line.data(), line.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(line.size()));
  char buffer[4096];
  ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
  ASSERT_GT(n, 0);
  std::optional<JsonValue> response =
      JsonValue::Parse(std::string(buffer, static_cast<size_t>(n - 1)),
                       nullptr);
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->GetBool("pong"));
  ::close(fd);
  server->Stop();
  // The socket file is removed on shutdown.
  EXPECT_NE(::access(options.unix_path.c_str(), F_OK), 0);
}

// --- event-loop architecture tests ---

size_t CountThreads() {
  size_t count = 0;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
}

size_t CountOpenFds() {
  size_t count = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
}

// The tentpole contract: connections are event-loop state, not threads.
// 256 concurrent idle connections must all be served by the same fixed
// thread complement that served one.
TEST(ServerTest, HundredsOfIdleConnectionsNeedNoExtraThreads) {
  ServerConfig config;
  config.workers = 2;
  std::unique_ptr<Server> server = StartServer(config);
  TestClient first(server->tcp_port());
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(first.RoundTrip(R"({"cmd":"PING"})")->GetBool("pong"));
  size_t baseline = CountThreads();
  ASSERT_GT(baseline, 0u);

  constexpr size_t kIdle = 256;
  std::vector<std::unique_ptr<TestClient>> idle;
  for (size_t i = 0; i < kIdle; ++i) {
    idle.push_back(std::make_unique<TestClient>(server->tcp_port()));
    ASSERT_TRUE(idle.back()->connected()) << "connection " << i;
  }
  // Sampled connections across the set still serve requests — they are
  // accepted descriptors, not a backlog illusion — with zero new threads.
  for (size_t i : {size_t{0}, kIdle / 2, kIdle - 1}) {
    std::optional<JsonValue> pong = idle[i]->RoundTrip(R"({"cmd":"PING"})");
    ASSERT_TRUE(pong.has_value()) << "connection " << i;
    EXPECT_TRUE(pong->GetBool("pong"));
  }
  EXPECT_EQ(CountThreads(), baseline);
  EXPECT_GE(server->stats().connections, kIdle + 1);
  server->Stop();
}

// Descriptor exhaustion on accept must evict an idle connection and keep
// accepting, not starve the listener (the classic EMFILE accept spin).
TEST(ServerTest, AcceptUnderEmfileEvictsIdleConnectionsInsteadOfStarving) {
  std::unique_ptr<Server> server = StartServer();
  TestClient sentinel(server->tcp_port());
  ASSERT_TRUE(sentinel.connected());
  ASSERT_TRUE(sentinel.RoundTrip(R"({"cmd":"PING"})")->GetBool("pong"));

  // A few more idle connections to give the eviction policy a pool.
  std::vector<std::unique_ptr<TestClient>> idle;
  for (int i = 0; i < 4; ++i) {
    idle.push_back(std::make_unique<TestClient>(server->tcp_port()));
    ASSERT_TRUE(idle.back()->connected());
    ASSERT_TRUE(idle.back()->RoundTrip(R"({"cmd":"PING"})")->GetBool("pong"));
  }

  // Exhaust the descriptor table, then hand back exactly one slot. The
  // new client's socket() consumes it; the accept on the server side
  // then hits EMFILE and must evict an idle connection to admit it —
  // client and server share this process's table, so nothing else can
  // race for the freed descriptor while we block in recv.
  rlimit old{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &old), 0);
  rlimit tight = old;
  tight.rlim_cur = CountOpenFds() + 8;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  std::vector<int> burners;
  while (true) {
    int fd = ::open("/dev/null", O_RDONLY);
    if (fd < 0) break;
    burners.push_back(fd);
  }
  ASSERT_FALSE(burners.empty());
  ::close(burners.back());
  burners.pop_back();

  TestClient newest(server->tcp_port());
  ASSERT_TRUE(newest.connected());
  std::optional<JsonValue> pong = newest.RoundTrip(R"({"cmd":"PING"})");
  for (int fd : burners) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &old), 0);
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->GetBool("pong"));
  EXPECT_GE(server->stats().idle_closed, 1u);
  // The eviction closed the idlest request-free connection: probing the
  // whole pool finds at least one peer-closed socket.
  size_t evicted = 0;
  if (!sentinel.RoundTrip(R"({"cmd":"PING"})").has_value()) ++evicted;
  for (auto& client : idle) {
    if (!client->RoundTrip(R"({"cmd":"PING"})").has_value()) ++evicted;
  }
  EXPECT_GE(evicted, 1u);
  server->Stop();
}

// Head-of-line isolation: one client that stops reading its (large)
// responses parks them in its per-connection out-buffer; every other
// connection keeps getting served while they sit there, and the slow
// client's responses arrive intact once it finally drains.
TEST(ServerTest, SlowReadingClientDoesNotBlockOtherConnections) {
  std::unique_ptr<Server> server = StartServer();
  // Answers big enough to overrun the slow reader's shrunken receive
  // window plus the kernel send buffer, forcing server-side buffering.
  std::string big;
  for (int i = 0; i < 4000; ++i) {
    big += "d(x" + std::to_string(i) + "). ";
  }
  big += "?(X) :- d(X).";
  TestClient loader(server->tcp_port());
  ASSERT_TRUE(loader.connected());
  ASSERT_TRUE(loader.RoundTrip(LoadLine("big", big))->GetBool("ok"));

  TestClient slow(server->tcp_port(), /*rcvbuf=*/1024);
  ASSERT_TRUE(slow.connected());
  constexpr int kPipelined = 8;
  for (int i = 0; i < kPipelined; ++i) {
    ASSERT_TRUE(slow.SendLine(
        R"({"cmd":"QUERY","session":"big","query_index":0,"id":)" +
        std::to_string(i) + "}"));
  }

  // While the slow client's responses back up, a healthy client must
  // make steady progress through the same server.
  TestClient healthy(server->tcp_port());
  ASSERT_TRUE(healthy.connected());
  for (int i = 0; i < 10; ++i) {
    std::optional<JsonValue> response = healthy.RoundTrip(
        R"({"cmd":"QUERY","session":"big","query_index":0})");
    ASSERT_TRUE(response.has_value()) << "round " << i;
    ASSERT_TRUE(response->GetBool("ok")) << response->Dump();
    ASSERT_EQ(response->Find("answers")->Items().size(), 4000u);
  }

  // Now drain the slow connection: all pipelined responses, in order,
  // uncorrupted.
  for (int i = 0; i < kPipelined; ++i) {
    std::optional<std::string> line = slow.ReadLine();
    ASSERT_TRUE(line.has_value()) << "response " << i;
    std::optional<JsonValue> response = JsonValue::Parse(*line, nullptr);
    ASSERT_TRUE(response.has_value());
    ASSERT_TRUE(response->GetBool("ok"));
    EXPECT_EQ(response->Find("id")->AsNumber(), static_cast<double>(i));
    EXPECT_EQ(response->Find("answers")->Items().size(), 4000u);
  }
  server->Stop();
}

// A client that reads nothing at all is eventually dropped when its
// backlog crosses max_outbuf_bytes — buffering is bounded.
TEST(ServerTest, UnboundedResponseBacklogDropsTheConnection) {
  ServerConfig config;
  config.max_outbuf_bytes = 16 << 10;
  std::unique_ptr<Server> server = StartServer(config);
  std::string big;
  for (int i = 0; i < 20000; ++i) {
    big += "d(x" + std::to_string(i) + "). ";
  }
  big += "?(X) :- d(X).";
  TestClient loader(server->tcp_port());
  ASSERT_TRUE(loader.connected());
  ASSERT_TRUE(loader.RoundTrip(LoadLine("big", big))->GetBool("ok"));

  // The greedy client pipelines queries and never reads. Its tiny
  // receive window plus a full kernel send buffer (tcp autotuning can
  // grow it to tcp_wmem[2], often 4 MiB, so the total backlog here is
  // sized well past that) force responses back into the server's
  // out-buffer, which crosses the 16 KiB cap.
  TestClient greedy(server->tcp_port(), /*rcvbuf=*/1024);
  ASSERT_TRUE(greedy.connected());
  for (int i = 0; i < 32; ++i) {
    if (!greedy.SendLine(
            R"({"cmd":"QUERY","session":"big","query_index":0})")) {
      break;  // already dropped — also a pass
    }
  }
  for (int i = 0; i < 6000 && server->stats().overflow_closed == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server->stats().overflow_closed, 1u);
  if (server->stats().overflow_closed > 0) {
    // The server cut the connection, so reading to EOF terminates.
    std::string sink;
    while (greedy.ReadExact(1, &sink)) {
      sink.clear();
    }
  }
  server->Stop();
}

// The portable poll(2) backend must serve the same contract as epoll;
// the whole protocol flow runs against it.
/// A response line with its one timing-dependent field zeroed.
std::string StableBytes(const std::string& line) {
  static const std::regex kMillis("\"millis\":[0-9]+");
  return std::regex_replace(line, kMillis, "\"millis\":0");
}

TEST(ServerTest, MemoHitsMatchAColdReasonerByteForByte) {
  std::unique_ptr<Server> server = StartServer();
  TestClient client(server->tcp_port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.RoundTrip(LoadLine("s", kProgram))->GetBool("ok"));
  std::vector<std::vector<std::vector<std::string>>> expected =
      DirectAnswers(kProgram, "auto");
  for (size_t q = 0; q < expected.size(); ++q) {
    const std::string query = R"({"cmd":"QUERY","session":"s","query_index":)" +
                              std::to_string(q) + "}";
    // The first query fills the memo for the whole pool; every later
    // reply is a hit and must carry the same bytes.
    ASSERT_TRUE(client.SendLine(query));
    std::optional<std::string> first = client.ReadLine();
    ASSERT_TRUE(first.has_value());
    std::optional<JsonValue> parsed = JsonValue::Parse(*first, nullptr);
    ASSERT_TRUE(parsed.has_value() && parsed->GetBool("ok")) << *first;
    EXPECT_EQ(RowsOf(*parsed), expected[q]);
    for (int repeat = 0; repeat < 3; ++repeat) {
      ASSERT_TRUE(client.SendLine(query));
      std::optional<std::string> hit = client.ReadLine();
      ASSERT_TRUE(hit.has_value());
      EXPECT_EQ(StableBytes(*hit), StableBytes(*first));
    }
  }
  std::optional<JsonValue> stats =
      client.RoundTrip(R"({"cmd":"STATS","session":"s"})");
  ASSERT_TRUE(stats.has_value() && stats->GetBool("ok"));
  EXPECT_EQ(stats->Find("session")->GetUint("answer_memo_misses"), 1u);
  EXPECT_EQ(stats->Find("session")->GetUint("answer_memo_hits"),
            expected.size() * 4 - 1);
  server->Stop();
}

// The Example 3.3 OWL 2 QL encoding (bench_server's program): ada is
// not a student, which the linear search refutes.
constexpr const char* kRefutationProgram = R"(
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
  ?() :- type(ada, student).
)";

/// What the session "burst" did: linear proof searches, and queries
/// that waited for an identical one instead.
struct BurstCounts {
  uint64_t searches = 0;
  uint64_t coalesced = 0;
};

BurstCounts ReadBurstCounts(Server* server) {
  obs::MetricsRegistry& registry = server->metrics();
  return {registry
              .GetCounter("vadalog_search_total",
                          {{"session", "burst"}, {"engine", "linear"}})
              ->Value(),
          registry
              .GetCounter("vadalog_session_queries_coalesced_total",
                          {{"session", "burst"}})
              ->Value()};
}

/// Reloads "burst" with kRefutationProgram (cold cache), holds its
/// search leaders while client c sends `lines[c]`, releases them once
/// `joined(session)` holds, and returns what the burst cost. Every reply
/// must be complete and equal `want`.
BurstCounts RunHeldBurst(Server* server, const std::vector<std::string>& lines,
                         const std::vector<std::vector<std::string>>& want,
                         const std::function<bool(Session&)>& joined) {
  TestClient loader(server->tcp_port());
  EXPECT_TRUE(loader.RoundTrip(LoadLine("burst", kRefutationProgram))
                  ->GetBool("ok"));
  std::shared_ptr<Session> session = server->registry().Find("burst");
  BurstCounts before = ReadBurstCounts(server);
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  auto send = [&] {
    for (const std::string& line : lines) {
      threads.emplace_back([&, line] {
        TestClient client(server->tcp_port());
        std::optional<JsonValue> response = client.RoundTrip(line);
        if (!response.has_value() || !response->GetBool("ok") ||
            !response->GetBool("complete") || RowsOf(*response) != want) {
          ++bad;
        }
      });
    }
  };
  EXPECT_TRUE(SessionTestPeer::HoldLeaders(*session, send,
                                           [&] { return joined(*session); }))
      << "the identical queries never joined one flight";
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  BurstCounts after = ReadBurstCounts(server);
  return {after.searches - before.searches,
          after.coalesced - before.coalesced};
}

std::string BurstQuery(uint64_t max_states) {
  return R"({"cmd":"QUERY","session":"burst","query_index":0,)"
         R"("engine":"linear","max_states":)" +
         std::to_string(max_states) + "}";
}

// A cold burst of one decision runs one search: the first query leads,
// and the other three — held until they have joined its flight — take
// its result instead of searching. Every answer is the serial one.
TEST(ServerTest, ColdBurstOfOneRefutationSharesTheSearch) {
  ServerConfig config;
  config.workers = 4;
  std::unique_ptr<Server> server = StartServer(config);
  const std::vector<std::vector<std::string>> serial =
      DirectAnswers(kRefutationProgram, "linear")[0];
  ASSERT_TRUE(serial.empty());  // a refutation
  BurstCounts burst = RunHeldBurst(
      server.get(), std::vector<std::string>(4, BurstQuery(0)), serial,
      [](Session& session) {
        return SessionTestPeer::Waiters(session, 0) == 3;
      });
  EXPECT_EQ(burst.searches, 1u);
  EXPECT_EQ(burst.coalesced, 3u);
  server->Stop();
}

// Different budgets never share a result: a burst under two max_states
// runs two searches, each answering its own budget's second query.
TEST(ServerTest, ColdBurstUnderTwoBudgetsRunsTwoSearches) {
  ServerConfig config;
  config.workers = 4;
  std::unique_ptr<Server> server = StartServer(config);
  const std::vector<std::vector<std::string>> serial =
      DirectAnswers(kRefutationProgram, "linear")[0];
  BurstCounts burst = RunHeldBurst(
      server.get(),
      {BurstQuery(1000000), BurstQuery(1000001), BurstQuery(1000000),
       BurstQuery(1000001)},
      serial, [](Session& session) {
        return SessionTestPeer::Waiters(session, 1000000) == 1 &&
               SessionTestPeer::Waiters(session, 1000001) == 1;
      });
  EXPECT_EQ(burst.searches, 2u);
  EXPECT_EQ(burst.coalesced, 2u);
  server->Stop();
}

// The event loop once drained its completion queue before reading the
// wake-up pipe dry: a worker finishing in between had its wake-up byte
// swallowed, and its reply sat until some unrelated socket event. A
// pipelined burst on one connection, with no other traffic, is the
// shape that strands a reply forever — each completion dispatches the
// next request, whose (tiny) answer races the loop to the pipe.
TEST(ServerTest, PipelinedRepliesNeverWaitForOtherTraffic) {
  std::unique_ptr<Server> server = StartServer();
  TestClient client(server->tcp_port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.RoundTrip(LoadLine("s", kProgram))->GetBool("ok"));
  client.SetReceiveTimeout(1000);
  constexpr int kRequests = 500;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    if (i > 0) burst += "\n";
    burst += R"({"cmd":"QUERY","session":"s","query_index":)" +
             std::to_string(i % 2) + "}";
  }
  ASSERT_TRUE(client.SendLine(burst));
  for (int i = 0; i < kRequests; ++i) {
    std::optional<std::string> reply = client.ReadLine();
    ASSERT_TRUE(reply.has_value())
        << "reply " << i << " took longer than 1 s (stranded completion)";
    ASSERT_NE(reply->find("\"ok\":true"), std::string::npos) << *reply;
  }
  server->Stop();
}

TEST(ServerTest, PollBackendServesIdentically) {
  ServerConfig config;
  config.poller = "poll";
  std::unique_ptr<Server> server = StartServer(config);
  TestClient client(server->tcp_port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.RoundTrip(LoadLine("s", kProgram))->GetBool("ok"));
  std::vector<std::vector<std::vector<std::string>>> expected =
      DirectAnswers(kProgram, "auto");
  for (size_t q = 0; q < expected.size(); ++q) {
    std::optional<JsonValue> response = client.RoundTrip(
        R"({"cmd":"QUERY","session":"s","query_index":)" +
        std::to_string(q) + "}");
    ASSERT_TRUE(response.has_value());
    ASSERT_TRUE(response->GetBool("ok")) << response->Dump();
    EXPECT_EQ(RowsOf(*response), expected[q]);
  }
  std::optional<JsonValue> pong = client.RoundTrip(R"({"cmd":"PING"})");
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->GetBool("pong"));
  server->Stop();
}

// Wire-API v2 over a real socket: HELLO negotiates the binary encoding
// and the answer frame decodes bit-identical to the JSON rendering of
// the same query on a v1 connection.
TEST(ServerTest, BinaryEncodingMatchesJsonAnswersBitForBit) {
  std::unique_ptr<Server> server = StartServer();
  TestClient json_client(server->tcp_port());
  ASSERT_TRUE(json_client.connected());
  ASSERT_TRUE(json_client.RoundTrip(LoadLine("s", kProgram))->GetBool("ok"));
  std::optional<JsonValue> via_json = json_client.RoundTrip(
      R"({"cmd":"QUERY","session":"s","query_index":0})");
  ASSERT_TRUE(via_json.has_value() && via_json->GetBool("ok"));

  TestClient binary_client(server->tcp_port());
  ASSERT_TRUE(binary_client.connected());
  std::optional<JsonValue> hello = binary_client.RoundTrip(
      R"({"cmd":"HELLO","max_version":2,"encodings":["binary"]})");
  ASSERT_TRUE(hello.has_value()) << "HELLO got no response";
  ASSERT_TRUE(hello->GetBool("ok")) << hello->Dump();
  ASSERT_EQ(hello->GetString("encoding"), "binary");
  ASSERT_EQ(hello->GetUint("version"), 2u);

  ASSERT_TRUE(binary_client.SendLine(
      R"({"v":2,"cmd":"QUERY","session":"s","query_index":0})"));
  std::optional<std::string> head_line = binary_client.ReadLine();
  ASSERT_TRUE(head_line.has_value());
  std::optional<JsonValue> head = JsonValue::Parse(*head_line, nullptr);
  ASSERT_TRUE(head.has_value());
  ASSERT_TRUE(head->GetBool("ok")) << head->Dump();
  EXPECT_EQ(head->Find("answers"), nullptr);
  const JsonValue* descriptor = head->Find("answers_frame");
  ASSERT_NE(descriptor, nullptr);
  std::string payload;
  ASSERT_TRUE(binary_client.ReadExact(
      static_cast<size_t>(descriptor->GetUint("bytes")), &payload));
  protocol::AnswerTable table;
  std::string decode_error;
  ASSERT_TRUE(protocol::DecodeAnswerFrame(payload, &table, &decode_error))
      << decode_error;

  std::vector<std::vector<std::string>> from_frame;
  for (size_t r = 0; r < table.rows(); ++r) {
    std::vector<std::string> row;
    for (size_t c = 0; c < table.columns; ++c) {
      row.push_back(table.cells[r * table.columns + c]);
    }
    from_frame.push_back(std::move(row));
  }
  EXPECT_EQ(from_frame, RowsOf(*via_json));

  // Control responses stay line-framed JSON even on a binary connection.
  std::optional<JsonValue> pong =
      binary_client.RoundTrip(R"({"v":2,"cmd":"PING"})");
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->GetBool("pong"));
  server->Stop();
}

#endif  // !_WIN32

}  // namespace
}  // namespace vadalog
