#include "daemon.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace vbench {

namespace {

// A reply slower than this means the daemon stalled: the run stops and
// counts the request as failed (a timeout).
constexpr auto kReplyTimeout = std::chrono::seconds(60);
// How long the daemon must send nothing and use no CPU, with replies
// outstanding, before Poll nudges it (see Client::stalls). The process
// CPU clock is exact, so a daemon at work never looks stalled, however
// short the window; and the window bounds what one stall adds to a
// request's latency.
constexpr auto kStallWindow = std::chrono::milliseconds(5);

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

bool DaemonProcess::Start(const std::string& binary, std::string* error) {
  int out[2];
  if (::pipe(out) != 0) {
    *error = Errno("pipe");
    return false;
  }
  std::vector<std::string> args = {binary, "--config", "tcp_port=0",
                                   "--print-port"};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ == 0) {
    // The daemon dies with this process even when it is killed or
    // aborts before Stop() runs.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    int null_fd = ::open("/dev/null", O_WRONLY);
    ::dup2(out[1], STDOUT_FILENO);
    ::dup2(null_fd, STDERR_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    ::close(null_fd);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  if (pid_ < 0) {
    ::close(out[0]);
    *error = Errno("fork");
    return false;
  }

  std::string text;
  auto deadline = Clock::now() + std::chrono::seconds(30);
  while (text.find('\n') == std::string::npos) {
    int left = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now())
            .count());
    pollfd pfd = {out[0], POLLIN, 0};
    if (left <= 0 || ::poll(&pfd, 1, left) <= 0) break;
    char chunk[256];
    ssize_t n = ::read(out[0], chunk, sizeof chunk);
    if (n <= 0) break;
    text.append(chunk, static_cast<size_t>(n));
  }
  ::close(out[0]);  // nothing else is printed on stdout
  unsigned port = 0;
  if (std::sscanf(text.c_str(), "PORT %u", &port) != 1 || port == 0 ||
      port > 65535) {
    *error = "vadalogd did not report a port (output: \"" + text + "\")";
    Stop();
    return false;
  }
  port_ = static_cast<uint16_t>(port);
  if (::clock_getcpuclockid(pid_, &cpu_clock_) != 0) {
    *error = "clock_getcpuclockid failed";
    Stop();
    return false;
  }
  return true;
}

bool DaemonProcess::Stop() {
  if (pid_ <= 0) return true;
  ::kill(pid_, SIGTERM);
  int status = 0;
  bool exited = false;
  auto deadline = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < deadline) {
    pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_ || (done < 0 && errno != EINTR)) {
      exited = done == pid_;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  pid_ = -1;
  return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double DaemonProcess::CpuMs() const {
  std::ifstream file("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are
  // fields 14 and 15 of the whole line, i.e. 12 and 13 after ')'.
  size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i >= 12) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

int64_t DaemonProcess::CpuNs() const {
  timespec now = {};
  if (::clock_gettime(cpu_clock_, &now) != 0) return -1;
  return static_cast<int64_t>(now.tv_sec) * 1000000000 + now.tv_nsec;
}

double DaemonProcess::PeakRssMib() const {
  std::ifstream file("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(file, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

bool Client::Open(const DaemonProcess& daemon, size_t count,
                  std::string* error) {
  Close();
  daemon_ = &daemon;
  const uint16_t port = daemon.port();
  for (size_t i = 0; i < count; ++i) {
    Conn conn;
    conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (conn.fd < 0) {
      *error = Errno("socket");
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      *error = Errno("connect");
      ::close(conn.fd);
      return false;
    }
    int one = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
    conns_.push_back(std::move(conn));
    std::optional<vadalog::JsonValue> hello = Call(
        i, R"({"cmd":"HELLO","max_version":2,"encodings":["json"]})", error);
    if (!hello.has_value()) return false;
    if (!hello->GetBool("ok") || hello->GetString("encoding") != "json") {
      *error = "HELLO failed: " + hello->Dump();
      return false;
    }
  }
  return true;
}

void Client::Close() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  conns_.clear();
}

bool Client::AnyBusy() const {
  for (const Conn& conn : conns_) {
    if (conn.busy) return true;
  }
  return false;
}

void Client::Send(size_t conn, const std::string& line,
                  const Pending& pending) {
  Conn& c = conns_[conn];
  c.out += line;
  c.out += '\n';
  c.busy = true;
  c.pending = pending;
  quiet_since_ = Clock::now();
  quiet_cpu_ns_ = -1;
}

void Client::NudgeIfStalled(Clock::time_point now) {
  if (!AnyBusy() || now - quiet_since_ < kStallWindow) return;
  int64_t cpu_ns = daemon_->CpuNs();
  if (cpu_ns >= 0 && cpu_ns == quiet_cpu_ns_) {
    size_t oldest = conns_.size();
    for (size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].busy &&
          (oldest == conns_.size() ||
           conns_[i].pending.sent < conns_[oldest].pending.sent)) {
        oldest = i;
      }
    }
    conns_[oldest].out += "{\"cmd\":\"PING\"}\n";
    ++conns_[oldest].nudges;
    ++stalls_;
  }
  quiet_cpu_ns_ = cpu_ns;
  quiet_since_ = now;
}

bool Client::Poll(Clock::duration timeout, std::vector<Arrival>* arrivals,
                  std::string* error) {
  std::vector<pollfd> fds(conns_.size());
  for (size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    // Write eagerly; only what the socket refuses waits for POLLOUT.
    while (!c.out.empty()) {
      ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) {
        *error = Errno("send");
        return false;
      }
      c.out.erase(0, static_cast<size_t>(n));
    }
    fds[i] = {c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)),
              0};
  }
  if (AnyBusy()) timeout = std::min<Clock::duration>(timeout, kStallWindow);
  // ppoll: the writer's schedule needs sub-millisecond wake-ups.
  auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(timeout);
  timespec wait = {static_cast<time_t>(ns.count() / 1000000000),
                   static_cast<long>(ns.count() % 1000000000)};
  int ready = ::ppoll(fds.data(), fds.size(), &wait, nullptr);
  if (ready < 0 && errno != EINTR) {
    *error = Errno("poll");
    return false;
  }
  Clock::time_point now = Clock::now();
  for (size_t i = 0; i < conns_.size() && ready > 0; ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    Conn& c = conns_[i];
    char chunk[65536];
    while (true) {
      ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) {
        *error = n == 0 ? "daemon closed a connection" : Errno("recv");
        return false;
      }
      c.in.append(chunk, static_cast<size_t>(n));
    }
    size_t newline;
    while ((newline = c.in.find('\n')) != std::string::npos) {
      if (c.nudges > 0 && c.in.find("\"pong\":true") < newline) {
        --c.nudges;
        c.in.erase(0, newline + 1);
        continue;
      }
      if (!c.busy) {
        *error = "unsolicited response: " + c.in.substr(0, newline);
        return false;
      }
      arrivals->push_back({i, c.pending, now, c.in.substr(0, newline)});
      c.in.erase(0, newline + 1);
      c.busy = false;
      quiet_since_ = now;
      quiet_cpu_ns_ = -1;
    }
  }
  NudgeIfStalled(now);
  for (size_t i = 0; i < conns_.size(); ++i) {
    const Conn& c = conns_[i];
    if (c.busy && now - c.pending.sent > kReplyTimeout) {
      *error = "reply timed out on connection " + std::to_string(i) +
               " (request kind " + std::to_string(c.pending.kind) + ", item " +
               std::to_string(c.pending.item) + ", " +
               std::to_string(c.out.size()) + " bytes unsent, " +
               std::to_string(c.in.size()) + " bytes of partial reply)";
      return false;
    }
  }
  return true;
}

std::optional<vadalog::JsonValue> Client::Call(size_t conn,
                                               const std::string& line,
                                               std::string* error) {
  if (AnyBusy()) {
    *error = "Call while a request is in flight";
    return std::nullopt;
  }
  Send(conn, line, Pending{Clock::now(), Clock::now()});
  std::vector<Arrival> arrivals;
  while (arrivals.empty()) {
    if (!Poll(std::chrono::milliseconds(100), &arrivals, error)) {
      return std::nullopt;
    }
  }
  std::optional<vadalog::JsonValue> response =
      vadalog::JsonValue::Parse(arrivals.front().line, nullptr);
  if (!response.has_value()) *error = "unparseable response";
  return response;
}

}  // namespace vbench
