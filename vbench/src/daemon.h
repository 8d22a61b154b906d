// The daemon under test and the load generator's connections to it.
//
// DaemonProcess spawns the real vadalogd binary as a child process
// (--config tcp_port=0 --print-port: the listen address is the only
// knob the benchmark sets) and reads its CPU time and peak RSS from
// /proc. Client owns every connection of the load generator and is
// driven by one thread: it polls all sockets at once, so closed-loop
// clients and the scheduled writer share one event loop.

#ifndef VBENCH_DAEMON_H_
#define VBENCH_DAEMON_H_

#include <sys/types.h>
#include <time.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "server/json.h"

namespace vbench {

using Clock = std::chrono::steady_clock;

class DaemonProcess {
 public:
  DaemonProcess() = default;
  ~DaemonProcess() { Stop(); }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Spawns `binary` and waits (up to 30 s) for its "PORT <n>" line.
  bool Start(const std::string& binary, std::string* error);

  /// SIGTERM, then waits up to 10 s for the graceful exit before
  /// SIGKILL. Returns true when the daemon exited with status 0.
  bool Stop();

  uint16_t port() const { return port_; }

  /// User + system CPU time the process has used so far, in ms, as
  /// /proc/<pid>/stat reports it (clock ticks).
  double CpuMs() const;

  /// The same total from the process CPU clock, in ns: precise enough
  /// to tell within a few ms whether the daemon is doing any work.
  int64_t CpuNs() const;

  /// VmHWM (peak resident set) in MiB.
  double PeakRssMib() const;

 private:
  pid_t pid_ = -1;
  clockid_t cpu_clock_ = CLOCK_MONOTONIC;
  uint16_t port_ = 0;
};

/// One request in flight on a connection.
struct Pending {
  Clock::time_point sent;
  Clock::time_point due;  // when the request was due (== sent in a closed loop)
  int kind = 0;           // workload-defined
  size_t item = 0;        // workload-defined (query index, write index, ...)
  size_t session = 0;     // index into the workload's sessions
  uint64_t lo = 0;        // warm_stream: writes acknowledged at send time
};

struct Arrival {
  size_t conn;
  Pending pending;
  Clock::time_point at;
  std::string line;
};

class Client {
 public:
  Client() = default;
  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Opens `count` TCP connections to `daemon` and negotiates protocol
  /// v2 with the JSON encoding on each (HELLO).
  bool Open(const DaemonProcess& daemon, size_t count, std::string* error);
  void Close();

  size_t size() const { return conns_.size(); }
  bool busy(size_t conn) const { return conns_[conn].busy; }
  bool AnyBusy() const;

  /// Queues one request line on an idle connection (one request in
  /// flight per connection: every client here waits for its reply).
  void Send(size_t conn, const std::string& line, const Pending& pending);

  /// Flushes queued bytes and waits up to `timeout` for responses,
  /// appending each complete one to `arrivals`. Returns false (with
  /// `error`) when a connection broke or a reply is overdue.
  bool Poll(Clock::duration timeout, std::vector<Arrival>* arrivals,
            std::string* error);

  /// Blocking round trip on one connection, for set-up and scrapes; only
  /// while no other request is in flight.
  std::optional<vadalog::JsonValue> Call(size_t conn, const std::string& line,
                                         std::string* error);

  /// Replies the daemon had finished but did not send until nudged.
  ///
  /// vadalogd's event loop drains its completion queue before it drains
  /// its wake-up pipe, so a worker that finishes in between leaves its
  /// reply queued until some other socket event wakes the loop. Under a
  /// closed loop whose every client is waiting, nothing else comes and
  /// the reply would never be sent. Poll detects that state (replies
  /// outstanding, no reply and no daemon CPU time for kStallWindow) and
  /// pipelines a PING on the oldest waiting connection, which wakes the
  /// loop; the stalled request's latency includes the wait.
  uint64_t stalls() const { return stalls_; }

 private:
  struct Conn {
    int fd = -1;
    std::string in;
    std::string out;
    bool busy = false;
    Pending pending;
    size_t nudges = 0;  // PONG lines still to skip
  };
  void NudgeIfStalled(Clock::time_point now);

  const DaemonProcess* daemon_ = nullptr;
  std::vector<Conn> conns_;
  Clock::time_point quiet_since_;
  int64_t quiet_cpu_ns_ = -1;
  uint64_t stalls_ = 0;
};

}  // namespace vbench

#endif  // VBENCH_DAEMON_H_
