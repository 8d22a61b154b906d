// vadalogd's socket front end: a single event loop owning every
// descriptor — the TCP (loopback) and Unix-domain listeners, all
// accepted connections, and a self-pipe — feeding the negotiated wire
// protocol into a SessionRegistry, with request *execution* forked onto
// the shared WorkerPool.
//
// Threading model: exactly 1 + workers threads, independent of the
// connection count. The loop thread multiplexes all sockets through a
// Poller (epoll on Linux, poll portably; level-triggered): non-blocking
// reads accumulate into per-connection buffers, complete newline-framed
// requests are parsed and admission-checked on the loop, and execution
// happens on the pool. Workers hand the encoded response bytes back
// through a completion queue + self-pipe wakeup; the loop queues them
// onto the connection's out-buffer and drains it as the socket accepts
// writes. Consequences the old thread-per-connection design couldn't
// offer:
//
//   * idle connections cost one fd and ~nothing else — no parked reader
//     thread — so thousands of mostly-idle clients are fine;
//   * a slow-reading client cannot block anyone: its responses pile into
//     its own out-buffer (bounded by max_outbuf_bytes, beyond which the
//     connection is dropped) while the loop keeps serving others;
//   * descriptor pressure is survivable: on EMFILE the loop evicts its
//     idlest request-free connection instead of starving accept.
//
// Ordering contract: requests on one connection execute serially in
// arrival order (responses can't interleave or reorder — the v1
// contract); requests on different connections execute concurrently up
// to the pool size. Admission control sits in front of the pool queue:
// a global and a per-session cap on in-flight requests, both rejecting
// with a structured EBUSY (clients retry) instead of queueing
// unboundedly. The admission counters are owned by the loop thread —
// no mutex. PING and STATS run inline on the loop (no admission, no
// pool) so monitoring stays responsive under a saturated pool; HELLO
// also runs inline, because it mutates the connection's negotiated
// WireState, which only the loop may touch.
//
// Graceful shutdown: stop accepting and reading, drop requests not yet
// dispatched, finish executing ones, best-effort flush of out-buffers
// (bounded — a stopped server does not wait forever on a stalled
// reader), join the loop, drain the pool.

#ifndef VADALOG_SERVER_SERVER_H_
#define VADALOG_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "server/config.h"
#include "server/poller.h"
#include "server/session.h"
#include "server/worker_pool.h"

namespace vadalog {

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();  // Stop()

  /// Binds the endpoints and launches the event loop. False + `error`
  /// on failure (including a config that fails Validate()).
  bool Start(std::string* error);

  /// Graceful shutdown; idempotent.
  void Stop();

  /// The bound TCP port (after Start) or 0 when TCP is disabled.
  uint16_t tcp_port() const { return bound_tcp_port_; }
  const std::string& unix_path() const { return config_.unix_path; }

  SessionRegistry& registry() { return registry_; }
  WorkerPool& pool() { return *pool_; }
  /// The daemon's one metrics registry: every session's counter families
  /// plus the vadalogd_* server instruments; METRICS and the Prometheus
  /// scraper snapshot it.
  obs::MetricsRegistry& metrics() { return metrics_; }

  struct Stats {
    uint64_t connections = 0;
    uint64_t requests = 0;
    uint64_t rejected_global = 0;
    uint64_t rejected_session = 0;
    /// Idle request-free connections evicted under descriptor pressure
    /// (EMFILE/ENFILE on accept) or the max_connections cap.
    uint64_t idle_closed = 0;
    /// Connections dropped because their unsent response backlog
    /// crossed max_outbuf_bytes (client stopped reading).
    uint64_t overflow_closed = 0;
  };
  /// Read from the registry counters (the struct API is kept for the
  /// tests and tools that already consume it; `idle_closed` is the sum
  /// of the finer-grained evicted/shed/connlimit series METRICS splits).
  Stats stats() const;

 private:
  /// One live client connection; owned by the loop thread. Workers only
  /// ever hold a weak_ptr (inside a queued completion) — if the loop
  /// closed the connection meanwhile, the completion's response is
  /// dropped and only the admission bookkeeping survives.
  ///
  /// The fields themselves carry no GUARDED_BY (a nested struct cannot
  /// name the enclosing Server's loop_role_); instead every function
  /// that touches a Connection REQUIRES(loop_role_), which gives the
  /// same compile-time coverage one call frame up.
  struct Connection {
    int fd = -1;
    /// Negotiated wire state (HELLO); loop-thread only.
    protocol::WireState wire;
    /// Bytes received but not yet framed into a line.
    std::string in;
    /// Complete request lines waiting for their turn (serial order).
    std::deque<std::string> pending_lines;
    /// Encoded response bytes not yet accepted by the socket.
    std::string out;
    size_t out_sent = 0;
    /// A request from this connection is executing on the pool.
    bool executing = false;
    /// EOF seen or protocol fault: finish what's in flight, flush, close.
    bool closing = false;
    /// The interest currently registered with the poller, so Mod is
    /// only issued on transitions.
    bool want_read = true;
    bool want_write = false;
    /// Monotonic activity stamp; the EMFILE eviction picks the minimum.
    uint64_t last_active = 0;
  };

  /// A finished request coming back from the pool. `session` rides along
  /// so the loop can release the admission slot even if the connection
  /// died while the request ran.
  struct Completion {
    std::weak_ptr<Connection> connection;
    std::string bytes;
    std::string session;
  };

  /// The loop thread's body; claims loop_role_ for its lifetime, which
  /// is what lets it call every REQUIRES(loop_role_) helper below.
  void EventLoop();
  void AcceptReady(int listen_fd) REQUIRES(loop_role_);
  void ReadReady(const std::shared_ptr<Connection>& connection)
      REQUIRES(loop_role_);
  void WriteReady(const std::shared_ptr<Connection>& connection)
      REQUIRES(loop_role_);
  /// Splits the in-buffer into lines and serves pending ones while the
  /// connection has no request executing.
  void FrameAndDispatch(const std::shared_ptr<Connection>& connection)
      REQUIRES(loop_role_);
  void DispatchPending(const std::shared_ptr<Connection>& connection)
      REQUIRES(loop_role_);
  /// Serves one line: inline for HELLO/PING/STATS/parse errors/EBUSY,
  /// pool-forked for everything else (sets `executing`).
  void ServeLine(const std::shared_ptr<Connection>& connection,
                 const std::string& line) REQUIRES(loop_role_);
  /// Appends encoded bytes to the out-buffer, writes what the socket
  /// takes now, and updates write interest / overflow accounting.
  void QueueResponse(const std::shared_ptr<Connection>& connection,
                     std::string bytes) REQUIRES(loop_role_);
  void FlushOut(const std::shared_ptr<Connection>& connection)
      REQUIRES(loop_role_);
  void UpdateInterest(const std::shared_ptr<Connection>& connection)
      REQUIRES(loop_role_);
  void CloseConnection(int fd) REQUIRES(loop_role_);
  /// Moves queued completions onto their connections' out-buffers and
  /// releases their admission slots.
  void DrainCompletions() REQUIRES(loop_role_) EXCLUDES(completions_mutex_);
  /// Closes the idlest request-free connection (descriptor pressure).
  /// False when every connection has work in flight.
  bool EvictIdleConnection() REQUIRES(loop_role_);
  /// True while any connection still has a request on the pool.
  bool AnyExecuting() const REQUIRES(loop_role_);
  void ReleaseAdmission(const std::string& session) REQUIRES(loop_role_);

  /// The loop/accept/admission instrument handles (vadalogd_* families),
  /// registered once at construction. `idle_closed` of the Stats struct
  /// = idle_evicted + emfile_shed + connlimit_closed.
  struct Counters {
    obs::Counter* connections = nullptr;
    obs::Gauge* connections_open = nullptr;
    obs::Counter* requests = nullptr;
    obs::Counter* rejected_global = nullptr;
    obs::Counter* rejected_session = nullptr;
    obs::Counter* idle_evicted = nullptr;
    obs::Counter* emfile_shed = nullptr;
    obs::Counter* connlimit_closed = nullptr;
    obs::Counter* overflow_closed = nullptr;
    obs::Gauge* inflight = nullptr;
    obs::Counter* loop_iterations = nullptr;
    obs::Histogram* loop_iteration_us = nullptr;
    obs::Counter* wakeups = nullptr;
    obs::Histogram* queue_wait_us = nullptr;
  };

  ServerConfig config_;
  std::unique_ptr<WorkerPool> pool_;
  /// Declared before registry_: sessions register their counter families
  /// here during construction and hold handles into it.
  obs::MetricsRegistry metrics_;
  obs::SlowQueryLog slow_log_;
  SessionRegistry registry_;
  Counters counters_;

  std::atomic<bool> running_{false};
  uint16_t bound_tcp_port_ = 0;
  std::vector<int> listen_fds_;
  int wakeup_read_ = -1;
  int wakeup_write_ = -1;
  /// The loop-thread ownership capability (a zero-cost "role" fake
  /// capability, base/mutex.h): it stands for "this code runs on the
  /// event-loop thread". EventLoop claims it for its lifetime; Start
  /// (before the thread launches) and Stop (after the join) assert it
  /// for the phases when no loop thread exists, so single-ownership-by-
  /// phase is what the analysis checks. Everything GUARDED_BY(loop_role_)
  /// is the state the comments used to call "loop-thread only" — an
  /// access from anywhere else is now a compile error under clang
  /// -Wthread-safety instead of a latent data race.
  base::ThreadRole loop_role_;

  /// An fd held in reserve (open on /dev/null) so accept can still make
  /// progress under EMFILE when no idle connection is evictable: close
  /// it, accept-and-close the pending connection, reopen.
  int reserve_fd_ GUARDED_BY(loop_role_) = -1;
  std::thread loop_thread_;
  std::unique_ptr<Poller> poller_;

  // Loop-thread state: single owner, enforced by loop_role_ (no mutex).
  std::map<int, std::shared_ptr<Connection>> connections_
      GUARDED_BY(loop_role_);
  /// Descriptors closed while handling the current event batch: a later
  /// event in the same batch may still name such an fd — possibly
  /// already recycled by an accept — and must be ignored.
  std::set<int> closed_in_batch_ GUARDED_BY(loop_role_);
  uint64_t activity_clock_ GUARDED_BY(loop_role_) = 0;
  size_t inflight_ GUARDED_BY(loop_role_) = 0;
  std::map<std::string, size_t> inflight_by_session_ GUARDED_BY(loop_role_);

  // The worker → loop handoff; the only cross-thread state.
  base::Mutex completions_mutex_;
  std::vector<Completion> completions_ GUARDED_BY(completions_mutex_);
};

namespace server_internal {

/// One recv() with the error taxonomy the event loop needs, exposed for
/// direct unit testing. Retries EINTR internally — a stray signal (e.g.
/// during a SIGTERM drain) must never drop an in-flight request — and
/// reports EAGAIN/EWOULDBLOCK as kRetry, distinct from the peer closing:
/// on the loop's non-blocking sockets kRetry means "drained for now,
/// wait for the next readiness event". POSIX only.
enum class RecvStatus { kData, kClosed, kRetry, kError };
RecvStatus RecvChunk(int fd, char* buffer, size_t capacity,
                     size_t* received);

}  // namespace server_internal

}  // namespace vadalog

#endif  // VADALOG_SERVER_SERVER_H_
