// ServerConfig: the one coherent knob surface for vadalogd. Every
// runtime parameter of the daemon — listen endpoints, admission caps,
// buffering limits, the wire-encoding allowlist, worker threads,
// per-session cache sizing, event-loop backend — lives here as a flat
// field with a stable string key, so the same struct backs
//
//   * `vadalogd --config KEY=VALUE` (repeatable; `--config list` prints
//     the key table), and
//   * in-process construction by tests and benches.
//
// Set() maps a KEY=VALUE pair onto its field with full validation;
// Validate() checks cross-field coherence once parsing is done. Both
// return human-readable errors — the daemon exits with them, it never
// starts on a config it only partially understood.

#ifndef VADALOG_SERVER_CONFIG_H_
#define VADALOG_SERVER_CONFIG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "server/protocol.h"

namespace vadalog {

struct ServerConfig {
  /// Listen on 127.0.0.1:tcp_port when `tcp` is set; port 0 binds an
  /// ephemeral port (read it back from Server::tcp_port() after Start).
  bool tcp = true;
  uint16_t tcp_port = 0;

  /// Additionally listen on this Unix-domain socket path when non-empty.
  /// A stale socket file at the path is unlinked first.
  std::string unix_path;

  /// Worker pool size: requests execute concurrently, each proof search
  /// sequentially on its worker. The daemon's entire thread budget is 1
  /// event loop + this many workers, independent of the connection count.
  size_t workers = 4;

  /// Generational eviction threshold for each session's proof cache and
  /// answer memo together.
  size_t cache_byte_limit = 64ull << 20;

  /// Admission control: caps on in-flight (queued + executing) requests,
  /// global and per session; excess is rejected with EBUSY + retry:true.
  size_t max_inflight = 64;
  size_t max_inflight_per_session = 16;

  /// Cap on simultaneously open client connections; the accept loop
  /// closes new arrivals beyond it. Under descriptor pressure (EMFILE)
  /// the loop additionally evicts its idlest request-free connection.
  size_t max_connections = 4096;

  /// A request line longer than this kills its connection (the framing
  /// cannot be trusted past an overrun).
  size_t max_line_bytes = 8ull << 20;

  /// A connection whose unsent response backlog exceeds this is dropped:
  /// a client that stops reading must not grow the daemon's memory
  /// without bound (its responses are queued, never blocking the loop).
  size_t max_outbuf_bytes = 64ull << 20;

  /// Response encodings a HELLO may negotiate, in the order offered.
  /// JSON is always usable (it is the pre-negotiation default);
  /// removing "binary" confines every connection to v1-style lines.
  std::vector<protocol::Encoding> encodings = {protocol::Encoding::kJson,
                                               protocol::Encoding::kBinary};

  /// Event-notification backend: "epoll" (Linux; falls back to poll
  /// where unavailable) or "poll" (portable POSIX). One key so the
  /// fallback path stays testable on Linux too.
  std::string poller = "epoll";

  /// Minimum log level for the daemon's stderr lines:
  /// debug | info | warn | error | off (obs/log.h).
  std::string log_level = "info";

  /// Slow-query threshold in milliseconds; a QUERY/EXPLAIN whose
  /// end-to-end serving time reaches it is recorded in the slow-query
  /// log with its full span breakdown. 0 = disabled.
  uint64_t slow_query_ms = 0;

  /// Slow-query log sink: a file path (opened for append), or
  /// "stderr"/"" for stderr. Only consulted when slow_query_ms > 0.
  std::string slow_query_log;

  /// Applies one KEY=VALUE pair (the --config surface). Returns false
  /// with `error` set on an unknown key or an out-of-range value.
  bool Set(std::string_view key, std::string_view value, std::string* error);

  /// Cross-field validation; empty string when coherent.
  std::string Validate() const;

  /// One "key<TAB>current<TAB>help" line per key (--config list).
  static std::string DescribeKeys();
};

}  // namespace vadalog

#endif  // VADALOG_SERVER_CONFIG_H_
