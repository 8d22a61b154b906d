// Blocking client for the vadalogd wire protocol (server/protocol.h): one
// stream connection over TCP or a Unix-domain socket, request lines out,
// responses back in as the transport-independent protocol::Response —
// decoded by protocol::DecodeResponse under whichever encoding the
// connection negotiated, so a caller never sees the framing.
//
//   Client client;
//   if (!client.ConnectTcp("127.0.0.1", port, &error)) ...
//   std::optional<protocol::Response> reply =
//       client.Call(R"({"cmd":"QUERY","session":"s","query_index":0})");
//
// Requests may be pipelined: Send() several lines, then Read() the
// replies in order. The tools, the tests and the benches all talk to the
// daemon through this one class. POSIX only: on other platforms every
// connect fails with an error.

#ifndef VADALOG_SERVER_CLIENT_H_
#define VADALOG_SERVER_CLIENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "server/protocol.h"

namespace vadalog {

class Client {
 public:
  Client() = default;
  /// Adopts an already connected stream socket; the destructor closes it.
  explicit Client(int fd) : fd_(fd) {}
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// `host` is an IPv4 literal or "localhost".
  bool ConnectTcp(const std::string& host, uint16_t port, std::string* error);
  bool ConnectUnix(const std::string& path, std::string* error);

  bool connected() const { return fd_ >= 0; }
  /// The socket, for socket options (e.g. SO_RCVTIMEO); -1 when closed.
  int fd() const { return fd_; }

  /// Sends `line` and the newline that ends it.
  bool Send(std::string_view line, std::string* error = nullptr);

  /// Reads the next response; nullopt (and `*error`) when the connection
  /// closes, times out or delivers a malformed response.
  std::optional<protocol::Response> Read(std::string* error = nullptr);

  /// Send, then Read.
  std::optional<protocol::Response> Call(std::string_view line,
                                         std::string* error = nullptr);

  /// Sends a HELLO offering protocol::kMaxVersion and the single response
  /// `encoding`, and returns the negotiation response. The connection
  /// speaks whatever that response grants — the server falls back to
  /// JSON when it does not allow `encoding` — so a caller that needs the
  /// encoding checks the response's "encoding" member.
  std::optional<protocol::Response> Hello(std::string_view encoding,
                                          std::string* error = nullptr);

 private:
  int fd_ = -1;
  std::string buffer_;  // received bytes not yet decoded
};

}  // namespace vadalog

#endif  // VADALOG_SERVER_CLIENT_H_
