#include "server/client.h"

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include <cerrno>
#include <cstring>
#include <utility>

namespace vadalog {
namespace {

bool Fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

}  // namespace

std::optional<protocol::Response> Client::Call(std::string_view line,
                                               std::string* error) {
  if (!Send(line, error)) return std::nullopt;
  return Read(error);
}

std::optional<protocol::Response> Client::Hello(std::string_view encoding,
                                                std::string* error) {
  return Call(R"({"cmd":"HELLO","max_version":)" +
                  std::to_string(protocol::kMaxVersion) + R"(,"encodings":[)" +
                  JsonValue::String(std::string(encoding)).Dump() + "]}",
              error);
}

#ifdef _WIN32

Client::~Client() = default;
bool Client::ConnectTcp(const std::string&, uint16_t, std::string* error) {
  return Fail(error, "the vadalogd client requires POSIX sockets");
}
bool Client::ConnectUnix(const std::string&, std::string* error) {
  return Fail(error, "the vadalogd client requires POSIX sockets");
}
bool Client::Send(std::string_view, std::string* error) {
  return Fail(error, "not connected");
}
std::optional<protocol::Response> Client::Read(std::string* error) {
  Fail(error, "not connected");
  return std::nullopt;
}

#else  // POSIX

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

bool Client::ConnectTcp(const std::string& host, uint16_t port,
                        std::string* error) {
  std::string address = host == "localhost" ? "127.0.0.1" : host;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    return Fail(error, "bad IPv4 address: " + address);
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    std::string reason = std::strerror(errno);
    if (fd >= 0) ::close(fd);
    return Fail(error, "connect tcp:" + host + ":" + std::to_string(port) +
                           ": " + reason);
  }
  fd_ = fd;
  return true;
}

bool Client::ConnectUnix(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  if (path.size() >= sizeof addr.sun_path) {
    return Fail(error, "unix socket path too long");
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    std::string reason = std::strerror(errno);
    if (fd >= 0) ::close(fd);
    return Fail(error, "connect unix:" + path + ": " + reason);
  }
  fd_ = fd;
  return true;
}

bool Client::Send(std::string_view line, std::string* error) {
  std::string out(line);
  out.push_back('\n');
  size_t sent = 0;
  while (sent < out.size()) {
    ssize_t n =
        ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Fail(error, "connection lost (send)");
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::optional<protocol::Response> Client::Read(std::string* error) {
  while (true) {
    protocol::Response response;
    size_t consumed = 0;
    std::string decode_error;
    if (!protocol::DecodeResponse(buffer_, &response, &consumed,
                                  &decode_error)) {
      Fail(error, "malformed response: " + decode_error);
      return std::nullopt;
    }
    if (consumed != 0) {
      buffer_.erase(0, consumed);
      return response;
    }
    char chunk[65536];
    ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Fail(error, buffer_.empty() ? "connection lost (recv)"
                                  : "connection lost mid-response");
      return std::nullopt;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

#endif  // _WIN32

}  // namespace vadalog
