#include "server/config.h"

#include <cstdlib>

#include "obs/log.h"

namespace vadalog {

namespace {

bool ParseUint(std::string_view value, uint64_t* out) {
  if (value.empty()) return false;
  uint64_t parsed = 0;
  for (char c : value) {
    if (c < '0' || c > '9') return false;
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (parsed > (UINT64_MAX - digit) / 10) return false;  // overflow
    parsed = parsed * 10 + digit;
  }
  *out = parsed;
  return true;
}

bool ParseBool(std::string_view value, bool* out) {
  if (value == "true" || value == "1" || value == "on") {
    *out = true;
    return true;
  }
  if (value == "false" || value == "0" || value == "off") {
    *out = false;
    return true;
  }
  return false;
}

bool FailSet(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

struct KeyDoc {
  const char* key;
  const char* help;
};

constexpr KeyDoc kKeyDocs[] = {
    {"tcp", "listen on TCP loopback (true/false)"},
    {"tcp_port", "TCP port, 0 = ephemeral (0..65535)"},
    {"unix", "Unix-domain socket path, empty = disabled"},
    {"workers", "worker pool size (>= 1); thread budget = 1 loop + workers"},
    {"cache_bytes", "per-session proof-cache + answer-memo byte cap"},
    {"max_inflight", "global in-flight request cap (>= 1)"},
    {"max_inflight_per_session", "per-session in-flight cap (>= 1)"},
    {"max_connections", "open client connection cap (>= 1)"},
    {"max_line_bytes", "request line length cap (>= 1024)"},
    {"max_outbuf_bytes", "per-connection unsent response cap (>= 4096)"},
    {"encodings", "comma-separated negotiable encodings (json,binary)"},
    {"poller", "event backend: epoll (Linux) or poll (portable)"},
    {"log_level", "stderr log level: debug, info, warn, error, off"},
    {"slow_query_ms", "slow-query log threshold in ms, 0 = disabled"},
    {"slow_query_log", "slow-query sink: file path, or stderr (default)"},
};

}  // namespace

bool ServerConfig::Set(std::string_view key, std::string_view value,
                       std::string* error) {
  auto bad_value = [&](const char* expected) {
    return FailSet(error, "config " + std::string(key) + "=" +
                              std::string(value) + ": expected " + expected);
  };
  uint64_t number = 0;
  if (key == "tcp") {
    if (!ParseBool(value, &tcp)) return bad_value("true/false");
  } else if (key == "tcp_port") {
    if (!ParseUint(value, &number) || number > 65535) {
      return bad_value("a port in 0..65535");
    }
    tcp_port = static_cast<uint16_t>(number);
  } else if (key == "unix") {
    unix_path = std::string(value);
  } else if (key == "workers") {
    if (!ParseUint(value, &number) || number == 0 || number > 1024) {
      return bad_value("a thread count in 1..1024");
    }
    workers = static_cast<size_t>(number);
  } else if (key == "cache_bytes") {
    if (!ParseUint(value, &number)) return bad_value("a byte count");
    cache_byte_limit = static_cast<size_t>(number);
  } else if (key == "max_inflight") {
    if (!ParseUint(value, &number) || number == 0) {
      return bad_value("a positive request count");
    }
    max_inflight = static_cast<size_t>(number);
  } else if (key == "max_inflight_per_session") {
    if (!ParseUint(value, &number) || number == 0) {
      return bad_value("a positive request count");
    }
    max_inflight_per_session = static_cast<size_t>(number);
  } else if (key == "max_connections") {
    if (!ParseUint(value, &number) || number == 0) {
      return bad_value("a positive connection count");
    }
    max_connections = static_cast<size_t>(number);
  } else if (key == "max_line_bytes") {
    if (!ParseUint(value, &number) || number < 1024) {
      return bad_value("a byte count >= 1024");
    }
    max_line_bytes = static_cast<size_t>(number);
  } else if (key == "max_outbuf_bytes") {
    if (!ParseUint(value, &number) || number < 4096) {
      return bad_value("a byte count >= 4096");
    }
    max_outbuf_bytes = static_cast<size_t>(number);
  } else if (key == "encodings") {
    std::vector<protocol::Encoding> parsed;
    size_t start = 0;
    while (start <= value.size()) {
      size_t comma = value.find(',', start);
      std::string_view name = value.substr(
          start, comma == std::string_view::npos ? comma : comma - start);
      std::optional<protocol::Encoding> encoding =
          protocol::EncodingFromName(name);
      if (!encoding.has_value()) {
        return bad_value("a comma-separated subset of json,binary");
      }
      parsed.push_back(*encoding);
      if (comma == std::string_view::npos) break;
      start = comma + 1;
    }
    if (parsed.empty()) {
      return bad_value("a comma-separated subset of json,binary");
    }
    encodings = std::move(parsed);
  } else if (key == "poller") {
    if (value != "epoll" && value != "poll") {
      return bad_value("epoll or poll");
    }
    poller = std::string(value);
  } else if (key == "log_level") {
    obs::LogLevel level = obs::LogLevel::kInfo;
    if (!obs::LogLevelFromName(value, &level)) {
      return bad_value("one of debug, info, warn, error, off");
    }
    log_level = std::string(value);
  } else if (key == "slow_query_ms") {
    if (!ParseUint(value, &number)) return bad_value("a millisecond count");
    slow_query_ms = number;
  } else if (key == "slow_query_log") {
    slow_query_log = std::string(value);
  } else {
    return FailSet(error, "unknown config key \"" + std::string(key) +
                              "\" (try --config list)");
  }
  return true;
}

std::string ServerConfig::Validate() const {
  if (!tcp && unix_path.empty()) {
    return "no listening endpoint configured (tcp=false and unix empty)";
  }
  bool has_json = false;
  for (protocol::Encoding encoding : encodings) {
    if (encoding == protocol::Encoding::kJson) has_json = true;
  }
  if (!has_json) {
    // JSON is the pre-negotiation default every connection starts in;
    // an allowlist without it would advertise a contract the server
    // cannot honor for clients that never HELLO.
    return "encodings must include json (the pre-negotiation default)";
  }
  if (max_inflight_per_session > max_inflight) {
    return "max_inflight_per_session exceeds max_inflight";
  }
  obs::LogLevel level = obs::LogLevel::kInfo;
  if (!obs::LogLevelFromName(log_level, &level)) {
    return "log_level must be one of debug, info, warn, error, off";
  }
  return "";
}

std::string ServerConfig::DescribeKeys() {
  std::string out;
  for (const KeyDoc& doc : kKeyDocs) {
    out += doc.key;
    out += "\t";
    out += doc.help;
    out += "\n";
  }
  return out;
}

}  // namespace vadalog
