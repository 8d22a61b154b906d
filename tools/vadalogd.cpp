// vadalogd — the long-lived reasoning daemon. Loads programs once into
// named sessions and answers many queries against them concurrently over
// a negotiated newline-JSON / binary wire protocol (see
// src/server/protocol.h and the README's "Running as a service"
// section). One event-loop thread serves every connection; request
// execution runs on a fixed worker pool.
//
// Usage:
//   vadalogd [options]
//     --config KEY=VALUE      set any server knob (repeatable); the full
//                             key table: --config list
//     --load NAME=FILE        preload FILE into session NAME (repeatable)
//     --print-port            print "PORT <n>" once listening (scripts
//                             use this with --config tcp_port=0)
//     --version
//
// SIGINT/SIGTERM trigger a graceful shutdown: stop accepting, finish
// in-flight requests, exit 0.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "base/version.h"
#include "obs/log.h"
#include "server/server.h"

using namespace vadalog;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--config KEY=VALUE]... [--load NAME=FILE]...\n"
               "          [--print-port] [--version]\n"
               "       %s --config list    (print the config key table)\n",
               argv0, argv0);
  return 2;
}

#ifndef _WIN32
int g_signal_pipe[2] = {-1, -1};

void HandleSignal(int) {
  char byte = 1;
  // write(2) is async-signal-safe; the return value is irrelevant (the
  // pipe being full still wakes the reader).
  ssize_t ignored = ::write(g_signal_pipe[1], &byte, 1);
  (void)ignored;
}
#endif

/// Applies one KEY=VALUE pair to the config; exits with the config
/// layer's own message on error.
bool ApplyConfig(ServerConfig* config, const std::string& pair) {
  size_t eq = pair.find('=');
  if (eq == std::string::npos || eq == 0) {
    obs::LogError("--config wants KEY=VALUE, got \"%s\"", pair.c_str());
    return false;
  }
  std::string error;
  if (!config->Set(std::string_view(pair).substr(0, eq),
                   std::string_view(pair).substr(eq + 1), &error)) {
    obs::LogError("%s", error.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ServerConfig config;
  config.tcp_port = 4333;
  bool print_port = false;
  std::vector<std::pair<std::string, std::string>> preloads;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--version") == 0) {
      std::printf("vadalogd %s (protocol v%d..%d)\n", kVersionString,
                  protocol::kVersion, protocol::kMaxVersion);
      return 0;
    } else if (std::strcmp(arg, "--config") == 0 && i + 1 < argc) {
      std::string pair = argv[++i];
      if (pair == "list") {
        std::fputs(ServerConfig::DescribeKeys().c_str(), stdout);
        return 0;
      }
      if (!ApplyConfig(&config, pair)) return 2;
    } else if (std::strncmp(arg, "--config=", 9) == 0) {
      std::string pair = arg + 9;
      if (pair == "list") {
        std::fputs(ServerConfig::DescribeKeys().c_str(), stdout);
        return 0;
      }
      if (!ApplyConfig(&config, pair)) return 2;
    } else if (std::strcmp(arg, "--print-port") == 0) {
      print_port = true;
    } else if (std::strcmp(arg, "--load") == 0 && i + 1 < argc) {
      std::string spec = argv[++i];
      size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0) return Usage(argv[0]);
      preloads.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else {
      return Usage(argv[0]);
    }
  }

  std::string config_error = config.Validate();
  if (!config_error.empty()) {
    obs::LogError("invalid config: %s", config_error.c_str());
    return 2;
  }

#ifdef _WIN32
  obs::LogError("vadalogd requires POSIX sockets");
  return 1;
#else
  // Handlers go in before anything listens or loads: a supervisor's
  // SIGTERM during a slow --load preload must still shut down
  // gracefully (exit 0, socket files unlinked), not hit the default
  // disposition.
  if (::pipe(g_signal_pipe) != 0) {
    obs::LogError("pipe: %s", std::strerror(errno));
    return 1;
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGPIPE, SIG_IGN);

  Server server(config);
  std::string error;
  if (!server.Start(&error)) {
    obs::LogError("%s", error.c_str());
    return 1;
  }

  for (const auto& [name, path] : preloads) {
    std::ifstream file(path);
    if (!file) {
      obs::LogError("cannot open %s", path.c_str());
      return 1;
    }
    std::stringstream text;
    text << file.rdbuf();
    protocol::Request request;
    request.cmd = protocol::Command::kLoadProgram;
    request.session = name;
    request.program = text.str();
    JsonValue response = server.registry().Handle(request).ToJson();
    const JsonValue* ok = response.Find("ok");
    if (ok == nullptr || !ok->AsBool()) {
      obs::LogError("preload %s failed: %s", name.c_str(),
                    response.Dump().c_str());
      return 1;
    }
    obs::LogInfo("loaded session %s from %s", name.c_str(), path.c_str());
  }

  if (print_port) {
    std::printf("PORT %u\n", server.tcp_port());
    std::fflush(stdout);
  }
  std::string endpoints;
  if (config.tcp) {
    endpoints += " on 127.0.0.1:" + std::to_string(server.tcp_port());
  }
  if (!config.unix_path.empty()) {
    endpoints += (endpoints.empty() ? " on unix:" : " and unix:");
    endpoints += config.unix_path;
  }
  obs::LogInfo("listening%s (1 loop + %zu workers)", endpoints.c_str(),
               config.workers);

  // Park until SIGINT/SIGTERM, then shut down gracefully. A signal that
  // arrived during startup is already buffered in the pipe.
  char byte;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  obs::LogInfo("shutting down");
  server.Stop();
  return 0;
#endif
}
