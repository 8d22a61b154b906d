#include "obs/log.h"

#include <atomic>
#include <cstdarg>
#include <chrono>
#include <ctime>

namespace vadalog {
namespace obs {

namespace {

std::atomic<uint8_t> g_level{static_cast<uint8_t>(LogLevel::kInfo)};
std::atomic<std::FILE*> g_sink{nullptr};  // nullptr = stderr
base::Mutex g_write_mutex;

char LevelLetter(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return 'D';
    case LogLevel::kInfo: return 'I';
    case LogLevel::kWarn: return 'W';
    case LogLevel::kError: return 'E';
    case LogLevel::kOff: return '?';
  }
  return '?';
}

void LogMessageV(LogLevel level, const char* format, va_list args) {
  if (!LogEnabled(level)) return;
  char message[1024];
  std::vsnprintf(message, sizeof message, format, args);
  std::string stamp = FormatTimestampUtc();
  std::FILE* sink = g_sink.load(std::memory_order_relaxed);
  if (sink == nullptr) sink = stderr;
  // One fprintf per line under a mutex so concurrent workers never
  // interleave fragments.
  base::MutexLock lock(&g_write_mutex);
  std::fprintf(sink, "%s %c vadalogd: %s\n", stamp.c_str(),
               LevelLetter(level), message);
  std::fflush(sink);
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

bool LogLevelFromName(std::string_view name, LogLevel* level) {
  if (name == "debug") {
    *level = LogLevel::kDebug;
  } else if (name == "info") {
    *level = LogLevel::kInfo;
  } else if (name == "warn") {
    *level = LogLevel::kWarn;
  } else if (name == "error") {
    *level = LogLevel::kError;
  } else if (name == "off") {
    *level = LogLevel::kOff;
  } else {
    return false;
  }
  return true;
}

void SetLogLevel(LogLevel level) {
  g_level.store(static_cast<uint8_t>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

bool LogEnabled(LogLevel level) {
  return static_cast<uint8_t>(level) >=
         g_level.load(std::memory_order_relaxed);
}

void SetLogSink(std::FILE* sink) {
  g_sink.store(sink, std::memory_order_relaxed);
}

void LogMessage(LogLevel level, const char* format, ...) {
  va_list args;
  va_start(args, format);
  LogMessageV(level, format, args);
  va_end(args);
}

#define VADALOG_DEFINE_LEVEL_FN(Name, level)        \
  void Name(const char* format, ...) {              \
    va_list args;                                   \
    va_start(args, format);                         \
    LogMessageV(level, format, args);               \
    va_end(args);                                   \
  }

VADALOG_DEFINE_LEVEL_FN(LogDebug, LogLevel::kDebug)
VADALOG_DEFINE_LEVEL_FN(LogInfo, LogLevel::kInfo)
VADALOG_DEFINE_LEVEL_FN(LogWarn, LogLevel::kWarn)
VADALOG_DEFINE_LEVEL_FN(LogError, LogLevel::kError)

#undef VADALOG_DEFINE_LEVEL_FN

std::string FormatTimestampUtc() {
  using std::chrono::system_clock;
  system_clock::time_point now = system_clock::now();
  std::time_t seconds = system_clock::to_time_t(now);
  auto millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                    now.time_since_epoch())
                    .count() %
                1000;
  std::tm utc{};
  gmtime_r(&seconds, &utc);
  // Worst case: seven int fields at 11 characters each ("-2147483648"),
  // seven literal characters and the terminator. Real dates need 25.
  char buffer[7 * 11 + 7 + 1];
  std::snprintf(buffer, sizeof buffer,
                "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ", utc.tm_year + 1900,
                utc.tm_mon + 1, utc.tm_mday, utc.tm_hour, utc.tm_min,
                utc.tm_sec, static_cast<int>(millis));
  return buffer;
}

SlowQueryLog::~SlowQueryLog() {
  if (owns_sink_ && sink_ != nullptr) std::fclose(sink_);
}

bool SlowQueryLog::Open(const std::string& path, std::string* error) {
  base::MutexLock lock(&mutex_);
  if (owns_sink_ && sink_ != nullptr) std::fclose(sink_);
  sink_ = nullptr;
  owns_sink_ = false;
  if (path.empty() || path == "stderr") {
    sink_ = stderr;
    return true;
  }
  std::FILE* file = std::fopen(path.c_str(), "ae");  // append, close-on-exec
  if (file == nullptr) {
    if (error != nullptr) {
      *error = "cannot open slow-query log \"" + path + "\" for append";
    }
    return false;
  }
  sink_ = file;
  owns_sink_ = true;
  return true;
}

uint64_t SlowQueryLog::lines_written() const {
  base::MutexLock lock(&mutex_);
  return lines_;
}

void SlowQueryLog::Write(std::string_view json_line) {
  base::MutexLock lock(&mutex_);
  if (sink_ == nullptr) return;
  std::fwrite(json_line.data(), 1, json_line.size(), sink_);
  std::fputc('\n', sink_);
  std::fflush(sink_);
  ++lines_;
}

}  // namespace obs
}  // namespace vadalog
