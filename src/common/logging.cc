#include "common/logging.h"

#include <atomic>
#include <cstdio>
#include <ctime>
#include <mutex>

namespace freshen {
namespace {

std::atomic<int> g_min_level{static_cast<int>(LogLevel::kInfo)};

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
  }
  return "?";
}

// Default destination: stderr, one fwrite per line under a mutex so lines
// from concurrent threads never interleave.
class StderrLogSink : public LogSink {
 public:
  void Write(LogLevel level, std::string_view line) override {
    (void)level;
    std::lock_guard<std::mutex> lock(mu_);
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
  }

 private:
  std::mutex mu_;
};

StderrLogSink& DefaultSink() {
  static StderrLogSink* const kSink = new StderrLogSink();
  return *kSink;
}

// nullptr means "use DefaultSink()"; swapped atomically so SetLogSink is
// safe against concurrent logging.
std::atomic<LogSink*> g_sink{nullptr};

// "2026-08-05T12:34:56.123Z" (UTC, millisecond resolution).
std::string Iso8601Now() {
  std::timespec ts{};
  std::timespec_get(&ts, TIME_UTC);
  std::tm utc{};
  gmtime_r(&ts.tv_sec, &utc);
  char buffer[40];
  const size_t length =
      std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%S", &utc);
  const unsigned millis = static_cast<unsigned>(ts.tv_nsec / 1000000) % 1000;
  std::snprintf(buffer + length, sizeof(buffer) - length, ".%03uZ", millis);
  return buffer;
}

}  // namespace

void SetLogLevel(LogLevel level) {
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_min_level.load(std::memory_order_relaxed));
}

LogSink* SetLogSink(LogSink* sink) {
  return g_sink.exchange(sink, std::memory_order_acq_rel);
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << "[" << Iso8601Now() << " " << LevelTag(level) << " " << file
          << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (static_cast<int>(level_) <
      g_min_level.load(std::memory_order_relaxed)) {
    return;
  }
  stream_ << "\n";
  const std::string line = stream_.str();
  LogSink* sink = g_sink.load(std::memory_order_acquire);
  if (sink == nullptr) sink = &DefaultSink();
  sink->Write(level_, line);
}

}  // namespace internal
}  // namespace freshen
