#include "util/log.hpp"

#include <atomic>
#include <cstdlib>
#include <iostream>

#include "util/thread_annotations.hpp"

namespace rts {

namespace {

LogLevel parse_level(const char* text) {
  if (text == nullptr) return LogLevel::kWarn;
  const std::string s(text);
  if (s == "debug") return LogLevel::kDebug;
  if (s == "info") return LogLevel::kInfo;
  if (s == "warn") return LogLevel::kWarn;
  if (s == "error") return LogLevel::kError;
  if (s == "off") return LogLevel::kOff;
  return LogLevel::kWarn;
}

std::atomic<int>& threshold_storage() {
  static std::atomic<int> level{static_cast<int>(parse_level(std::getenv("RTS_LOG")))};
  return level;
}

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

}  // namespace

LogLevel log_threshold() noexcept {
  return static_cast<LogLevel>(threshold_storage().load(std::memory_order_relaxed));
}

void set_log_threshold(LogLevel level) noexcept {
  threshold_storage().store(static_cast<int>(level), std::memory_order_relaxed);
}

bool log_enabled(LogLevel level) noexcept { return level >= log_threshold(); }

namespace detail {
void log_emit(LogLevel level, const std::string& message) {
  // Single mutex keeps concurrent OpenMP progress lines unscrambled; logging
  // is never on the hot path.
  static Mutex mu;
  const LockGuard lock(mu);
  std::clog << "[rts:" << level_name(level) << "] " << message << '\n';
}
}  // namespace detail

}  // namespace rts
