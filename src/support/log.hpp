#pragma once

// Minimal leveled logger to stderr. The simulator is deterministic and
// single-threaded (fiber-multiplexed), so no locking is needed.

#include <cstdio>
#include <string>
#include <string_view>

namespace mv {

enum class LogLevel : int { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

class Logger {
 public:
  static Logger& instance() noexcept;

  void set_level(LogLevel level) noexcept { level_ = level; }
  [[nodiscard]] bool enabled(LogLevel level) const noexcept {
    return level >= level_;
  }

  void write(LogLevel level, std::string_view component, std::string_view msg);

 private:
  Logger() = default;
  LogLevel level_ = LogLevel::kWarn;
};

void log_msg(LogLevel level, std::string_view component, std::string_view msg);

}  // namespace mv

#define MV_LOG(level, component, msg)                       \
  do {                                                      \
    if (::mv::Logger::instance().enabled(level))            \
      ::mv::log_msg(level, component, msg);                 \
  } while (0)

#define MV_TRACE(component, msg) MV_LOG(::mv::LogLevel::kTrace, component, msg)
#define MV_DEBUG(component, msg) MV_LOG(::mv::LogLevel::kDebug, component, msg)
#define MV_INFO(component, msg) MV_LOG(::mv::LogLevel::kInfo, component, msg)
#define MV_WARN(component, msg) MV_LOG(::mv::LogLevel::kWarn, component, msg)
#define MV_ERROR(component, msg) MV_LOG(::mv::LogLevel::kError, component, msg)
