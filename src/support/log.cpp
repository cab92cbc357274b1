#include "support/log.hpp"

namespace mv {
namespace {

const char* level_tag(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?????";
}

}  // namespace

Logger& Logger::instance() noexcept {
  static Logger logger;
  return logger;
}

void Logger::write(LogLevel level, std::string_view component,
                   std::string_view msg) {
  std::fprintf(stderr, "[%s] %.*s: %.*s\n", level_tag(level),
               static_cast<int>(component.size()), component.data(),
               static_cast<int>(msg.size()), msg.data());
}

void log_msg(LogLevel level, std::string_view component, std::string_view msg) {
  Logger::instance().write(level, component, msg);
}

}  // namespace mv
