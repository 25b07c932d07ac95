#include "common/logging.h"

namespace pafeat {
namespace {

// Messages below this level are dropped.
constexpr LogLevel kMinLevel = LogLevel::kInfo;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

}  // namespace

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << "[" << LevelName(level) << " " << file << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (static_cast<int>(level_) >= static_cast<int>(kMinLevel)) {
    std::cerr << stream_.str() << "\n";
  }
}

FatalMessage::FatalMessage(const char* file, int line, const char* condition) {
  stream_ << "[FATAL " << file << ":" << line << "] Check failed: "
          << condition << " ";
}

FatalMessage::~FatalMessage() {
  std::cerr << stream_.str() << std::endl;
  std::abort();
}

}  // namespace internal
}  // namespace pafeat
