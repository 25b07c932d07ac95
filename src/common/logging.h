#ifndef PAFEAT_COMMON_LOGGING_H_
#define PAFEAT_COMMON_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

// Lightweight logging and assertion macros.
//
// The project follows the Google style guidance of not using exceptions:
// programmer errors (violated preconditions, impossible states) terminate the
// process through PF_CHECK, while recoverable conditions are expressed with
// status-bool returns or std::optional in the APIs themselves.

namespace pafeat {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

namespace internal {

// Accumulates one log line and flushes it (with level prefix) on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

// Like LogMessage but aborts the process when destroyed.
class FatalMessage {
 public:
  FatalMessage(const char* file, int line, const char* condition);
  [[noreturn]] ~FatalMessage();

  FatalMessage(const FatalMessage&) = delete;
  FatalMessage& operator=(const FatalMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace pafeat

#define PF_LOG(level)                                                     \
  ::pafeat::internal::LogMessage(::pafeat::LogLevel::k##level, __FILE__, \
                                 __LINE__)                                \
      .stream()

// Terminates the process when `condition` is false. Usable as a stream:
//   PF_CHECK(n > 0) << "need at least one row, got " << n;
#define PF_CHECK(condition)                                              \
  if (condition) {                                                       \
  } else                                                                 \
    ::pafeat::internal::FatalMessage(__FILE__, __LINE__, #condition)     \
        .stream()

#define PF_CHECK_GE(a, b) PF_CHECK((a) >= (b)) << " (" << (a) << " vs " << (b) << ") "
#define PF_CHECK_GT(a, b) PF_CHECK((a) > (b)) << " (" << (a) << " vs " << (b) << ") "
#define PF_CHECK_LE(a, b) PF_CHECK((a) <= (b)) << " (" << (a) << " vs " << (b) << ") "
#define PF_CHECK_LT(a, b) PF_CHECK((a) < (b)) << " (" << (a) << " vs " << (b) << ") "
#define PF_CHECK_EQ(a, b) PF_CHECK((a) == (b)) << " (" << (a) << " vs " << (b) << ") "
#define PF_CHECK_NE(a, b) PF_CHECK((a) != (b)) << " (" << (a) << " vs " << (b) << ") "

// Checked-build assertions (configure with -DPAFEAT_CHECKED=ON): invariants
// too hot to verify unconditionally — Matrix bounds, GEMM output aliasing,
// arena canaries. In normal builds the condition is type-checked but never
// evaluated (short-circuited behind a constant), so PF_DCHECK lines cost
// nothing; in checked builds they carry full PF_CHECK semantics.
#ifdef PAFEAT_CHECKED
#define PF_DCHECK(condition) PF_CHECK(condition)
#define PF_DCHECK_GE(a, b) PF_CHECK_GE(a, b)
#define PF_DCHECK_GT(a, b) PF_CHECK_GT(a, b)
#define PF_DCHECK_LE(a, b) PF_CHECK_LE(a, b)
#define PF_DCHECK_LT(a, b) PF_CHECK_LT(a, b)
#define PF_DCHECK_EQ(a, b) PF_CHECK_EQ(a, b)
#define PF_DCHECK_NE(a, b) PF_CHECK_NE(a, b)
#else
#define PF_DCHECK(condition) PF_CHECK(true || (condition))
#define PF_DCHECK_GE(a, b) PF_DCHECK((a) >= (b))
#define PF_DCHECK_GT(a, b) PF_DCHECK((a) > (b))
#define PF_DCHECK_LE(a, b) PF_DCHECK((a) <= (b))
#define PF_DCHECK_LT(a, b) PF_DCHECK((a) < (b))
#define PF_DCHECK_EQ(a, b) PF_DCHECK((a) == (b))
#define PF_DCHECK_NE(a, b) PF_DCHECK((a) != (b))
#endif

#endif  // PAFEAT_COMMON_LOGGING_H_
