#ifndef PAFEAT_COMMON_TIMER_H_
#define PAFEAT_COMMON_TIMER_H_

#include <chrono>

namespace pafeat {

// Monotonic wall-clock timer used by the timing experiments (Table II, Fig 7).
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  // Seconds elapsed since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace pafeat

#endif  // PAFEAT_COMMON_TIMER_H_
