#pragma once
// One steady clock for every timestamp the benchmark takes, as seconds
// since the process's first call.

#include <chrono>
#include <thread>

namespace servebench {

inline std::chrono::steady_clock::time_point clock_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       clock_epoch())
      .count();
}

inline void sleep_until_s(double t_s) {
  std::this_thread::sleep_until(
      clock_epoch() + std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::duration<double>(t_s)));
}

}  // namespace servebench
