#pragma once
// In-memory spans of the benchmark's own calls, written out once at the end
// as Chrome-trace JSON (chrome://tracing, Perfetto).

#include <string>
#include <vector>

namespace servebench {

class SpanLog {
 public:
  /// Chrome-trace thread ids: one lane for engine steps, one for replayed
  /// layer calls, and one lane per request from kRequestLane on.
  static constexpr int kStepLane = 1;
  static constexpr int kReplayLane = 2;
  static constexpr int kRequestLane = 100;

  /// `args` is a JSON object literal attached to the event.
  void add(std::string name, int lane, double t0_s, double t1_s,
           std::string args = "{}");

  /// Throws when the file cannot be written.
  void write_chrome_trace(const std::string& path) const;

  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    int lane = 0;
    double t0_s = 0.0;
    double t1_s = 0.0;
    std::string args;
  };
  std::vector<Span> spans_;
};

}  // namespace servebench
