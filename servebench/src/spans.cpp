#include "spans.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace servebench {

void SpanLog::add(std::string name, int lane, double t0_s, double t1_s,
                  std::string args) {
  spans_.push_back({std::move(name), lane, t0_s, t1_s, std::move(args)});
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  out << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": "
      << kStepLane << ", \"args\": {\"name\": \"engine steps\"}},\n";
  out << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": "
      << kReplayLane << ", \"args\": {\"name\": \"layer replays\"}}";
  char buf[160];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof buf,
                  "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f",
                  s.lane, s.t0_s * 1e6, (s.t1_s - s.t0_s) * 1e6);
    out << ",\n{\"ph\": \"X\", \"name\": \"" << s.name << "\", " << buf
        << ", \"args\": " << s.args << "}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace servebench
