#pragma once
// The benchmark's own statistics and input randomness. Nothing here links
// against the program under test, so a change to the program can change
// what is measured but never how it is measured or which inputs it gets.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace servebench {

/// One reported number, by name, with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// splitmix64 stream: the only source of benchmark inputs.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1) with 53 random bits.
  double uniform();
  /// Uniform integer in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// A percentile is reported only when at least this many samples lie
/// strictly beyond its rank; otherwise the sample cannot support it.
inline constexpr std::size_t kMinTail = 10;

/// Samples a nearest-rank q-percentile (q in (0, 1)) needs: p50 needs 20,
/// p95 needs 200, p99 needs 1000.
std::size_t samples_needed(double q);

/// Nearest-rank q-percentile of `samples`, or nullopt when fewer than
/// kMinTail samples lie beyond it.
std::optional<double> percentile(std::vector<double> samples, double q);

double mean(std::span<const double> samples);

/// Plain median for a handful of repetitions of one timed call (replays),
/// where no tail percentile is reported. Requires samples.
double median(std::vector<double> samples);

/// Gaps between consecutive token arrivals of one request, in the unit of
/// `token_times`. The first token ends the TTFT interval, so the gap from
/// send time to the first token is never an inter-token gap.
std::vector<double> inter_token_gaps(std::span<const double> token_times);

/// `n` integers spread evenly over [lo, hi], in a seeded random order.
/// Every seed gets the same multiset, so a run's total work does not
/// depend on the seed; which request gets which length does.
std::vector<std::int64_t> spread(std::size_t n, std::int64_t lo,
                                 std::int64_t hi, SplitMix64& rng);

/// FNV-1a over a stream of 32-bit words.
class Digest {
 public:
  void add(std::uint32_t word);
  std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace servebench
