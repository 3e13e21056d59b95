#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

namespace servebench {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix64::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t SplitMix64::below(std::uint64_t n) {
  // Rejection sampling: no modulo bias.
  const std::uint64_t limit = ~0ULL - (~0ULL % n);
  std::uint64_t x = next();
  while (x >= limit) x = next();
  return x % n;
}

namespace {

// Zero-based nearest rank of the q-percentile among n samples.
std::size_t rank(std::size_t n, double q) {
  const auto r =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return r == 0 ? 0 : r - 1;
}

// Fisher-Yates.
template <class T>
void shuffle(std::vector<T>& v, SplitMix64& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

}  // namespace

std::size_t samples_needed(double q) {
  std::size_t n = 1;
  while (n - rank(n, q) - 1 < kMinTail) ++n;
  return n;
}

std::optional<double> percentile(std::vector<double> samples, double q) {
  if (samples.empty() || !(q > 0.0 && q < 1.0)) return std::nullopt;
  const std::size_t r = rank(samples.size(), q);
  if (samples.size() - r - 1 < kMinTail) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(r),
                   samples.end());
  return samples[r];
}

double mean(std::span<const double> samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  const auto mid = samples.begin() +
                   static_cast<std::ptrdiff_t>(samples.size() / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

std::vector<double> inter_token_gaps(std::span<const double> token_times) {
  std::vector<double> gaps;
  for (std::size_t i = 1; i < token_times.size(); ++i) {
    gaps.push_back(token_times[i] - token_times[i - 1]);
  }
  return gaps;
}

std::vector<std::int64_t> spread(std::size_t n, std::int64_t lo,
                                 std::int64_t hi, SplitMix64& rng) {
  std::vector<std::int64_t> v(n);
  const double width = static_cast<double>(hi - lo + 1);
  for (std::size_t i = 0; i < n; ++i) {
    // Midpoints of n equal strata of [lo, hi + 1).
    v[i] = lo + static_cast<std::int64_t>((static_cast<double>(i) + 0.5) *
                                          width / static_cast<double>(n));
  }
  shuffle(v, rng);
  return v;
}

void Digest::add(std::uint32_t word) {
  for (int b = 0; b < 4; ++b) {
    hash_ ^= (word >> (8 * b)) & 0xffu;
    hash_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

}  // namespace servebench
