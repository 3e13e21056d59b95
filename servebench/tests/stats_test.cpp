// Self-test of the benchmark's own statistics and input generators:
//   python3 servebench/run.py --selftest
// Exits non-zero and names each failed check.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;  // n, n-1, ..., 1 (unsorted on purpose)
}

void percentile_rule() {
  using servebench::percentile;
  // p95 needs 200 samples (10 beyond rank 190), p99 needs 1000, p50 20.
  expect(servebench::samples_needed(0.95) == 200, "p95 needs 200 samples");
  expect(servebench::samples_needed(0.99) == 1000, "p99 needs 1000 samples");
  expect(servebench::samples_needed(0.50) == 20, "p50 needs 20 samples");
  expect(!percentile(ramp(199), 0.95), "p95 refused with 199 samples");
  expect(percentile(ramp(200), 0.95) == 190.0, "p95 of 1..200 is 190");
  expect(!percentile(ramp(999), 0.99), "p99 refused with 999 samples");
  expect(percentile(ramp(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
  expect(!percentile(ramp(19), 0.50), "p50 refused with 19 samples");
  expect(percentile(ramp(20), 0.50) == 10.0, "p50 of 1..20 is 10");
  expect(!percentile({}, 0.5), "no percentile of nothing");
}

void itl_excludes_ttft() {
  // Sent at 0, tokens at 0.100 (TTFT), 0.102, 0.105, 0.105 (one read).
  const std::vector<double> tokens = {0.100, 0.102, 0.105, 0.105};
  const auto gaps = servebench::inter_token_gaps(tokens);
  expect(gaps.size() == 3, "n tokens give n-1 gaps");
  expect(gaps[0] > 0.0019 && gaps[0] < 0.0021,
         "first gap is token 1 - token 0");
  expect(gaps[1] > 0.0029 && gaps[1] < 0.0031, "second gap");
  expect(gaps[2] == 0.0, "tokens read together have a zero gap");
  expect(servebench::inter_token_gaps(std::vector<double>{0.1}).empty(),
         "a one-token reply has no inter-token gap");
}

void spread_is_a_seeded_permutation() {
  servebench::SplitMix64 r1(5), r2(6);
  auto a = servebench::spread(100, 16, 64, r1);
  auto b = servebench::spread(100, 16, 64, r2);
  expect(a != b, "seeds reorder the values");
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  expect(a == b, "every seed gets the same multiset");
  expect(a.front() == 16 && a.back() == 64, "values span [lo, hi]");
}

}  // namespace

int main() {
  percentile_rule();
  itl_excludes_ttft();
  spread_is_a_seeded_permutation();
  if (failures == 0) std::printf("servebench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
