#include "nn/sampling.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/error.h"
#include "tensor/kernels.h"

namespace matgpt::nn {

void SamplingParams::validate() const {
  MGPT_CHECK(top_k >= 0, "top_k must be non-negative");
  MGPT_CHECK(top_p > 0.0f && top_p <= 1.0f, "top_p must be in (0, 1]");
}

std::int32_t argmax_token(std::span<const float> logits) {
  MGPT_CHECK(!logits.empty(), "argmax_token requires logits");
  // std::max_element's answer in two streaming passes: the max as maxps
  // takes it (x > m ? x : m, so a NaN never wins), in independent lanes,
  // then the first index equal to it. max_element itself reloads *largest
  // on every element. A NaN at index 0 is max_element's answer, since
  // nothing compares greater than it; a NaN anywhere else never is.
  const float* x = logits.data();
  const std::size_t n = logits.size();
  if (std::isnan(x[0])) return 0;
  constexpr std::size_t kLanes = 8;
  float lane[kLanes];
  std::fill(lane, lane + kLanes, x[0]);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      lane[l] = x[i + l] > lane[l] ? x[i + l] : lane[l];
    }
  }
  for (; i < n; ++i) lane[0] = x[i] > lane[0] ? x[i] : lane[0];
  float mx = lane[0];
  for (std::size_t l = 1; l < kLanes; ++l) mx = lane[l] > mx ? lane[l] : mx;
  // -0.0 == +0.0, so the first element equal to the max is max_element's
  // first maximal element whichever signed zero the lanes kept.
  i = 0;
  while (x[i] != mx) ++i;
  return static_cast<std::int32_t>(i);
}

namespace {

/// One thread's sampler buffers, reused across tokens: once a thread has
/// seen the vocabulary size, a draw allocates nothing. Per thread because
/// the serving engine draws a step's rows on several pool threads at once.
struct SamplerScratch {
  std::vector<float> exps;        // exp(x/T - max), one per id
  std::vector<float> block_max;   // their maxima per kExpBlockIds ids
  std::vector<float> bound;       // block_max, partly reordered
  std::vector<TokenProb> survivors;
  std::vector<TokenProb> candidates;
  std::vector<double> weights;
};

SamplerScratch& sampler_scratch() {
  thread_local SamplerScratch scratch;
  return scratch;
}

/// The rank order: probability descending, then id ascending. A total
/// order, so the ranking never depends on how a sort treats ties.
bool ranks_before(const TokenProb& a, const TokenProb& b) {
  return a.prob > b.prob || (a.prob == b.prob && a.id < b.id);
}

}  // namespace

void sampling_candidates(std::span<const float> logits,
                         const SamplingParams& options,
                         std::vector<TokenProb>& out) {
  MGPT_CHECK(!logits.empty(), "sampling needs logits");
  options.validate();
  MGPT_CHECK(options.temperature > 0.0f,
             "stochastic sampling requires temperature > 0");
  SamplerScratch& s = sampler_scratch();
  const auto n = static_cast<std::int64_t>(logits.size());
  const std::int64_t blocks =
      (n + kernels::kExpBlockIds - 1) / kernels::kExpBlockIds;
  s.exps.resize(logits.size());
  s.block_max.resize(static_cast<std::size_t>(blocks));
  const double sum =
      kernels::scaled_exp_row(logits.data(), n, options.temperature,
                              s.exps.data(), s.block_max.data());
  MGPT_CHECK(std::isfinite(sum),
             "sampling needs finite logits: a NaN or +inf logit, or a row "
             "with no finite logit, has no distribution");
  const auto inv = static_cast<float>(1.0 / sum);
  const std::int64_t k =
      options.top_k > 0 ? std::min<std::int64_t>(n, options.top_k) : n;
  constexpr float kNonzero = std::numeric_limits<float>::denorm_min();
  // `out` = every id of probability at least `lowest`, in id order. Only
  // blocks that reach it are scanned. Branch-free: every scanned id is
  // written, and the count moves past it only if it survives.
  auto collect = [&](float lowest) {
    s.survivors.resize(logits.size());
    std::size_t count = 0;
    for (std::int64_t b = 0; b < blocks; ++b) {
      if (s.block_max[static_cast<std::size_t>(b)] * inv < lowest) continue;
      const std::int64_t end = std::min(n, (b + 1) * kernels::kExpBlockIds);
      for (std::int64_t i = b * kernels::kExpBlockIds; i < end; ++i) {
        const float p = s.exps[static_cast<std::size_t>(i)] * inv;
        s.survivors[count] = {static_cast<std::int32_t>(i), p};
        count += p >= lowest ? 1 : 0;
      }
    }
    out.assign(s.survivors.begin(),
               s.survivors.begin() + static_cast<std::ptrdiff_t>(count));
  };
  // Cut ranked `out` to the shortest prefix whose probabilities sum to
  // top_p; false (and `out` unchanged) when all of `out` sums to less.
  auto nucleus = [&] {
    double cumulative = 0.0;
    std::size_t size = 0;
    while (size < out.size() && cumulative < options.top_p) {
      cumulative += out[size].prob;
      ++size;
    }
    if (cumulative < options.top_p) return false;
    out.resize(std::max<std::size_t>(1, size));
    return true;
  };

  // No filter: the candidates are every id of nonzero probability, in id
  // order, which Rng::categorical walks as well as any; nothing is ranked.
  if (k == n && options.top_p >= 1.0f) {
    collect(kNonzero);
    return;
  }
  if (k < n) {
    // Every id ranked in the top k has a probability at or above the k-th
    // largest block maximum (with k blocks or more): k distinct blocks each
    // hold an id at or above it. Multiplying by inv keeps the order, so the
    // bound carries over to probabilities; only the ids at or above it are
    // ranked.
    float lowest = kNonzero;
    if (k <= blocks) {
      s.bound.assign(s.block_max.begin(), s.block_max.end());
      std::nth_element(s.bound.begin(), s.bound.begin() + (k - 1),
                       s.bound.end(), std::greater<float>());
      lowest = std::max(lowest, s.bound[static_cast<std::size_t>(k - 1)] * inv);
    }
    collect(lowest);
    if (static_cast<std::size_t>(k) < out.size()) {
      std::partial_sort(out.begin(), out.begin() + k, out.end(), ranks_before);
      out.resize(static_cast<std::size_t>(k));
    } else {
      std::sort(out.begin(), out.end(), ranks_before);
    }
    if (options.top_p < 1.0f) nucleus();
    return;
  }
  // top_p alone: the nucleus is a prefix of the whole ranking. Every id
  // below a bound ranks after every id at or above it, so when the ranked
  // survivors sum to top_p the nucleus lies among them and is the one the
  // full ranking gives. The bound is a power of two: the exps' mass per
  // binary exponent, summed from the top, says from which exponent down
  // the ids hold top_p of the row. (Block maxima bound a deep nucleus
  // poorly: the 235-id nucleus of a sigma-3 8192-wide row reaches below the
  // 64th-largest of its 128 block maxima.) A walk that falls short, by
  // rounding, retries one exponent lower; past the last, every id is
  // ranked.
  std::array<double, 256> mass{};
  for (std::int64_t i = 0; i < n; ++i) {
    const float e = s.exps[static_cast<std::size_t>(i)];
    mass[std::bit_cast<std::uint32_t>(e) >> 23] += e;
  }
  double cumulative = 0.0;
  for (std::uint32_t exponent = 127; exponent > 0; --exponent) {
    cumulative += mass[exponent];
    if (cumulative < options.top_p * sum) continue;
    collect(std::max(kNonzero, std::bit_cast<float>(exponent << 23) * inv));
    std::sort(out.begin(), out.end(), ranks_before);
    if (nucleus()) return;
  }
  collect(kNonzero);
  std::sort(out.begin(), out.end(), ranks_before);
  nucleus();  // false only when rounding leaves the row short of top_p
}

std::int32_t sample_token(std::span<const float> logits,
                          const SamplingParams& options, Rng& rng) {
  MGPT_CHECK(!logits.empty(), "sample_token requires logits");
  options.validate();
  if (options.temperature <= 0.0f) {
    return argmax_token(logits);
  }
  SamplerScratch& s = sampler_scratch();
  sampling_candidates(logits, options, s.candidates);
  s.weights.resize(s.candidates.size());
  for (std::size_t i = 0; i < s.candidates.size(); ++i) {
    s.weights[i] = s.candidates[i].prob;
  }
  return s.candidates[rng.categorical(s.weights)].id;
}

std::int32_t sample_token_masked(std::span<const float> logits,
                                 std::span<const std::uint8_t> allowed,
                                 const SamplingParams& options, Rng& rng,
                                 std::vector<float>& scratch) {
  MGPT_CHECK(!logits.empty(), "sample_token_masked requires logits");
  MGPT_CHECK(allowed.size() == logits.size(),
             "sample_token_masked: mask size must equal vocab size");
  scratch.assign(logits.begin(), logits.end());
  bool any = false;
  for (std::size_t v = 0; v < scratch.size(); ++v) {
    if (allowed[v]) {
      any = true;
    } else {
      scratch[v] = -std::numeric_limits<float>::infinity();
    }
  }
  MGPT_CHECK(any,
             "sample_token_masked: empty mask (dead grammar state) — the "
             "caller must fail the request instead of sampling");
  return sample_token(scratch, options, rng);
}

std::vector<float> sampling_probs(std::span<const float> logits,
                                  const SamplingParams& options) {
  SamplerScratch& s = sampler_scratch();
  sampling_candidates(logits, options, s.candidates);
  std::vector<float> filtered(logits.size(), 0.0f);
  double total = 0.0;
  for (const TokenProb& c : s.candidates) total += c.prob;
  const auto inv = static_cast<float>(1.0 / total);
  for (const TokenProb& c : s.candidates) {
    filtered[static_cast<std::size_t>(c.id)] = c.prob * inv;
  }
  return filtered;
}

}  // namespace matgpt::nn
