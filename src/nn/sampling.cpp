#include "nn/sampling.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
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
  std::vector<float> probs;
  std::vector<std::int32_t> order;
  std::vector<double> weights;
};

SamplerScratch& sampler_scratch() {
  thread_local SamplerScratch scratch;
  return scratch;
}

/// Shared stochastic-path filtering: softmax at temperature, then rank and
/// clip to the top-k/top-p survivor set. Fills `probs` with the full-vocab
/// softmax and `order` with token ids ranked by probability; returns how
/// many leading ranks survive the filters.
std::size_t filtered_ranking(std::span<const float> logits,
                             const SamplingParams& options,
                             std::vector<float>& probs,
                             std::vector<std::int32_t>& order) {
  probs.assign(logits.begin(), logits.end());
  for (float& z : probs) z /= options.temperature;
  kernels::softmax_row(probs.data(), static_cast<std::int64_t>(probs.size()));

  // Rank tokens by probability once; both filters work on the ranking.
  // With top-k active only the leading k ranks matter, so a partial sort
  // (O(n + k log k)) replaces the full vocab sort — at serving vocab sizes
  // the full sort would dominate the decode step itself.
  order.resize(probs.size());
  std::iota(order.begin(), order.end(), 0);
  const auto by_prob = [&](std::int32_t a, std::int32_t b) {
    return probs[static_cast<std::size_t>(a)] >
           probs[static_cast<std::size_t>(b)];
  };
  std::size_t keep = probs.size();
  if (options.top_k > 0) {
    keep = std::min<std::size_t>(keep,
                                 static_cast<std::size_t>(options.top_k));
  }
  if (keep < order.size()) {
    std::partial_sort(order.begin(),
                      order.begin() + static_cast<std::ptrdiff_t>(keep),
                      order.end(), by_prob);
  } else {
    std::sort(order.begin(), order.end(), by_prob);
  }
  if (options.top_p < 1.0f) {
    double cumulative = 0.0;
    std::size_t nucleus = 0;
    while (nucleus < keep && cumulative < options.top_p) {
      cumulative += probs[static_cast<std::size_t>(order[nucleus])];
      ++nucleus;
    }
    keep = std::max<std::size_t>(1, nucleus);
  }
  return keep;
}

}  // namespace

std::int32_t sample_token(std::span<const float> logits,
                          const SamplingParams& options, Rng& rng) {
  MGPT_CHECK(!logits.empty(), "sample_token requires logits");
  options.validate();
  if (options.temperature <= 0.0f) {
    return argmax_token(logits);
  }
  SamplerScratch& s = sampler_scratch();
  const std::size_t keep = filtered_ranking(logits, options, s.probs, s.order);
  s.weights.resize(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    s.weights[i] = s.probs[static_cast<std::size_t>(s.order[i])];
  }
  return s.order[rng.categorical(s.weights)];
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
  MGPT_CHECK(!logits.empty(), "sampling_probs requires logits");
  options.validate();
  MGPT_CHECK(options.temperature > 0.0f,
             "sampling_probs requires temperature > 0 (greedy decoding "
             "compares argmax tokens, not distributions)");
  SamplerScratch& s = sampler_scratch();
  const std::size_t keep = filtered_ranking(logits, options, s.probs, s.order);
  std::vector<float> filtered(s.probs.size(), 0.0f);
  double total = 0.0;
  for (std::size_t i = 0; i < keep; ++i) {
    total += s.probs[static_cast<std::size_t>(s.order[i])];
  }
  const auto inv = static_cast<float>(1.0 / total);
  for (std::size_t i = 0; i < keep; ++i) {
    const auto token = static_cast<std::size_t>(s.order[i]);
    filtered[token] = s.probs[token] * inv;
  }
  return filtered;
}

}  // namespace matgpt::nn
