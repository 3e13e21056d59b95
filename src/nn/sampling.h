#pragma once
// Token sampling strategies for generation: greedy, temperature, top-k, and
// nucleus (top-p) — the standard decoding controls a released LM ships.
//
// SamplingParams is THE sampling knob set for the whole stack: the nn
// generation helpers, serve::Request, and the matgpt_cli flags all speak this
// one struct, so greedy/temperature/top-k/top-p and the per-stream seed live
// in exactly one place instead of being duplicated per layer.

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace matgpt::nn {

struct SamplingParams {
  /// <= 0 selects greedy argmax decoding.
  float temperature = 1.0f;
  /// Keep only the k most likely tokens (0 = disabled).
  int top_k = 0;
  /// Keep the smallest set of tokens with cumulative probability >= top_p
  /// (1.0 = disabled).
  float top_p = 1.0f;
  /// Seed of the per-request sampling stream. The serving engine draws every
  /// stochastic token for a request from Rng(seed), which is what makes a
  /// request's output independent of batch composition. Ignored by the
  /// stateless helpers below, which take an explicit Rng.
  std::uint64_t seed = 0;

  bool greedy() const { return temperature <= 0.0f; }
  /// The stream this parameter set seeds (Rng(seed)).
  Rng make_rng() const { return Rng(seed); }
  /// Greedy decoding (temperature 0) with an optional stream seed.
  static SamplingParams greedy_params(std::uint64_t seed = 0) {
    SamplingParams p;
    p.temperature = 0.0f;
    p.seed = seed;
    return p;
  }

  void validate() const;
};

/// Sample a token id from a raw logits row under the given params. Draws
/// from the caller's `rng` stream (params.seed is NOT consulted here — the
/// caller owns the stream's lifetime across a generation).
std::int32_t sample_token(std::span<const float> logits,
                          const SamplingParams& params, Rng& rng);

/// Sample under a per-token legality mask (the grammar-constrained decoding
/// hook). The logits row is copied into `scratch` and every token with
/// allowed[v] == 0 gets -inf written over it before delegating to
/// sample_token — -inf softmaxes to probability 0 and never wins argmax, so
/// a masked token is unreachable on both the greedy and stochastic paths.
/// An ALL-ONES mask writes nothing: the sampler sees a bit-identical copy
/// of the row and returns exactly what unmasked sample_token would, which
/// is the byte-identity guarantee constrained requests rely on when their
/// grammar allows everything. At least one token must be allowed — an empty
/// mask is the caller's dead-state failure path, not a sampling question.
/// `scratch` is caller-owned so the decode loop reuses one allocation.
std::int32_t sample_token_masked(std::span<const float> logits,
                                 std::span<const std::uint8_t> allowed,
                                 const SamplingParams& params, Rng& rng,
                                 std::vector<float>& scratch);

/// Greedy argmax with a deterministic tie-break: among equal maxima the
/// LOWEST token id wins (std::max_element keeps the first). sample_token's
/// greedy path uses exactly this, which is what makes speculative-decoding
/// acceptance checks exact — two bit-identical logits rows always argmax to
/// the same token.
std::int32_t argmax_token(std::span<const float> logits);

/// A token the stochastic sampler may draw, with its temperature-softmax
/// probability over the whole vocabulary (before the filters renormalize).
struct TokenProb {
  std::int32_t id;
  float prob;
};

/// The stochastic sampler's candidates, which sample_token draws from and
/// sampling_probs renormalizes. Requires temperature > 0. `prob` is
/// softmax_row's: exp(x/T - max) times one float reciprocal of the row's
/// double sum. Ids of probability 0 (-inf logits) are never candidates.
/// With a filter (top_k in [1, vocab) or top_p < 1) the candidates are the
/// top-k/top-p survivors ranked by (prob descending, id ascending), a total
/// order; without one they are every id, in id order, and nothing is
/// ranked. A NaN or +inf logit, or a row with no finite logit, throws
/// Error. Fills `out`; allocates nothing once a thread has seen the
/// vocabulary size and `out` has grown to it.
void sampling_candidates(std::span<const float> logits,
                         const SamplingParams& params,
                         std::vector<TokenProb>& out);

/// The filtered next-token distribution the stochastic sampler draws from:
/// temperature softmax with top-k/top-p zeroing, renormalized to sum 1.
/// Requires temperature > 0. Speculative decoding's residual sampling needs
/// the full vector (accept with prob min(1, q/p), resample from
/// max(q - p, 0)), not just one draw.
std::vector<float> sampling_probs(std::span<const float> logits,
                                  const SamplingParams& params);

}  // namespace matgpt::nn
