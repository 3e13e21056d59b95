#pragma once
// Draft proposers for speculative decoding.
//
// A proposer continues an accepted token sequence with k cheap guesses; the
// target model then verifies all of them in one multi-token forward and
// keeps the longest matching prefix. Three implementations:
//
//   IndependentDraft  a separate (small) GptModel with its own KV cache —
//                     the classic two-model setup.
//   LayerSkipDraft    self-speculation: runs only the first n transformer
//                     layers of the TARGET model (reusing its weights and
//                     lm_head) over a shallow KV cache — no second model to
//                     train or store.
//   ScriptedDraft     replays fixed token scripts; an oracle draft for
//                     benches (acceptance exactly 1.0 at zero draft cost,
//                     isolating the verify-batching win) and an adversarial
//                     one for worst-case overhead tests.
//
// Proposers are stateless across requests: all per-request state lives in
// the KvCache the caller passes in (the engine leases it from a dedicated
// draft pool sized by cache_config()). propose() first catches the
// cache up to the accepted sequence — after a rejection the decoder
// truncates the draft cache, after a fully-accepted round it simply lags —
// then decodes k draft tokens autoregressively.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "nn/gpt.h"
#include "nn/sampling.h"

namespace matgpt::serve::spec {

/// k proposed continuation tokens plus, for stochastic requests, the draft
/// distribution each was drawn from (row i sums to 1; empty under greedy).
/// Residual acceptance needs the full distribution, not just the draw.
struct DraftProposal {
  std::vector<std::int32_t> tokens;
  std::vector<std::vector<float>> probs;
};

class DraftProposer {
 public:
  virtual ~DraftProposer() = default;

  /// Geometry for this proposer's KV caches (layer count, kv heads, head
  /// dim, max_seq) — the engine sizes its draft pool from this.
  virtual const nn::GptConfig& cache_config() const = 0;

  virtual const char* name() const = 0;

  /// Draft logits [1, V] for the last of T new tokens appended to `cache`.
  /// V must equal the target's vocab.
  virtual Var forward(Tape& tape, std::span<const std::int32_t> tokens,
                      nn::KvCache& cache) const = 0;

  /// Propose k tokens continuing `tokens` (the accepted sequence; the cache
  /// holds a prefix of it). Greedy requests take the draft argmax; others
  /// sample from the draft's filtered distribution via `rng` and report it
  /// in DraftProposal::probs. Leaves the cache covering everything fed:
  /// tokens plus the first k-1 proposals.
  virtual DraftProposal propose(std::span<const std::int32_t> tokens,
                                std::int64_t k, nn::KvCache& cache,
                                const nn::SamplingParams& sampling,
                                Rng& rng) const;
};

/// Two-model speculation: a separate draft GptModel (typically much smaller
/// than the target) with the same vocabulary.
class IndependentDraft : public DraftProposer {
 public:
  explicit IndependentDraft(std::shared_ptr<const nn::GptModel> draft);
  /// Convenience: build (random-init) the draft from a config.
  explicit IndependentDraft(const nn::GptConfig& config);

  const nn::GptConfig& cache_config() const override {
    return draft_->config();
  }
  const char* name() const override { return "independent"; }
  Var forward(Tape& tape, std::span<const std::int32_t> tokens,
              nn::KvCache& cache) const override;

  const nn::GptModel& model() const { return *draft_; }

 private:
  std::shared_ptr<const nn::GptModel> draft_;
};

/// Self-speculation: early-exit through the first `n_layers` transformer
/// layers of the target, then the target's own final norm + lm_head. With
/// n_layers == the full depth the draft IS the target (acceptance 1.0) —
/// the degenerate case the exactness tests pin down.
class LayerSkipDraft : public DraftProposer {
 public:
  LayerSkipDraft(const nn::GptModel& target, std::int64_t n_layers);

  const nn::GptConfig& cache_config() const override { return cache_config_; }
  const char* name() const override { return "layer-skip"; }
  Var forward(Tape& tape, std::span<const std::int32_t> tokens,
              nn::KvCache& cache) const override;

  std::int64_t n_layers() const { return n_layers_; }

 private:
  const nn::GptModel& target_;
  std::int64_t n_layers_;
  nn::GptConfig cache_config_;  // target config with n_layers layers
};

/// Replays fixed scripts: propose() finds the script the accepted sequence
/// is a prefix of and serves its next k tokens (token 0 past the end or on
/// no match). Needs no model forward and touches no KV cache, so its
/// draft caches are minimal. Scripting each request's known-correct output
/// gives acceptance 1.0 with zero draft cost; scripting garbage gives a
/// maximally adversarial draft.
class ScriptedDraft : public DraftProposer {
 public:
  ScriptedDraft(std::vector<std::vector<std::int32_t>> scripts,
                std::int64_t vocab_size, std::int64_t max_seq);

  const nn::GptConfig& cache_config() const override { return cache_config_; }
  const char* name() const override { return "scripted"; }
  Var forward(Tape& tape, std::span<const std::int32_t> tokens,
              nn::KvCache& cache) const override;
  DraftProposal propose(std::span<const std::int32_t> tokens, std::int64_t k,
                        nn::KvCache& cache,
                        const nn::SamplingParams& sampling,
                        Rng& rng) const override;

 private:
  std::vector<std::vector<std::int32_t>> scripts_;
  std::int64_t vocab_size_;
  nn::GptConfig cache_config_;
};

}  // namespace matgpt::serve::spec
