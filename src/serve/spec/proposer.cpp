#include "serve/spec/proposer.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace matgpt::serve::spec {

DraftProposal DraftProposer::propose(std::span<const std::int32_t> tokens,
                                     std::int64_t k, nn::KvCache& cache,
                                     const nn::SamplingParams& sampling,
                                     Rng& rng) const {
  MGPT_CHECK(!tokens.empty(), "propose requires an accepted sequence");
  MGPT_CHECK(k > 0, "propose requires k > 0");
  const auto len = static_cast<std::int64_t>(tokens.size());
  MGPT_CHECK(cache.length() < len,
             "draft cache is ahead of the accepted sequence");
  const bool greedy = sampling.temperature <= 0.0f;
  const std::int64_t vocab = cache_config().vocab_size;

  DraftProposal out;
  out.tokens.reserve(static_cast<std::size_t>(k));
  // First forward catches the cache up (everything accepted it hasn't seen —
  // at least tokens.back()); each later one feeds the previous draft token.
  std::vector<std::int32_t> feed(tokens.begin() + cache.length(), tokens.end());
  for (std::int64_t step = 0; step < k; ++step) {
    Tape tape;
    Var logits = forward(tape, feed, cache);
    std::span<const float> row(logits.value().data(),
                               static_cast<std::size_t>(vocab));
    std::int32_t draft;
    if (greedy) {
      draft = nn::argmax_token(row);
    } else {
      std::vector<float> probs = nn::sampling_probs(row, sampling);
      std::vector<double> weights(probs.begin(), probs.end());
      draft = static_cast<std::int32_t>(rng.categorical(weights));
      out.probs.push_back(std::move(probs));
    }
    out.tokens.push_back(draft);
    feed.assign(1, draft);
  }
  return out;
}

IndependentDraft::IndependentDraft(std::shared_ptr<const nn::GptModel> draft)
    : draft_(std::move(draft)) {
  MGPT_CHECK(draft_ != nullptr, "IndependentDraft requires a model");
}

IndependentDraft::IndependentDraft(const nn::GptConfig& config)
    : IndependentDraft(std::make_shared<const nn::GptModel>(config)) {}

namespace {

// Draft forwards run the decode weights for catch-up and drafting alike and
// only ever sample the last fed position.
nn::RaggedBatch draft_batch(std::span<const std::int32_t> tokens,
                            nn::KvCache& cache, std::int64_t n_layers) {
  nn::RaggedBatch batch;
  batch.path = nn::FwdPath::kDecode;
  batch.n_layers = n_layers;
  batch.add(tokens, cache);
  return batch;
}

}  // namespace

Var IndependentDraft::forward(Tape& tape,
                              std::span<const std::int32_t> tokens,
                              nn::KvCache& cache) const {
  return draft_->forward(tape, draft_batch(tokens, cache, 0));
}

LayerSkipDraft::LayerSkipDraft(const nn::GptModel& target,
                               std::int64_t n_layers)
    : target_(target), n_layers_(n_layers), cache_config_(target.config()) {
  MGPT_CHECK(n_layers_ >= 1 && n_layers_ <= target.config().n_layers,
             "layer-skip draft depth " << n_layers_ << " outside [1, "
                                       << target.config().n_layers << "]");
  cache_config_.n_layers = n_layers_;
}

Var LayerSkipDraft::forward(Tape& tape, std::span<const std::int32_t> tokens,
                            nn::KvCache& cache) const {
  return target_.forward(tape, draft_batch(tokens, cache, n_layers_));
}

ScriptedDraft::ScriptedDraft(std::vector<std::vector<std::int32_t>> scripts,
                             std::int64_t vocab_size, std::int64_t max_seq)
    : scripts_(std::move(scripts)), vocab_size_(vocab_size) {
  MGPT_CHECK(vocab_size_ > 0 && max_seq > 0,
             "scripted draft requires target vocab and max_seq");
  // Minimal valid geometry: the scripted draft never touches its cache, so
  // its draft pool should pin as little memory as possible.
  cache_config_.vocab_size = vocab_size_;
  cache_config_.hidden = 2;
  cache_config_.n_layers = 1;
  cache_config_.n_heads = 1;
  cache_config_.max_seq = max_seq;
  cache_config_.validate();
}

Var ScriptedDraft::forward(Tape&, std::span<const std::int32_t>,
                           nn::KvCache&) const {
  MGPT_CHECK(false, "scripted draft has no model forward");
}

DraftProposal ScriptedDraft::propose(std::span<const std::int32_t> tokens,
                                     std::int64_t k, nn::KvCache&,
                                     const nn::SamplingParams& sampling,
                                     Rng&) const {
  MGPT_CHECK(k > 0, "propose requires k > 0");
  const std::vector<std::int32_t>* script = nullptr;
  for (const auto& s : scripts_) {
    if (s.size() >= tokens.size() &&
        std::equal(tokens.begin(), tokens.end(), s.begin())) {
      script = &s;
      break;
    }
  }
  DraftProposal out;
  for (std::int64_t i = 0; i < k; ++i) {
    const std::size_t pos = tokens.size() + static_cast<std::size_t>(i);
    out.tokens.push_back(script != nullptr && pos < script->size()
                             ? (*script)[pos]
                             : 0);
  }
  if (sampling.temperature > 0.0f) {
    // Degenerate draft distribution: probability 1 on the scripted token.
    for (std::int32_t token : out.tokens) {
      std::vector<float> row(static_cast<std::size_t>(vocab_size_), 0.0f);
      row[static_cast<std::size_t>(token)] = 1.0f;
      out.probs.push_back(std::move(row));
    }
  }
  return out;
}

}  // namespace matgpt::serve::spec
