#include "serve/spec/speculative.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"

namespace matgpt::serve::spec {

SpeculativeDecoder::SpeculativeDecoder(const nn::GptModel& target,
                                       std::shared_ptr<DraftProposer> proposer)
    : target_(target), proposer_(std::move(proposer)) {
  MGPT_CHECK(proposer_ != nullptr,
             "SpeculativeDecoder requires a draft proposer");
  MGPT_CHECK(proposer_->cache_config().vocab_size ==
                 target_.config().vocab_size,
             "draft vocab " << proposer_->cache_config().vocab_size
                            << " != target vocab "
                            << target_.config().vocab_size);
}

SpeculativeDecoder::Round SpeculativeDecoder::propose(
    std::span<const std::int32_t> tokens, nn::KvCache& draft_cache,
    const nn::SamplingParams& sampling, Rng& rng, std::int64_t k,
    std::int64_t remaining, const SpecStats& stats) const {
  MGPT_CHECK(!tokens.empty(), "speculative round requires an accepted prefix");
  MGPT_CHECK(remaining > 0, "speculative round requires emission budget");
  MGPT_CHECK(k > 0, "speculative round requires k > 0");
  // Budget for drafts: each round emits the accepted drafts PLUS one
  // corrected/bonus token, so with one token left there is nothing to
  // speculate on — the round degenerates to a plain decode step.
  std::int64_t k_round = std::min(k, remaining - 1);
  // Adaptive depth: a (k+1)-row verify costs more than a single step, so
  // proposing deep into a draft the target keeps rejecting only adds
  // overhead. Once the request has real evidence (>= k drafts judged),
  // scale the depth by its observed acceptance — an adversarial draft
  // degrades to ~1 draft/round (bounded overhead) while a strong one keeps
  // the full depth. Greedy output is identical for every depth, so this
  // changes speed, never tokens.
  if (stats.drafts_proposed >= k && k_round > 1) {
    const auto scaled = static_cast<std::int64_t>(
        std::ceil(stats.acceptance_rate() * static_cast<double>(k)));
    k_round = std::min(k_round, std::max<std::int64_t>(1, scaled));
  }
  Round round;
  round.feed.push_back(tokens.back());
  if (k_round < 1) return round;
  round.proposal = proposer_->propose(tokens, k_round, draft_cache, sampling,
                                      rng);
  MGPT_CHECK(static_cast<std::int64_t>(round.proposal.tokens.size()) ==
                 k_round,
             "proposer returned " << round.proposal.tokens.size()
                                  << " drafts; asked for " << k_round);
  round.feed.insert(round.feed.end(), round.proposal.tokens.begin(),
                    round.proposal.tokens.end());
  return round;
}

std::int64_t SpeculativeDecoder::accept(const Round& round, const Var& logits,
                                        std::int64_t first_row,
                                        std::vector<std::int32_t>& tokens,
                                        nn::KvCache& target_cache,
                                        nn::KvCache& draft_cache,
                                        const nn::SamplingParams& sampling,
                                        Rng& rng, SpecStats& stats) const {
  const auto len = static_cast<std::int64_t>(tokens.size());
  const auto k_round = static_cast<std::int64_t>(round.proposal.tokens.size());
  MGPT_CHECK(target_cache.length() == len + k_round,
             "target cache holds " << target_cache.length()
                                   << " tokens; the verified round needs "
                                   << len + k_round);
  const std::int64_t vocab = target_.config().vocab_size;
  auto row_of = [&](std::int64_t row) {
    return std::span<const float>(
        logits.value().data() + (first_row + row) * vocab,
        static_cast<std::size_t>(vocab));
  };
  if (k_round == 0) {  // plain decode step
    tokens.push_back(nn::sample_token(row_of(0), sampling, rng));
    stats.verify_rounds += 1;
    stats.tokens_emitted += 1;
    return 1;
  }
  const DraftProposal& proposal = round.proposal;

  // Accept the longest draft prefix the target agrees with, then emit one
  // token from the first disagreeing row (correction) or the final row
  // (bonus, all drafts accepted).
  std::int64_t accepted = 0;
  std::int32_t next = -1;
  if (sampling.temperature <= 0.0f) {
    while (accepted < k_round &&
           proposal.tokens[static_cast<std::size_t>(accepted)] ==
               nn::argmax_token(row_of(accepted))) {
      ++accepted;
    }
    next = nn::argmax_token(row_of(accepted));
  } else {
    MGPT_CHECK(proposal.probs.size() == proposal.tokens.size(),
               "stochastic proposal is missing draft distributions");
    while (accepted < k_round) {
      const auto i = static_cast<std::size_t>(accepted);
      const std::int32_t draft = proposal.tokens[i];
      const std::vector<float> target_probs =
          nn::sampling_probs(row_of(accepted), sampling);
      const std::vector<float>& draft_probs = proposal.probs[i];
      const double q = target_probs[static_cast<std::size_t>(draft)];
      const double p = draft_probs[static_cast<std::size_t>(draft)];
      MGPT_CHECK(p > 0.0, "draft proposed a token it gave zero probability");
      if (rng.uniform() < q / p) {
        ++accepted;
        continue;
      }
      // Residual: the leftover target mass the draft under-covered.
      std::vector<double> residual(target_probs.size());
      double total = 0.0;
      for (std::size_t v = 0; v < target_probs.size(); ++v) {
        residual[v] = std::max(
            0.0, static_cast<double>(target_probs[v]) - draft_probs[v]);
        total += residual[v];
      }
      next = total > 0.0
                 ? static_cast<std::int32_t>(rng.categorical(residual))
                 : nn::sample_token(row_of(accepted), sampling, rng);
      break;
    }
    if (next < 0) {  // every draft accepted: bonus from the last verify row
      next = nn::sample_token(row_of(k_round), sampling, rng);
    }
  }

  tokens.insert(tokens.end(), proposal.tokens.begin(),
                proposal.tokens.begin() + accepted);
  tokens.push_back(next);

  // Roll both caches back to the accepted sequence. The target fed k+1
  // tokens and must end at new_len - 1 (everything but the new last token);
  // the draft may lag (fully-accepted round) but must never run ahead.
  const std::int64_t new_fed = len + accepted;
  target_cache.truncate(new_fed);
  if (draft_cache.length() > new_fed) draft_cache.truncate(new_fed);

  stats.drafts_proposed += k_round;
  stats.drafts_accepted += accepted;
  stats.verify_rounds += 1;
  stats.tokens_emitted += accepted + 1;
  return accepted + 1;
}

std::vector<std::int32_t> SpeculativeDecoder::generate(
    std::span<const std::int32_t> prompt, std::int64_t max_new_tokens,
    const nn::SamplingParams& sampling, Rng& rng, std::int64_t k,
    SpecStats* stats) const {
  MGPT_CHECK(!prompt.empty(), "generate requires a non-empty prompt");
  MGPT_CHECK(max_new_tokens > 0, "generate requires max_new_tokens > 0");
  MGPT_CHECK(static_cast<std::int64_t>(prompt.size()) + max_new_tokens <=
                 target_.config().max_seq,
             "speculative generate cannot slide the window; shorten the "
             "request");
  std::vector<std::int32_t> tokens(prompt.begin(), prompt.end());
  nn::KvCache target_cache;
  nn::KvCache draft_cache;
  SpecStats local;
  SpecStats& s = stats != nullptr ? *stats : local;

  // Prefill + first token exactly as generate_cached does it, so the two
  // paths share the first sample bit-for-bit.
  {
    Tape tape;
    Var logits = target_.forward_incremental(tape, prompt, target_cache);
    const std::int64_t vocab = target_.config().vocab_size;
    tokens.push_back(nn::sample_token(
        std::span<const float>(logits.value().data(),
                               static_cast<std::size_t>(vocab)),
        sampling, rng));
  }
  std::int64_t emitted = 1;
  while (emitted < max_new_tokens) {
    const Round round = propose(tokens, draft_cache, sampling, rng, k,
                                max_new_tokens - emitted, s);
    nn::RaggedBatch verify;
    verify.path = nn::FwdPath::kDecode;
    verify.logits = nn::LogitRows::kAll;
    verify.add(round.feed, target_cache);
    Tape tape;
    Var logits = target_.forward(tape, verify);
    emitted += accept(round, logits, 0, tokens, target_cache, draft_cache,
                      sampling, rng, s);
  }
  return tokens;
}

}  // namespace matgpt::serve::spec
