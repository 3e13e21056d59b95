// Unit tests for src/serve/spec: the multi-token verify path, KV rollback,
// exact greedy speculative decoding for every proposer type, residual
// sampling, and mixed speculative/plain batches through the engine.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "nn/gpt.h"
#include "serve/engine.h"
#include "serve/spec/proposer.h"
#include "serve/spec/speculative.h"
#include "serve/trace.h"

namespace matgpt {
namespace {

nn::GptConfig spec_config(nn::ArchFamily arch) {
  nn::GptConfig c;
  c.arch = arch;
  c.vocab_size = 50;
  c.hidden = 16;
  c.n_layers = 3;  // deep enough that layer-skip drafts skip something
  c.n_heads = 2;
  c.n_kv_heads = arch == nn::ArchFamily::kLLaMA ? 1 : 0;
  c.max_seq = 64;
  return c;
}

void expect_cache_equal(const nn::KvCache& a, const nn::KvCache& b) {
  ASSERT_EQ(a.length(), b.length());
  std::vector<float> rows_a, rows_b;
  a.swap_out(rows_a);
  b.swap_out(rows_b);
  EXPECT_EQ(rows_a, rows_b);
}

// The speculative verify: k tokens fed to one sequence, every row's logits.
Var verify(const nn::GptModel& model, Tape& tape,
           std::span<const std::int32_t> tokens, nn::KvCache& cache) {
  nn::RaggedBatch batch;
  batch.path = nn::FwdPath::kDecode;
  batch.logits = nn::LogitRows::kAll;
  batch.add(tokens, cache);
  return model.forward(tape, batch);
}

// A k-token verify must reproduce, row for row and bit for bit, k
// sequential single-token forward_incremental steps — the property exact
// acceptance rests on.
TEST(SpecVerifyAppend, BitIdenticalToSequentialSingleTokenDecode) {
  for (auto arch : {nn::ArchFamily::kNeoX, nn::ArchFamily::kLLaMA}) {
    const nn::GptConfig c = spec_config(arch);
    nn::GptModel model(c);
    const std::vector<std::int32_t> prompt{3, 14, 15, 9, 2};
    const std::vector<std::int32_t> verify_tokens{6, 5, 35, 8};

    nn::KvCache batched, reference;
    {
      Tape t1, t2;
      model.forward_incremental(t1, prompt, batched);
      model.forward_incremental(t2, prompt, reference);
    }

    Tape tape;
    Var logits = verify(model, tape, verify_tokens, batched);
    ASSERT_EQ(logits.value().dim(0),
              static_cast<std::int64_t>(verify_tokens.size()));
    ASSERT_EQ(logits.value().dim(1), c.vocab_size);

    for (std::size_t t = 0; t < verify_tokens.size(); ++t) {
      Tape ref_tape;
      std::span<const std::int32_t> one(&verify_tokens[t], 1);
      Var ref = model.forward_incremental(ref_tape, one, reference);
      for (std::int64_t v = 0; v < c.vocab_size; ++v) {
        ASSERT_EQ(logits.value().at(static_cast<std::int64_t>(t), v),
                  ref.value().at(0, v))
            << "arch " << static_cast<int>(arch) << " row " << t << " vocab "
            << v;
      }
    }
    expect_cache_equal(batched, reference);
  }
}

// Rolling back after a rejected speculation must leave the cache
// bit-identical to one that never speculated — and decoding must continue
// identically from it. Covers both a cache bound by the forward itself and
// one reserved up front with a small block-aligned capacity.
TEST(SpecKvRollback, TruncatedCacheEqualsNeverSpeculatedCache) {
  const nn::GptConfig c = spec_config(nn::ArchFamily::kLLaMA);
  nn::GptModel model(c);
  const std::vector<std::int32_t> prompt{7, 3, 11};
  const std::vector<std::int32_t> rejected{20, 21, 22, 23};

  for (bool reserved : {false, true}) {
    nn::KvCache speculated, clean;
    if (reserved) {
      speculated.reserve(c, 16);
      clean.reserve(c, 16);
    }
    {
      Tape t1, t2;
      model.forward_incremental(t1, prompt, speculated);
      model.forward_incremental(t2, prompt, clean);
    }
    {
      Tape tape;
      verify(model, tape, rejected, speculated);
    }
    ASSERT_EQ(speculated.length(),
              static_cast<std::int64_t>(prompt.size() + rejected.size()));
    speculated.truncate(static_cast<std::int64_t>(prompt.size()));
    expect_cache_equal(speculated, clean);

    // The rolled-back cache must keep decoding exactly like the clean one.
    const std::int32_t next = 4;
    Tape t1, t2;
    std::span<const std::int32_t> one(&next, 1);
    Var a = model.forward_incremental(t1, one, speculated);
    Var b = model.forward_incremental(t2, one, clean);
    for (std::int64_t v = 0; v < c.vocab_size; ++v) {
      ASSERT_EQ(a.value().at(0, v), b.value().at(0, v))
          << (reserved ? "reserved" : "lazily bound") << " vocab " << v;
    }
  }
}

TEST(SpecKvRollback, TruncateValidatesLength) {
  const nn::GptConfig c = spec_config(nn::ArchFamily::kNeoX);
  nn::GptModel model(c);
  nn::KvCache cache;
  Tape tape;
  const std::vector<std::int32_t> prompt{1, 2, 3};
  model.forward_incremental(tape, prompt, cache);
  EXPECT_THROW(cache.truncate(4), Error);
  EXPECT_THROW(cache.truncate(-1), Error);
  cache.truncate(3);  // no-op
  EXPECT_EQ(cache.length(), 3);
  cache.truncate(0);
  EXPECT_EQ(cache.length(), 0);
  EXPECT_TRUE(cache.block_ids().empty());
}

// The exactness contract: greedy speculative output is byte-identical to
// generate_cached for every proposer — perfect, partial, and adversarial.
TEST(SpecDecoder, GreedyByteIdenticalForEveryProposer) {
  for (auto arch : {nn::ArchFamily::kNeoX, nn::ArchFamily::kLLaMA}) {
    const nn::GptConfig c = spec_config(arch);
    nn::GptModel model(c);
    const std::vector<std::int32_t> prompt{9, 8, 7};
    const std::int64_t max_new = 17;
    nn::SamplingParams greedy;
    greedy.temperature = 0.0f;
    Rng ref_rng(1);
    const auto expected =
        model.generate_cached(prompt, max_new, greedy, ref_rng);

    std::vector<std::pair<const char*,
                          std::shared_ptr<serve::spec::DraftProposer>>>
        proposers;
    // draft == target: an independent draft built from the identical config
    // (and seed) — acceptance must be exactly 1.0.
    proposers.emplace_back(
        "independent twin",
        std::make_shared<serve::spec::IndependentDraft>(c));
    // Self-speculation at full depth IS the target — acceptance 1.0 again.
    proposers.emplace_back(
        "layer-skip full",
        std::make_shared<serve::spec::LayerSkipDraft>(model, c.n_layers));
    // Self-speculation skipping layers: partial acceptance, same output.
    proposers.emplace_back(
        "layer-skip 1",
        std::make_shared<serve::spec::LayerSkipDraft>(model, 1));
    // Adversarial scripted garbage: acceptance ~0, still the same output.
    proposers.emplace_back(
        "adversarial",
        std::make_shared<serve::spec::ScriptedDraft>(
            std::vector<std::vector<std::int32_t>>{}, c.vocab_size,
            c.max_seq));

    for (const auto& [label, proposer] : proposers) {
      serve::spec::SpeculativeDecoder decoder(model, proposer);
      serve::spec::SpecStats stats;
      Rng rng(1);
      const auto got =
          decoder.generate(prompt, max_new, greedy, rng, /*k=*/4, &stats);
      EXPECT_EQ(got, expected) << "arch " << static_cast<int>(arch) << " "
                               << label;
      EXPECT_EQ(stats.tokens_emitted, max_new - 1);  // first token: prefill
      EXPECT_GT(stats.verify_rounds, 0);
      if (std::string(label) == "independent twin" ||
          std::string(label) == "layer-skip full") {
        EXPECT_EQ(stats.drafts_accepted, stats.drafts_proposed)
            << label << ": draft==target must accept every draft";
        EXPECT_DOUBLE_EQ(stats.acceptance_rate(), 1.0);
      }
      if (std::string(label) == "adversarial") {
        // Degenerates toward one token per round, never a wrong token. (The
        // scripted zeros may coincide with a real argmax, so acceptance is
        // near zero, not exactly zero.)
        EXPECT_GT(stats.drafts_proposed, 0);
        EXPECT_LT(stats.acceptance_rate(), 1.0);
        // Adaptive depth kicked in: far fewer than k drafts per round.
        EXPECT_LT(stats.drafts_proposed, 4 * stats.verify_rounds);
      }
    }
  }
}

// An oracle scripted with the known-correct continuation accepts everything
// and saves k sequential steps per round.
TEST(SpecDecoder, OracleScriptReachesFullAcceptance) {
  const nn::GptConfig c = spec_config(nn::ArchFamily::kLLaMA);
  nn::GptModel model(c);
  const std::vector<std::int32_t> prompt{5, 6, 7, 8};
  const std::int64_t max_new = 16;
  nn::SamplingParams greedy;
  greedy.temperature = 0.0f;
  Rng ref_rng(3);
  const auto expected =
      model.generate_cached(prompt, max_new, greedy, ref_rng);

  auto oracle = std::make_shared<serve::spec::ScriptedDraft>(
      std::vector<std::vector<std::int32_t>>{expected}, c.vocab_size,
      c.max_seq);
  serve::spec::SpeculativeDecoder decoder(model, oracle);
  serve::spec::SpecStats stats;
  Rng rng(3);
  const auto got =
      decoder.generate(prompt, max_new, greedy, rng, /*k=*/4, &stats);
  EXPECT_EQ(got, expected);
  EXPECT_DOUBLE_EQ(stats.acceptance_rate(), 1.0);
  EXPECT_GT(stats.steps_saved(), 0);
  // k+1 tokens per verify round (modulo the tail), so the round count is
  // roughly (max_new - 1) / (k + 1).
  EXPECT_LT(stats.verify_rounds, max_new - 1);
}

// Residual sampling: stochastic speculative decoding must be reproducible
// given the seed, in-vocabulary, and the right length for any draft.
TEST(SpecDecoder, StochasticResidualSamplingIsReproducible) {
  const nn::GptConfig c = spec_config(nn::ArchFamily::kNeoX);
  nn::GptModel model(c);
  const std::vector<std::int32_t> prompt{2, 4, 6};
  const std::int64_t max_new = 12;
  nn::SamplingParams sampling;
  sampling.temperature = 0.8f;
  sampling.top_k = 20;
  sampling.top_p = 0.95f;

  auto draft = std::make_shared<serve::spec::LayerSkipDraft>(model, 1);
  serve::spec::SpeculativeDecoder decoder(model, draft);
  Rng rng_a(42), rng_b(42);
  const auto a = decoder.generate(prompt, max_new, sampling, rng_a, 3);
  const auto b = decoder.generate(prompt, max_new, sampling, rng_b, 3);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), prompt.size() + max_new);
  for (const std::int32_t token : a) {
    EXPECT_GE(token, 0);
    EXPECT_LT(token, c.vocab_size);
  }
}

// Mixed speculative/plain batches through the continuous-batching engine:
// every greedy request — speculative or not — matches its batch-1
// generate_cached self, slots (target and draft) all return to the pools,
// and speculation metrics flow through to results and ServerStats.
TEST(SpecEngine, MixedSpeculativeAndPlainBatches) {
  const nn::GptConfig c = spec_config(nn::ArchFamily::kLLaMA);
  nn::GptModel model(c);

  serve::EngineConfig ec;
  ec.max_batch = 3;
  ec.kv_slots = 3;
  ec.queue_capacity = 4;
  ec.proposer = std::make_shared<serve::spec::LayerSkipDraft>(model, 2);
  serve::InferenceEngine engine(model, ec);
  ASSERT_NE(engine.draft_pool(), nullptr);

  serve::TraceSpec spec;
  spec.n_requests = 10;
  spec.vocab_size = c.vocab_size;
  spec.prompt_len_min = 2;
  spec.prompt_len_max = 6;
  // max_new >= 3 so every speculative request gets at least one real
  // propose/verify round (remaining >= 2 after the prefill token).
  spec.max_new_min = 3;
  spec.max_new_max = 10;
  spec.greedy_fraction = 1.0;  // all greedy: exact identity for every request
  auto trace = serve::synth_trace(spec);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i % 2 == 0) trace[i].spec_k = 3;  // interleave spec and plain
  }
  const auto reference_trace = trace;
  const auto results = engine.run_trace(std::move(trace));
  ASSERT_EQ(results.size(), reference_trace.size());

  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& req = reference_trace[i];
    EXPECT_EQ(results[i].generated_tokens, req.max_new_tokens);
    Rng rng(req.sampling.seed);
    const auto expected =
        model.generate_cached(req.prompt, req.max_new_tokens, req.sampling,
                              rng);
    EXPECT_EQ(results[i].tokens, expected)
        << "request " << i << (req.spec_k > 0 ? " (speculative)" : " (plain)");
    if (req.spec_k > 0) {
      EXPECT_GT(results[i].drafts_proposed, 0) << "request " << i;
      EXPECT_GT(results[i].verify_rounds, 0) << "request " << i;
    } else {
      EXPECT_EQ(results[i].drafts_proposed, 0) << "request " << i;
    }
  }

  EXPECT_TRUE(engine.kv_pool().all_free());
  EXPECT_TRUE(engine.draft_pool()->all_free());
  EXPECT_EQ(engine.active_count(), 0u);
  EXPECT_EQ(engine.stats().requests_completed(), reference_trace.size());
  EXPECT_GT(engine.stats().drafts_proposed(), 0u);
  const std::string report = engine.stats().report(1.0);
  EXPECT_NE(report.find("spec acceptance"), std::string::npos);
}

TEST(SpecEngine, SpeculativeRequestWithoutProposerThrows) {
  const nn::GptConfig c = spec_config(nn::ArchFamily::kNeoX);
  nn::GptModel model(c);
  serve::InferenceEngine engine(model);
  serve::Request req;
  req.prompt = {1, 2};
  req.max_new_tokens = 4;
  req.spec_k = 4;
  EXPECT_THROW(engine.submit(req), Error);
}

TEST(SpecDecoder, RejectsVocabMismatchedDraft) {
  const nn::GptConfig c = spec_config(nn::ArchFamily::kNeoX);
  nn::GptModel model(c);
  nn::GptConfig other = c;
  other.vocab_size = c.vocab_size + 1;
  auto draft = std::make_shared<serve::spec::IndependentDraft>(other);
  EXPECT_THROW(serve::spec::SpeculativeDecoder(model, draft), Error);
}

}  // namespace
}  // namespace matgpt
