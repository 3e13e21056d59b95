// Tests for src/serve/workloads: the JSON-subset grammar compiler (char DFA
// + token-level lift over a BPE vocab), masked sampling byte-identity, the
// engine's constrained-decode and prefill-only embedding request classes,
// and the mixed-workload trace knobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "nn/bert.h"
#include "nn/gpt.h"
#include "serve/engine.h"
#include "serve/spec/proposer.h"
#include "serve/trace.h"
#include "serve/workloads/embed.h"
#include "serve/workloads/grammar.h"
#include "tokenizer/bpe.h"

namespace matgpt {
namespace {

using serve::workloads::CharDfa;
using serve::workloads::GrammarRoot;
using serve::workloads::GrammarSpec;
using serve::workloads::TokenDfa;

// ---------------------------------------------------------------------------
// Char-level DFA
// ---------------------------------------------------------------------------

bool accepts(const CharDfa& dfa, const std::string& text) {
  const std::int32_t s = dfa.walk(dfa.start, text);
  return s >= 0 && dfa.accept[static_cast<std::size_t>(s)] != 0;
}

bool legal_prefix(const CharDfa& dfa, const std::string& text) {
  return dfa.walk(dfa.start, text) >= 0;
}

TEST(CharDfaTest, AcceptsCompleteObjectsRejectsPrefixes) {
  GrammarSpec spec;  // root = kObject
  const CharDfa dfa = CharDfa::compile(spec);
  EXPECT_TRUE(accepts(dfa, "{}"));
  EXPECT_TRUE(accepts(dfa, "{\"a\": 1}"));
  EXPECT_TRUE(accepts(dfa, "{\"a\": [1, 2], \"b\": {\"c\": null}}"));
  EXPECT_TRUE(accepts(dfa, " { \"k\" : true } "));
  // Legal-but-incomplete prefixes: reachable, not accepting.
  EXPECT_TRUE(legal_prefix(dfa, "{\"a\":"));
  EXPECT_FALSE(accepts(dfa, "{\"a\":"));
  EXPECT_TRUE(legal_prefix(dfa, "{\"a\": [1,"));
  // Root constraint: a bare array or scalar never starts.
  EXPECT_FALSE(legal_prefix(dfa, "["));
  EXPECT_FALSE(legal_prefix(dfa, "1"));
  EXPECT_FALSE(legal_prefix(dfa, "\""));
  // Structurally illegal continuations die immediately.
  EXPECT_FALSE(legal_prefix(dfa, "{,"));
  EXPECT_FALSE(legal_prefix(dfa, "{\"a\" 1"));
  EXPECT_FALSE(legal_prefix(dfa, "{\"a\": 1,}"));
  EXPECT_FALSE(legal_prefix(dfa, "{}x"));
}

TEST(CharDfaTest, ValueRootAcceptsScalars) {
  GrammarSpec spec;
  spec.root = GrammarRoot::kValue;
  const CharDfa dfa = CharDfa::compile(spec);
  EXPECT_TRUE(accepts(dfa, "true"));
  EXPECT_TRUE(accepts(dfa, "false"));
  EXPECT_TRUE(accepts(dfa, "null"));
  EXPECT_TRUE(accepts(dfa, "\"hi\""));
  EXPECT_TRUE(accepts(dfa, "-1.5e3"));
  EXPECT_TRUE(accepts(dfa, "0"));
  EXPECT_TRUE(accepts(dfa, "[\"a\", {\"b\": 2}]"));
  EXPECT_FALSE(legal_prefix(dfa, "tru3"));
  EXPECT_FALSE(accepts(dfa, "truefalse"));
}

TEST(CharDfaTest, NumberGrammarEdges) {
  GrammarSpec spec;
  spec.root = GrammarRoot::kValue;
  const CharDfa dfa = CharDfa::compile(spec);
  EXPECT_TRUE(accepts(dfa, "10"));
  EXPECT_TRUE(accepts(dfa, "1.25"));
  EXPECT_TRUE(accepts(dfa, "1e9"));
  EXPECT_TRUE(accepts(dfa, "1.5E+10"));
  EXPECT_TRUE(accepts(dfa, "-0.5"));
  // JSON forbids leading zeros, bare '.', trailing '.', '+' signs.
  EXPECT_FALSE(legal_prefix(dfa, "01"));
  EXPECT_FALSE(legal_prefix(dfa, "+1"));
  EXPECT_FALSE(legal_prefix(dfa, ".5"));
  EXPECT_FALSE(accepts(dfa, "1."));
  EXPECT_FALSE(accepts(dfa, "1e"));
  EXPECT_FALSE(accepts(dfa, "1e+"));
  EXPECT_FALSE(accepts(dfa, "-"));
}

TEST(CharDfaTest, StringEscapes) {
  GrammarSpec spec;
  spec.root = GrammarRoot::kValue;
  const CharDfa dfa = CharDfa::compile(spec);
  EXPECT_TRUE(accepts(dfa, "\"a\\\"b\""));
  EXPECT_TRUE(accepts(dfa, "\"\\n\\t\\\\\""));
  EXPECT_FALSE(legal_prefix(dfa, "\"\\x"));
  // Control bytes below 0x20 are illegal inside strings.
  EXPECT_FALSE(legal_prefix(dfa, std::string("\"a\x01", 3)));
}

TEST(CharDfaTest, DepthBoundMakesTheLanguageRegular) {
  GrammarSpec spec;
  spec.root = GrammarRoot::kArray;
  spec.max_depth = 2;
  const CharDfa dfa = CharDfa::compile(spec);
  EXPECT_TRUE(accepts(dfa, "[[1]]"));
  EXPECT_TRUE(accepts(dfa, "[[], [2, 3]]"));
  EXPECT_TRUE(legal_prefix(dfa, "[["));
  EXPECT_FALSE(legal_prefix(dfa, "[[["));  // third level exceeds the bound

  GrammarSpec deeper = spec;
  deeper.max_depth = 3;
  const CharDfa dfa3 = CharDfa::compile(deeper);
  EXPECT_TRUE(accepts(dfa3, "[[[1]]]"));
  EXPECT_GT(dfa3.n_states(), dfa.n_states());
}

TEST(CharDfaTest, SpecValidation) {
  GrammarSpec bad;
  bad.max_depth = 0;
  EXPECT_THROW(bad.validate(), Error);
  bad.max_depth = 9;
  EXPECT_THROW(bad.validate(), Error);
}

// ---------------------------------------------------------------------------
// Token-level DFA
// ---------------------------------------------------------------------------

// Synthetic 50-entry vocab sized to the test GptModel below: JSON fragments
// including multi-char tokens that cross several grammar states in one step.
// Ids 0-4 mirror tok::SpecialTokens (empty byte strings, never legal);
// id 3 is EOS.
std::vector<std::string> json_vocab() {
  std::vector<std::string> v(50);
  // 0..4 stay empty (specials).
  v[5] = "{";
  v[6] = "}";
  v[7] = "[";
  v[8] = "]";
  v[9] = ":";
  v[10] = ",";
  v[11] = "\"";
  for (int d = 0; d < 10; ++d) v[12 + d] = std::string(1, '0' + d);
  v[22] = "a";
  v[23] = "b";
  v[24] = "c";
  v[25] = "d";
  v[26] = "e";
  v[27] = "{\"";       // spans start -> object -> key string
  v[28] = "\":";       // closes a key and lands on the ':' separator
  v[29] = ",\"";       // next-member separator + key start
  v[30] = "\"}";       // closes a string value and the object
  v[31] = "true";
  v[32] = "false";
  v[33] = "null";
  v[34] = " ";
  v[35] = "1}";        // number then object close
  v[36] = "\"a\":";    // a whole key-colon unit
  v[37] = "[]";
  v[38] = "{}";
  v[39] = "e+";        // exponent marker + sign
  v[40] = "-";
  v[41] = ".";
  v[42] = "\\";
  v[43] = "\\n";
  v[44] = "f";
  v[45] = "g";
  v[46] = "h";
  v[47] = "x";
  v[48] = "y";
  v[49] = "z";
  return v;
}

constexpr std::int32_t kEos = 3;

TEST(TokenDfaTest, MultiCharTokensSpanGrammarStates) {
  const std::vector<std::string> vocab = json_vocab();
  const TokenDfa dfa = TokenDfa::compile(GrammarSpec{}, vocab, kEos);
  const std::int32_t s0 = dfa.start();
  // `{"` crosses start -> object-first -> in-key in one token.
  EXPECT_GE(dfa.next(s0, 27), 0);
  // `{}` is a complete object in one token: successor accepts EOS.
  const std::int32_t done = dfa.next(s0, 38);
  ASSERT_GE(done, 0);
  EXPECT_TRUE(dfa.eos_legal(done));
  // `"}` is illegal at the very start (root object required).
  EXPECT_LT(dfa.next(s0, 30), 0);
  // Walk {"a": 1} out of multi-char pieces:
  // {" a ": <sp> 1} — every hop must stay legal.
  std::int32_t s = s0;
  for (const std::int32_t t : {27, 22, 28, 34, 35}) {
    s = dfa.next(s, t);
    ASSERT_GE(s, 0) << "token " << t << " should be legal";
  }
  EXPECT_TRUE(dfa.eos_legal(s));
}

TEST(TokenDfaTest, EosOnlyLegalAtAcceptingStates) {
  const std::vector<std::string> vocab = json_vocab();
  const TokenDfa dfa = TokenDfa::compile(GrammarSpec{}, vocab, kEos);
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(dfa.vocab_size()));
  // Start state: nothing emitted yet, EOS illegal.
  EXPECT_FALSE(dfa.eos_legal(dfa.start()));
  dfa.legal_mask(dfa.start(), mask);
  EXPECT_EQ(mask[kEos], 0);
  // Mid-object: still illegal.
  const std::int32_t mid = dfa.next(dfa.start(), 27);  // after `{"`
  ASSERT_GE(mid, 0);
  EXPECT_FALSE(dfa.eos_legal(mid));
  // Complete object: EOS becomes legal and shows up in the mask.
  const std::int32_t done = dfa.next(dfa.start(), 38);  // after `{}`
  ASSERT_GE(done, 0);
  EXPECT_TRUE(dfa.eos_legal(done));
  dfa.legal_mask(done, mask);
  EXPECT_EQ(mask[kEos], 1);
  // EOS never has a successor edge of its own: next() is only consulted for
  // non-EOS tokens, and specials' empty byte strings are never legal.
  EXPECT_LT(dfa.next(dfa.start(), kEos), 0);
  EXPECT_LT(dfa.next(dfa.start(), 0), 0);  // pad
}

TEST(TokenDfaTest, DeadStateYieldsEmptyMask) {
  // A vocab that can open an object but never continue it: after `{` no
  // token (and not EOS) is legal.
  std::vector<std::string> vocab(50);
  vocab[5] = "{";
  const TokenDfa dfa = TokenDfa::compile(GrammarSpec{}, vocab, kEos);
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(dfa.vocab_size()));
  EXPECT_EQ(dfa.legal_mask(dfa.start(), mask), 1);  // only `{`
  const std::int32_t s1 = dfa.next(dfa.start(), 5);
  ASSERT_GE(s1, 0);
  EXPECT_EQ(dfa.legal_mask(s1, mask), 0);  // dead: no continuation exists
  EXPECT_TRUE(std::all_of(mask.begin(), mask.end(),
                          [](std::uint8_t m) { return m == 0; }));
}

TEST(TokenDfaTest, PassThroughAllowsEverythingAndNeverHalts) {
  const TokenDfa dfa = TokenDfa::pass_through(50, kEos);
  EXPECT_EQ(dfa.n_states(), 1);
  EXPECT_FALSE(dfa.halt_on_eos());
  EXPECT_TRUE(dfa.eos_legal(dfa.start()));
  std::vector<std::uint8_t> mask(50);
  EXPECT_EQ(dfa.legal_mask(dfa.start(), mask), 50);
  for (std::int32_t t = 0; t < 50; ++t) {
    EXPECT_EQ(dfa.next(dfa.start(), t), dfa.start());
  }
}

TEST(TokenDfaTest, CompilesOverTrainedBpeVocab) {
  // A real trained tokenizer: multi-byte merged tokens over JSON text must
  // lift correctly, with specials (empty byte strings) never legal.
  std::vector<std::string> corpus;
  for (int i = 0; i < 32; ++i) {
    corpus.push_back("{\"key\": " + std::to_string(i) + ", \"val\": true}");
  }
  const tok::BpeTokenizer tokenizer =
      tok::BpeTokenizer::train(corpus, tok::TokenizerKind::kHuggingFace, 300);
  const TokenDfa dfa = TokenDfa::compile(GrammarSpec{}, tokenizer);
  EXPECT_EQ(dfa.vocab_size(), tokenizer.vocab_size());
  EXPECT_EQ(dfa.eos(), tok::SpecialTokens::kEos);
  // Encode a conforming document and replay it through the token DFA.
  const std::vector<std::int32_t> ids =
      tokenizer.encode("{\"key\": 7, \"val\": true}");
  std::int32_t s = dfa.start();
  for (const std::int32_t id : ids) {
    s = dfa.next(s, id);
    ASSERT_GE(s, 0) << "token \"" << tokenizer.token_bytes(id)
                    << "\" must be legal mid-document";
  }
  EXPECT_TRUE(dfa.eos_legal(s));
  // Specials are never legal anywhere.
  std::vector<std::uint8_t> mask(
      static_cast<std::size_t>(dfa.vocab_size()));
  dfa.legal_mask(dfa.start(), mask);
  for (std::int32_t sp = 0; sp < tok::SpecialTokens::kCount; ++sp) {
    EXPECT_EQ(mask[sp], 0);
  }
}

// ---------------------------------------------------------------------------
// Engine integration: constrained decode
// ---------------------------------------------------------------------------

nn::GptConfig wl_config() {
  nn::GptConfig c;
  c.arch = nn::ArchFamily::kLLaMA;
  c.vocab_size = 50;
  c.hidden = 16;
  c.n_layers = 2;
  c.n_heads = 2;
  c.n_kv_heads = 1;
  c.max_seq = 64;
  return c;
}

serve::Request wl_request(std::uint64_t id, std::int64_t max_new,
                          float temperature) {
  serve::Request req;
  req.id = id;
  for (std::int64_t t = 0; t < 6; ++t) {
    req.prompt.push_back(static_cast<std::int32_t>((id * 11 + t * 5) % 50));
  }
  req.max_new_tokens = max_new;
  req.sampling.temperature = temperature;
  if (temperature > 0.0f) {
    req.sampling.top_k = 20;
    req.sampling.top_p = 0.9f;
  }
  req.sampling.seed = 0x51ed + id * 7919;
  return req;
}

// Generated suffix of a result (tokens = prompt + generated).
std::vector<std::int32_t> generated(const serve::RequestResult& r) {
  const std::size_t gen = static_cast<std::size_t>(r.generated_tokens);
  return {r.tokens.end() - static_cast<std::ptrdiff_t>(gen),
          r.tokens.end()};
}

TEST(EngineGrammarTest, EverySampledTokenIsDfaLegal) {
  nn::GptModel model(wl_config());
  serve::EngineConfig ec;
  ec.max_batch = 4;
  serve::InferenceEngine engine(model, ec);

  const auto dfa = std::make_shared<const TokenDfa>(
      TokenDfa::compile(GrammarSpec{}, json_vocab(), kEos));
  std::vector<std::future<serve::RequestResult>> futures;
  for (std::uint64_t id = 0; id < 12; ++id) {
    serve::Request req = wl_request(id, 24, id % 3 == 0 ? 0.0f : 1.0f);
    req.grammar = dfa;
    futures.push_back(engine.submit(std::move(req)));
  }
  engine.run_until_idle();

  int eos_finished = 0;
  for (auto& f : futures) {
    const serve::RequestResult r = f.get();
    ASSERT_TRUE(r.status == serve::RequestStatus::kOk ||
                r.status == serve::RequestStatus::kGrammarDead)
        << status_name(r.status);
    EXPECT_TRUE(r.constrained);
    // Replay the generated tokens through the DFA: every hop legal, EOS
    // only as a legal final token.
    std::int32_t s = dfa->start();
    const std::vector<std::int32_t> gen = generated(r);
    for (std::size_t i = 0; i < gen.size(); ++i) {
      if (gen[i] == kEos) {
        EXPECT_TRUE(dfa->eos_legal(s));
        EXPECT_EQ(i + 1, gen.size()) << "EOS must be the final token";
        ++eos_finished;
        break;
      }
      s = dfa->next(s, gen[i]);
      ASSERT_GE(s, 0) << "sampled token " << gen[i]
                      << " illegal at position " << i;
    }
  }
  EXPECT_GT(eos_finished, 0) << "no request ever completed a document";
  EXPECT_EQ(engine.stats().grammar_requests(), 12u);
  EXPECT_GT(engine.stats().grammar_masked_tokens(), 0u);
}

TEST(EngineGrammarTest, AllOnesMaskIsByteIdenticalToUnconstrained) {
  nn::GptModel model(wl_config());
  serve::EngineConfig ec;
  ec.max_batch = 4;

  std::map<std::uint64_t, std::vector<std::int32_t>> plain;
  {
    serve::InferenceEngine engine(model, ec);
    std::vector<std::future<serve::RequestResult>> futures;
    for (std::uint64_t id = 0; id < 8; ++id) {
      futures.push_back(
          engine.submit(wl_request(id, 16, id % 2 == 0 ? 0.0f : 0.8f)));
    }
    engine.run_until_idle();
    for (auto& f : futures) {
      serve::RequestResult r = f.get();
      plain.emplace(r.id, std::move(r.tokens));
    }
  }
  {
    const auto pass = std::make_shared<const TokenDfa>(
        TokenDfa::pass_through(50, kEos));
    serve::InferenceEngine engine(model, ec);
    std::vector<std::future<serve::RequestResult>> futures;
    for (std::uint64_t id = 0; id < 8; ++id) {
      serve::Request req = wl_request(id, 16, id % 2 == 0 ? 0.0f : 0.8f);
      req.grammar = pass;
      futures.push_back(engine.submit(std::move(req)));
    }
    engine.run_until_idle();
    for (auto& f : futures) {
      const serve::RequestResult r = f.get();
      EXPECT_EQ(r.status, serve::RequestStatus::kOk);
      EXPECT_EQ(r.tokens, plain.at(r.id))
          << "all-ones mask diverged for request " << r.id;
    }
  }
}

TEST(EngineGrammarTest, DeadStateFailsDeterministicallyNotHangs) {
  nn::GptModel model(wl_config());
  serve::EngineConfig ec;
  serve::InferenceEngine engine(model, ec);

  std::vector<std::string> vocab(50);
  vocab[5] = "{";  // only legal opener, then nothing can follow
  const auto dfa = std::make_shared<const TokenDfa>(
      TokenDfa::compile(GrammarSpec{}, vocab, kEos));
  serve::Request req = wl_request(1, 16, 0.8f);
  req.grammar = dfa;
  auto future = engine.submit(std::move(req));
  engine.run_until_idle();  // must terminate
  const serve::RequestResult r = future.get();
  EXPECT_EQ(r.status, serve::RequestStatus::kGrammarDead);
  EXPECT_EQ(r.generated_tokens, 1);  // the forced `{`
  EXPECT_EQ(generated(r), std::vector<std::int32_t>{5});
  EXPECT_EQ(engine.stats().grammar_dead(), 1u);
}

TEST(EngineGrammarTest, ValidationAndAdmissionRejections) {
  nn::GptModel model(wl_config());
  {
    // map_classes needs the priority scheduler to mean anything.
    serve::EngineConfig ec;
    ec.workloads.map_classes = true;
    EXPECT_THROW(serve::InferenceEngine(model, ec), Error);
    ec.scheduler = serve::sched::Policy::kPriority;
    serve::InferenceEngine ok(model, ec);
  }
  {
    serve::EngineConfig ec;
    ec.workloads.max_embed_batch = 0;
    EXPECT_THROW(serve::InferenceEngine(model, ec), Error);
  }
  {
    serve::EngineConfig ec;
    ec.workloads.grammar_max_states = 0;
    EXPECT_THROW(serve::InferenceEngine(model, ec), Error);
  }
  const auto dfa = std::make_shared<const TokenDfa>(
      TokenDfa::compile(GrammarSpec{}, json_vocab(), kEos));
  {
    serve::EngineConfig ec;
    serve::InferenceEngine engine(model, ec);
    // Vocab mismatch: DFA compiled for 50, engine model also 50 — build a
    // mismatched one to prove the check fires.
    const auto wrong = std::make_shared<const TokenDfa>(
        TokenDfa::pass_through(49, kEos));
    serve::Request req = wl_request(2, 8, 0.0f);
    req.grammar = wrong;
    EXPECT_THROW(engine.submit(std::move(req)), Error);
    // State-count cap.
    serve::EngineConfig tight = ec;
    tight.workloads.grammar_max_states = 2;
    serve::InferenceEngine capped(model, tight);
    serve::Request big = wl_request(3, 8, 0.0f);
    big.grammar = dfa;  // JSON grammar has far more than 2 states
    EXPECT_THROW(capped.submit(std::move(big)), Error);
  }
  {
    // An engine with a draft proposer serves constrained requests, but a
    // constrained request cannot be speculative: the proposer samples its
    // drafts unmasked, so a verified draft could be grammar-illegal.
    serve::EngineConfig ec;
    ec.proposer = std::make_shared<serve::spec::LayerSkipDraft>(model, 1);
    serve::InferenceEngine engine(model, ec);
    serve::Request spec = wl_request(4, 8, 0.0f);
    spec.grammar = dfa;
    spec.spec_k = 2;
    EXPECT_THROW(engine.submit(std::move(spec)), Error);
    serve::Request plain = wl_request(5, 8, 0.0f);
    plain.grammar = dfa;
    auto future = engine.submit(std::move(plain));
    engine.run_until_idle();
    EXPECT_TRUE(future.get().constrained);
  }
}

// ---------------------------------------------------------------------------
// Embeddings: pooling runner + engine request class
// ---------------------------------------------------------------------------

nn::BertConfig bert_config() {
  nn::BertConfig c;
  c.vocab_size = 50;
  c.hidden = 16;
  c.n_layers = 2;
  c.n_heads = 2;
  c.max_seq = 32;
  return c;
}

std::vector<std::int32_t> embed_tokens(std::uint64_t id, std::int64_t len) {
  std::vector<std::int32_t> t;
  for (std::int64_t i = 0; i < len; ++i) {
    t.push_back(static_cast<std::int32_t>((id * 13 + i * 7) % 50));
  }
  return t;
}

TEST(EmbedRunnerTest, BatchedMeanMatchesBertEmbedBitExactly) {
  const auto encoder = std::make_shared<nn::BertEncoder>(bert_config());
  std::vector<std::vector<std::int32_t>> batch;
  for (std::uint64_t id = 0; id < 3; ++id) {
    batch.push_back(embed_tokens(id, 12));
  }
  const std::vector<std::vector<float>> pooled = serve::workloads::embed_batch(
      *encoder, batch, serve::EmbedReduce::kMean);
  ASSERT_EQ(pooled.size(), 3u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::vector<float> solo = encoder->embed(batch[i]);
    ASSERT_EQ(pooled[i].size(), solo.size());
    for (std::size_t c = 0; c < solo.size(); ++c) {
      EXPECT_EQ(pooled[i][c], solo[c])
          << "row " << i << " dim " << c << " not bit-identical";
    }
  }
}

TEST(EmbedRunnerTest, ClsReduceTakesRowZero) {
  const auto encoder = std::make_shared<nn::BertEncoder>(bert_config());
  const std::vector<std::vector<std::int32_t>> batch{embed_tokens(1, 8)};
  const auto cls = serve::workloads::embed_batch(*encoder, batch,
                                                 serve::EmbedReduce::kCls);
  const auto mean = serve::workloads::embed_batch(*encoder, batch,
                                                  serve::EmbedReduce::kMean);
  ASSERT_EQ(cls[0].size(), mean[0].size());
  EXPECT_NE(cls[0], mean[0]);  // different pooling, different vector
  EXPECT_EQ(cls[0], serve::workloads::embed_one(*encoder, batch[0],
                                                serve::EmbedReduce::kCls));
}

TEST(EngineEmbedTest, PrefillOnlyRequestsReturnExactEmbeddings) {
  nn::GptModel model(wl_config());
  const auto encoder = std::make_shared<const nn::BertEncoder>(bert_config());
  serve::EngineConfig ec;
  ec.max_batch = 4;
  ec.workloads.embedder = encoder;
  ec.workloads.max_embed_batch = 4;
  serve::InferenceEngine engine(model, ec);

  // Mixed lengths: same-length requests batch into one forward, and the
  // pooled vectors stay bit-identical to solo BertEncoder::embed runs.
  std::vector<std::future<serve::RequestResult>> futures;
  std::vector<std::vector<std::int32_t>> prompts;
  for (std::uint64_t id = 0; id < 6; ++id) {
    serve::Request req;
    req.id = id;
    req.prompt = embed_tokens(id, id < 4 ? 10 : 14);
    req.embed = true;
    prompts.push_back(req.prompt);
    futures.push_back(engine.submit(std::move(req)));
  }
  engine.run_until_idle();
  for (auto& f : futures) {
    const serve::RequestResult r = f.get();
    EXPECT_EQ(r.status, serve::RequestStatus::kOk);
    EXPECT_TRUE(r.embed);
    EXPECT_EQ(r.generated_tokens, 0);
    const std::vector<float> solo = encoder->embed(prompts[r.id]);
    EXPECT_EQ(r.embedding, solo)
        << "engine embedding diverged from solo encode for " << r.id;
  }
  EXPECT_EQ(engine.stats().embed_requests(), 6u);
  // 6 sequences in at most 3 forwards (4+2 same-length groups): batching
  // actually happened.
  EXPECT_LE(engine.stats().embed_forwards(), 3u);
  EXPECT_EQ(engine.stats().embed_batched_seqs(), 6u);
}

TEST(EngineEmbedTest, MixedGenerationAndEmbeddingShareOneEngine) {
  nn::GptModel model(wl_config());
  const auto encoder = std::make_shared<const nn::BertEncoder>(bert_config());
  serve::EngineConfig ec;
  ec.max_batch = 4;
  ec.workloads.embedder = encoder;
  serve::InferenceEngine engine(model, ec);
  const auto dfa = std::make_shared<const TokenDfa>(
      TokenDfa::compile(GrammarSpec{}, json_vocab(), kEos));

  std::vector<std::future<serve::RequestResult>> futures;
  for (std::uint64_t id = 0; id < 9; ++id) {
    serve::Request req = wl_request(id, 12, 0.7f);
    if (id % 3 == 0) {
      req.embed = true;
      req.prompt = embed_tokens(id, 9);
    } else if (id % 3 == 1) {
      req.grammar = dfa;
    }
    futures.push_back(engine.submit(std::move(req)));
  }
  engine.run_until_idle();
  for (auto& f : futures) {
    const serve::RequestResult r = f.get();
    ASSERT_TRUE(r.status == serve::RequestStatus::kOk ||
                r.status == serve::RequestStatus::kGrammarDead);
    if (r.embed) {
      EXPECT_EQ(r.embedding.size(), 16u);
      EXPECT_EQ(r.generated_tokens, 0);
    } else {
      EXPECT_GT(r.generated_tokens, 0);
      EXPECT_TRUE(r.embedding.empty());
    }
  }
  EXPECT_EQ(engine.stats().embed_requests(), 3u);
  EXPECT_EQ(engine.stats().grammar_requests(), 3u);
}

TEST(EngineEmbedTest, AdmissionRejections) {
  nn::GptModel model(wl_config());
  {
    // No embedder configured.
    serve::EngineConfig ec;
    serve::InferenceEngine engine(model, ec);
    serve::Request req;
    req.id = 1;
    req.prompt = embed_tokens(1, 8);
    req.embed = true;
    EXPECT_THROW(engine.submit(std::move(req)), Error);
  }
  const auto encoder = std::make_shared<const nn::BertEncoder>(bert_config());
  serve::EngineConfig ec;
  ec.workloads.embedder = encoder;
  serve::InferenceEngine engine(model, ec);
  {
    // Prompt longer than the encoder's max_seq (32).
    serve::Request req;
    req.id = 2;
    req.prompt = embed_tokens(2, 40);
    req.embed = true;
    EXPECT_THROW(engine.submit(std::move(req)), Error);
  }
  {
    // Token outside the encoder vocab.
    serve::Request req;
    req.id = 3;
    req.prompt = {1, 2, 99};
    req.embed = true;
    EXPECT_THROW(engine.submit(std::move(req)), Error);
  }
  {
    // Empty prompt.
    serve::Request req;
    req.id = 4;
    req.embed = true;
    EXPECT_THROW(engine.submit(std::move(req)), Error);
  }
}

// ---------------------------------------------------------------------------
// Mixed-workload traces
// ---------------------------------------------------------------------------

TEST(WorkloadTraceTest, ZeroKnobsReproduceBaselineBitForBit) {
  serve::TraceSpec base;
  base.n_requests = 24;
  base.vocab_size = 50;
  const std::vector<serve::Request> a = serve::synth_trace(base);
  const std::vector<serve::Request> b = serve::synth_trace(base);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].prompt, b[i].prompt);
    EXPECT_EQ(a[i].sampling.seed, b[i].sampling.seed);
    EXPECT_FALSE(a[i].embed);
    EXPECT_EQ(a[i].grammar, nullptr);
  }
}

TEST(WorkloadTraceTest, MixDecoratesWithoutDisturbingTheMainStream) {
  serve::TraceSpec base;
  base.n_requests = 48;
  base.vocab_size = 50;
  const std::vector<serve::Request> plain = serve::synth_trace(base);

  serve::TraceSpec mixed = base;
  mixed.embed_fraction = 0.25;
  mixed.constrained_fraction = 0.25;
  mixed.constrained_grammar = std::make_shared<const TokenDfa>(
      TokenDfa::compile(GrammarSpec{}, json_vocab(), kEos));
  mixed.embed_vocab_size = 50;
  mixed.embed_len_max = 16;
  const std::vector<serve::Request> mix = serve::synth_trace(mixed);

  ASSERT_EQ(mix.size(), plain.size());
  std::size_t embeds = 0;
  std::size_t constrained = 0;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    if (mix[i].embed) {
      ++embeds;
      EXPECT_LE(static_cast<std::int64_t>(mix[i].prompt.size()), 16);
      continue;
    }
    if (mix[i].grammar != nullptr) {
      ++constrained;
      EXPECT_EQ(mix[i].grammar, mixed.constrained_grammar);
    }
    // Generation requests (constrained included) keep the exact prompt and
    // sampling draws of the undecorated trace.
    EXPECT_EQ(mix[i].prompt, plain[i].prompt);
    EXPECT_EQ(mix[i].sampling.seed, plain[i].sampling.seed);
    EXPECT_EQ(mix[i].max_new_tokens, plain[i].max_new_tokens);
  }
  EXPECT_GT(embeds, 0u);
  EXPECT_GT(constrained, 0u);

  // Deterministic: the same mixed spec reproduces itself.
  const std::vector<serve::Request> again = serve::synth_trace(mixed);
  for (std::size_t i = 0; i < mix.size(); ++i) {
    EXPECT_EQ(mix[i].prompt, again[i].prompt);
    EXPECT_EQ(mix[i].embed, again[i].embed);
    EXPECT_EQ(mix[i].grammar, again[i].grammar);
  }
}

TEST(WorkloadTraceTest, SpecValidation) {
  serve::TraceSpec spec;
  spec.embed_fraction = 0.7;
  spec.constrained_fraction = 0.7;  // sum > 1
  EXPECT_THROW(serve::synth_trace(spec), Error);
  spec.embed_fraction = 0.0;
  spec.constrained_fraction = 0.5;  // no grammar attached
  EXPECT_THROW(serve::synth_trace(spec), Error);
  spec.constrained_fraction = 0.0;
  spec.embed_vocab_size = -1;
  EXPECT_THROW(serve::synth_trace(spec), Error);
}

}  // namespace
}  // namespace matgpt
