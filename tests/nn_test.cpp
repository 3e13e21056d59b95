// Unit tests for nn: module registry, layers, both GPT families, and the
// BERT encoder — including end-to-end gradient flow and overfit sanity.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include "grad_check.h"
#include "nn/bert.h"
#include "tokenizer/bpe.h"
#include "nn/gpt.h"
#include "nn/sampling.h"
#include "optim/optimizer.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace matgpt {
namespace {

nn::GptConfig tiny_config(nn::ArchFamily arch) {
  nn::GptConfig c;
  c.arch = arch;
  c.vocab_size = 50;
  c.hidden = 16;
  c.n_layers = 2;
  c.n_heads = 2;
  c.max_seq = 16;
  return c;
}

TEST(Module, ParameterRegistryAndNames) {
  Rng rng(1);
  nn::Linear lin(4, 3, /*bias=*/true, rng);
  const auto params = lin.parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].name, "weight");
  EXPECT_EQ(params[1].name, "bias");
  EXPECT_EQ(lin.param_count(), 4 * 3 + 3);
}

TEST(Module, SubmoduleNamesAreHierarchical) {
  nn::GptModel model(tiny_config(nn::ArchFamily::kNeoX));
  std::set<std::string> names;
  for (const auto& p : model.parameters()) names.insert(p.name);
  EXPECT_TRUE(names.count("tok_emb"));
  EXPECT_TRUE(names.count("blocks.0.attn.q.weight"));
  EXPECT_TRUE(names.count("blocks.1.mlp.up.bias"));
  EXPECT_TRUE(names.count("final_norm.gamma"));
  EXPECT_TRUE(names.count("lm_head.weight"));
}

TEST(Module, ZeroGradClearsAllGrads) {
  nn::GptModel model(tiny_config(nn::ArchFamily::kLLaMA));
  const std::vector<std::int32_t> tokens{1, 2, 3, 4};
  const std::vector<std::int32_t> targets{2, 3, 4, 5};
  Tape tape;
  Var loss = model.loss(tape, tokens, targets, 1, 4);
  tape.backward(loss);
  bool any = false;
  for (const auto& p : model.parameters()) any |= p.var.grad().defined();
  EXPECT_TRUE(any);
  model.zero_grad();
  for (const auto& p : model.parameters()) {
    EXPECT_FALSE(p.var.grad().defined()) << p.name;
  }
}

TEST(Linear, ForwardMatchesManualComputation) {
  Rng rng(2);
  nn::Linear lin(2, 2, /*bias=*/true, rng);
  // Overwrite with known values.
  auto params = lin.parameters();
  params[0].var.value() = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  params[1].var.value() = Tensor::from_data({2}, {10, 20});
  Tape tape;
  Var x = tape.leaf(Tensor::from_data({1, 2}, {1, 1}), false);
  Var y = lin.forward(tape, x);
  EXPECT_FLOAT_EQ(y.value().at(0, 0), 14.0f);  // 1+3+10
  EXPECT_FLOAT_EQ(y.value().at(0, 1), 26.0f);  // 2+4+20
}

TEST(Linear, FlattensLeadingDims) {
  Rng rng(2);
  nn::Linear lin(4, 8, false, rng);
  Tape tape;
  Var x = tape.leaf(Tensor::randn({2, 3, 4}, rng), false);
  Var y = lin.forward(tape, x);
  EXPECT_EQ(y.value().dim(0), 6);
  EXPECT_EQ(y.value().dim(1), 8);
}

TEST(Norms, LayerNormNormalizesRows) {
  nn::LayerNorm ln(8);
  Rng rng(3);
  Tape tape;
  Var x = tape.leaf(Tensor::randn({4, 8}, rng, 5.0f, 3.0f), false);
  Var y = ln.forward(tape, x);
  for (std::int64_t r = 0; r < 4; ++r) {
    double mean = 0.0, var = 0.0;
    for (std::int64_t c = 0; c < 8; ++c) mean += y.value().at(r, c);
    mean /= 8.0;
    for (std::int64_t c = 0; c < 8; ++c) {
      var += (y.value().at(r, c) - mean) * (y.value().at(r, c) - mean);
    }
    var /= 8.0;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(Norms, RmsNormPreservesScaleInvariantDirection) {
  nn::RMSNorm rms(4);
  Tape tape;
  Var a = tape.leaf(Tensor::from_data({1, 4}, {1, 2, 3, 4}), false);
  Var b = tape.leaf(Tensor::from_data({1, 4}, {2, 4, 6, 8}), false);
  Var ya = rms.forward(tape, a);
  Var yb = rms.forward(tape, b);
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(ya.value()[i], yb.value()[i], 1e-5);  // scale invariance
  }
}

TEST(Mlp, SwiGluInnerDimKeepsParamParity) {
  // Fig. 2's premise: the 3-linear SwiGLU MLP and the 2-linear GELU MLP
  // carry approximately equal parameters at the same hidden size.
  for (std::int64_t h : {64, 256, 2304, 4096}) {
    const std::int64_t gelu_params = h * 4 * h * 2;   // weights only
    const std::int64_t inner = nn::SwiGluMlp::inner_dim_for(h);
    const std::int64_t swiglu_params = 3 * h * inner;
    EXPECT_NEAR(static_cast<double>(swiglu_params) / gelu_params, 1.0, 0.04)
        << "hidden " << h;
  }
}

TEST(Gpt, ConfigValidation) {
  nn::GptConfig bad = tiny_config(nn::ArchFamily::kNeoX);
  bad.n_heads = 3;  // hidden 16 % 3 != 0 (Eq. 1)
  EXPECT_THROW(nn::GptModel{bad}, Error);
  nn::GptConfig odd = tiny_config(nn::ArchFamily::kNeoX);
  odd.hidden = 6;
  odd.n_heads = 2;  // head dim 3: odd, breaks RoPE pairing
  EXPECT_THROW(nn::GptModel{odd}, Error);
}

TEST(Gpt, ForwardShapesAndDeterminism) {
  nn::GptModel model(tiny_config(nn::ArchFamily::kNeoX));
  const std::vector<std::int32_t> tokens{5, 6, 7, 8, 9, 10};
  Tape t1, t2;
  Var a = model.forward(t1, tokens, 2, 3);
  Var b = model.forward(t2, tokens, 2, 3);
  EXPECT_EQ(a.value().dim(0), 6);
  EXPECT_EQ(a.value().dim(1), 50);
  for (std::int64_t i = 0; i < a.value().numel(); ++i) {
    EXPECT_EQ(a.value()[i], b.value()[i]);
  }
}

TEST(Gpt, BothFamiliesHaveSimilarParamCounts) {
  // The controlled-comparison premise: same spec => ~same parameters.
  nn::GptModel neox(tiny_config(nn::ArchFamily::kNeoX));
  nn::GptModel llama(tiny_config(nn::ArchFamily::kLLaMA));
  const double ratio = static_cast<double>(neox.param_count()) /
                       static_cast<double>(llama.param_count());
  EXPECT_NEAR(ratio, 1.0, 0.05);
}

TEST(Gpt, CausalityLaterTokensDoNotAffectEarlierLogits) {
  nn::GptModel model(tiny_config(nn::ArchFamily::kLLaMA));
  std::vector<std::int32_t> a{3, 4, 5, 6};
  std::vector<std::int32_t> b{3, 4, 49, 1};  // same prefix, different tail
  Tape t1, t2;
  Var la = model.forward(t1, a, 1, 4);
  Var lb = model.forward(t2, b, 1, 4);
  for (std::int64_t c = 0; c < 50; ++c) {
    EXPECT_NEAR(la.value().at(0, c), lb.value().at(0, c), 1e-5);
    EXPECT_NEAR(la.value().at(1, c), lb.value().at(1, c), 1e-5);
  }
}

TEST(Gpt, RopeMakesAttentionPositionAware) {
  // Without positional information, causal attention at the last position
  // sees the same (key, value) multiset for any permutation of the prefix,
  // so the last-row logits would be identical. RoPE must break that.
  nn::GptModel model(tiny_config(nn::ArchFamily::kNeoX));
  std::vector<std::int32_t> fwd{7, 8, 9, 20};
  std::vector<std::int32_t> rev{9, 8, 7, 20};
  Tape t1, t2;
  Var la = model.forward(t1, fwd, 1, 4);
  Var lb = model.forward(t2, rev, 1, 4);
  double diff = 0.0;
  for (std::int64_t c = 0; c < model.config().vocab_size; ++c) {
    diff += std::fabs(la.value().at(3, c) - lb.value().at(3, c));
  }
  EXPECT_GT(diff, 1e-3);
}

class GptFamilyTraining
    : public ::testing::TestWithParam<std::tuple<nn::ArchFamily, bool>> {};

TEST_P(GptFamilyTraining, OverfitsARepeatingPattern) {
  const auto [arch, flash] = GetParam();
  nn::GptConfig c = tiny_config(arch);
  c.flash_attention = flash;
  nn::GptModel model(c);
  // Deterministic next-token pattern: i -> i+1 mod 8 (offset by 10).
  std::vector<std::int32_t> tokens, targets;
  for (int rep = 0; rep < 4; ++rep) {
    for (int i = 0; i < 8; ++i) {
      tokens.push_back(10 + i);
      targets.push_back(10 + (i + 1) % 8);
    }
  }
  optim::Adam opt(model.parameters());
  double first = 0.0, last = 0.0;
  for (int step = 0; step < 60; ++step) {
    Tape tape;
    Var loss = model.loss(tape, tokens, targets, 2, 16);
    if (step == 0) first = loss.item();
    last = loss.item();
    model.zero_grad();
    tape.backward(loss);
    opt.step(3e-3);
  }
  EXPECT_LT(last, first * 0.3) << "training failed to reduce loss";
  EXPECT_LT(last, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Families, GptFamilyTraining,
    ::testing::Values(std::make_tuple(nn::ArchFamily::kNeoX, true),
                      std::make_tuple(nn::ArchFamily::kNeoX, false),
                      std::make_tuple(nn::ArchFamily::kLLaMA, true),
                      std::make_tuple(nn::ArchFamily::kLLaMA, false)));

TEST(Gpt, GenerateExtendsPromptWithinVocab) {
  nn::GptModel model(tiny_config(nn::ArchFamily::kLLaMA));
  Rng rng(9);
  const std::vector<std::int32_t> prompt{1, 2, 3};
  const auto out = model.generate(prompt, 5, 0.8f, rng);
  ASSERT_EQ(out.size(), 8u);
  for (std::int32_t t : out) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 50);
  }
  // Greedy decoding is deterministic.
  const auto g1 = model.generate(prompt, 5, 0.0f, rng);
  const auto g2 = model.generate(prompt, 5, 0.0f, rng);
  EXPECT_EQ(g1, g2);
}

TEST(Gpt, CachedGenerationMatchesFullForwardWithGqa) {
  // Regression: the KV-cache decode path must stay token-identical to the
  // re-forward path when n_kv_heads < n_heads (grouped-query attention).
  nn::GptConfig c = tiny_config(nn::ArchFamily::kLLaMA);
  c.n_kv_heads = 1;  // 2 query heads share one KV head
  nn::GptModel model(c);
  const std::vector<std::int32_t> prompt{4, 8, 15, 16};

  nn::SamplingParams greedy;
  greedy.temperature = 0.0f;
  Rng rg1(7), rg2(7);
  EXPECT_EQ(model.generate(prompt, 6, greedy, rg1),
            model.generate_cached(prompt, 6, greedy, rg2));

  nn::SamplingParams sampled;
  sampled.temperature = 0.8f;
  sampled.top_k = 10;
  sampled.top_p = 0.9f;
  Rng rs1(23), rs2(23);
  EXPECT_EQ(model.generate(prompt, 6, sampled, rs1),
            model.generate_cached(prompt, 6, sampled, rs2));
}

// The weights an inference engine packs in place (prepare_decode_quant)
// give every forward the same logits bytes, and a gradient forward through
// them throws instead of back-propagating through the wrong layout.
bool lm_head_packed(const nn::GptModel& model) {
  for (const auto& p : model.parameters()) {
    if (p.name == "lm_head.weight") return p.var.node()->packed;
  }
  return false;
}

TEST(PackedLinear, PackedModelLogitsMatchUnpackedBytes) {
  for (auto arch : {nn::ArchFamily::kNeoX, nn::ArchFamily::kLLaMA}) {
    nn::GptConfig c = tiny_config(arch);
    c.hidden = 96;  // two panels and a narrow third in every projection
    c.n_heads = 3;
    nn::GptModel row_major(c), packed(c);  // same seed: same weights
    packed.prepare_decode_quant(kernels::WeightFormat::kF32);
    ASSERT_TRUE(lm_head_packed(packed));
    ASSERT_FALSE(lm_head_packed(row_major));
    const std::vector<std::int32_t> tokens{3, 1, 4, 1, 5, 9, 2, 6};
    Tape ta, tb;
    NoGradGuard ga(ta), gb(tb);
    const Var la = row_major.forward(ta, tokens, 2, 4);
    const Var lb = packed.forward(tb, tokens, 2, 4);
    ASSERT_EQ(la.value().numel(), lb.value().numel());
    EXPECT_EQ(0, std::memcmp(la.value().data(), lb.value().data(),
                             sizeof(float) *
                                 static_cast<std::size_t>(la.value().numel())))
        << nn::arch_name(arch);
    Rng r1(5), r2(5);
    EXPECT_EQ(row_major.generate_cached(tokens, 6, 0.8f, r1),
              packed.generate_cached(tokens, 6, 0.8f, r2))
        << nn::arch_name(arch);
  }
}

TEST(PackedLinear, GradientForwardThroughPackedWeightsThrows) {
  nn::GptModel model(tiny_config(nn::ArchFamily::kLLaMA));
  const std::vector<std::int32_t> tokens{1, 2, 3, 4};
  const std::vector<std::int32_t> targets{2, 3, 4, 5};
  {
    Tape tape;
    tape.backward(model.loss(tape, tokens, targets, 1, 4));
  }
  model.prepare_decode_quant(kernels::WeightFormat::kF32);
  Tape tape;
  try {
    model.loss(tape, tokens, targets, 1, 4);
    FAIL() << "a gradient forward through packed weights must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("packed"), std::string::npos)
        << e.what();
  }
  // A second prepare leaves the weights packed once, not re-packed.
  model.prepare_decode_quant(kernels::WeightFormat::kInt8);
  nn::GptModel fresh(tiny_config(nn::ArchFamily::kLLaMA));
  Tape ta, tb;
  NoGradGuard ga(ta), gb(tb);
  const Var la = fresh.forward(ta, tokens, 1, 4);
  const Var lb = model.forward(tb, tokens, 1, 4);
  EXPECT_EQ(0, std::memcmp(la.value().data(), lb.value().data(),
                           sizeof(float) *
                               static_cast<std::size_t>(la.value().numel())));
}

TEST(Sampling, GreedyTieBreaksToLowestTokenId) {
  // Speculative decoding's exact-acceptance contract leans on this: when
  // logits tie, greedy argmax must deterministically pick the LOWEST token
  // id, so the verify path and the plain decode path agree bit for bit.
  const std::vector<float> tied{0.5f, 2.0f, 2.0f, -1.0f, 2.0f};
  EXPECT_EQ(nn::argmax_token(tied), 1);

  const std::vector<float> all_equal(7, 3.25f);
  EXPECT_EQ(nn::argmax_token(all_equal), 0);

  // sample_token at temperature 0 must route through the same argmax.
  nn::SamplingParams greedy;
  greedy.temperature = 0.0f;
  Rng rng(1);
  EXPECT_EQ(nn::sample_token(tied, greedy, rng), 1);
  EXPECT_EQ(nn::sample_token(all_equal, greedy, rng), 0);
}

TEST(Sampling, ArgmaxMatchesMaxElementOnEdgeCases) {
  // argmax_token promises std::max_element's index exactly, including the
  // cases a two-pass max-then-find could get wrong.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const auto max_element_index = [](const std::vector<float>& v) {
    return static_cast<std::int32_t>(std::max_element(v.begin(), v.end()) -
                                     v.begin());
  };
  std::vector<std::vector<float>> cases = {
      {1.0f, 3.0f, 3.0f, 2.0f},                  // tie: first wins
      {nan, 5.0f, 1.0f},                         // NaN at 0 is the answer
      {1.0f, nan, 5.0f, nan, 2.0f},              // NaN elsewhere never is
      {-1.0f, inf, 2.0f, inf},                   // +inf, tied
      {-inf, -inf, -inf},                        // all -inf
      {-inf, -2.0f, -inf},
      {-1.0f, 0.0f, -0.0f},                      // signed zeros compare equal
      {-0.0f, 0.0f},
      {nan},
      {nan, nan, 1.0f},
  };
  // Ties, NaNs and infinities in every position relative to the 8-lane
  // body and its tail.
  for (const std::size_t n : {1u, 7u, 8u, 9u, 16u, 17u, 8192u}) {
    for (const std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
      std::vector<float> v(n);
      for (std::size_t i = 0; i < n; ++i) {
        v[i] = static_cast<float>((i * 37) % 11) - 5.0f;
      }
      v[at] = inf;
      cases.push_back(v);
      v[at] = nan;
      cases.push_back(v);
      v[at] = 5.0f;  // ties the existing maximum
      cases.push_back(v);
    }
  }
  for (std::size_t c = 0; c < cases.size(); ++c) {
    EXPECT_EQ(nn::argmax_token(cases[c]), max_element_index(cases[c]))
        << "case " << c;
  }
}

TEST(Sampling, SamplingProbsIsFilteredRenormalizedDistribution) {
  const std::vector<float> logits{1.0f, 0.0f, -1.0f, 2.0f};
  nn::SamplingParams opts;
  opts.temperature = 1.0f;
  opts.top_k = 2;
  const std::vector<float> probs = nn::sampling_probs(logits, opts);
  ASSERT_EQ(probs.size(), logits.size());
  // Only the top-2 logits (ids 3 and 0) survive the filter.
  EXPECT_EQ(probs[1], 0.0f);
  EXPECT_EQ(probs[2], 0.0f);
  EXPECT_GT(probs[3], probs[0]);
  float sum = 0.0f;
  for (float p : probs) sum += p;
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
}

// The sampler as it was before the one-pass rewrite, kept as the oracle:
// softmax_row at temperature over the whole row, then every id sorted by
// (probability descending, id ascending).
struct OracleRanking {
  std::vector<float> logits;
  std::vector<float> probs;
  std::vector<std::int32_t> order;
};

OracleRanking oracle_rank(const std::vector<float>& logits, float t) {
  OracleRanking r;
  r.logits = logits;
  r.probs = logits;
  for (float& z : r.probs) z /= t;
  kernels::softmax_row(r.probs.data(),
                       static_cast<std::int64_t>(r.probs.size()));
  r.order.resize(logits.size());
  std::iota(r.order.begin(), r.order.end(), 0);
  std::sort(r.order.begin(), r.order.end(),
            [&](std::int32_t a, std::int32_t b) {
              const float pa = r.probs[static_cast<std::size_t>(a)];
              const float pb = r.probs[static_cast<std::size_t>(b)];
              return pa > pb || (pa == pb && a < b);
            });
  return r;
}

// The ids the oracle keeps under (top_k, top_p), those of probability 0
// left out, and the smaller relative margin of the two cuts: how far the
// probabilities at the top-k cut, and the cumulative sums around the top-p
// cut, lie from flipping it. A cut between equal logits has no margin
// problem, since both samplers break the tie by id.
std::set<std::int32_t> oracle_keep(const OracleRanking& r, int top_k,
                                   float top_p, double& margin) {
  const std::size_t n = r.probs.size();
  const auto p = [&](std::size_t rank) {
    return static_cast<double>(
        r.probs[static_cast<std::size_t>(r.order[rank])]);
  };
  std::size_t keep =
      top_k > 0 ? std::min(n, static_cast<std::size_t>(top_k)) : n;
  margin = std::numeric_limits<double>::infinity();
  if (keep < n && p(keep) > 0.0 &&
      r.logits[static_cast<std::size_t>(r.order[keep - 1])] !=
          r.logits[static_cast<std::size_t>(r.order[keep])]) {
    margin = (p(keep - 1) - p(keep)) / p(keep - 1);
  }
  if (top_p < 1.0f) {
    double cumulative = 0.0;
    std::size_t nucleus = 0;
    while (nucleus < keep && cumulative < top_p) cumulative += p(nucleus++);
    const double gap = cumulative >= top_p
                           ? std::min(cumulative - top_p,
                                      top_p - (cumulative - p(nucleus - 1)))
                           : top_p - cumulative;
    margin = std::min(margin, gap / top_p);
    keep = std::max<std::size_t>(1, nucleus);
  }
  std::set<std::int32_t> kept;
  for (std::size_t i = 0; i < keep; ++i) {
    if (p(i) > 0.0) kept.insert(r.order[i]);
  }
  return kept;
}

TEST(Sampling, CandidatesMatchTheSoftmaxAndSortOracle) {
  const float neg_inf = -std::numeric_limits<float>::infinity();
  enum Kind { kNormal1, kNormal8, kTies, kMasked };
  Rng rng(2024);
  std::size_t compared = 0, cut_checked = 0;
  for (const std::int64_t v : {1, 7, 8, 9, 63, 64, 65, 1000, 8192, 8200}) {
    const std::int64_t blocks =
        (v + kernels::kExpBlockIds - 1) / kernels::kExpBlockIds;
    for (const Kind kind : {kNormal1, kNormal8, kTies, kMasked}) {
      std::vector<float> logits(static_cast<std::size_t>(v));
      for (float& x : logits) {
        switch (kind) {
          case kNormal1: x = static_cast<float>(rng.normal()); break;
          case kNormal8: x = static_cast<float>(8.0 * rng.normal()); break;
          case kTies:  // nine values, so every cut falls inside a tie
            x = 0.25f * static_cast<float>(rng.uniform_int(-4, 4));
            break;
          case kMasked:
            x = rng.bernoulli(0.7) ? neg_inf
                                   : static_cast<float>(2.0 * rng.normal());
            break;
        }
      }
      logits[static_cast<std::size_t>(rng.uniform_int(0, v - 1))] = 1.5f;
      const float t = 0.8f;
      const OracleRanking oracle = oracle_rank(logits, t);
      for (const std::int64_t top_k :
           {std::int64_t{0}, std::int64_t{1}, std::int64_t{39},
            std::int64_t{40}, std::int64_t{41}, blocks - 1, blocks,
            blocks + 1, v, v + 7}) {
        if (top_k < 0) continue;
        for (const float top_p : {0.5f, 0.95f, 1.0f}) {
          SCOPED_TRACE(::testing::Message()
                       << "vocab " << v << " kind " << kind << " top_k "
                       << top_k << " top_p " << top_p);
          nn::SamplingParams params;
          params.temperature = t;
          params.top_k = static_cast<int>(top_k);
          params.top_p = top_p;
          std::vector<nn::TokenProb> cands;
          nn::sampling_candidates(logits, params, cands);
          ASSERT_FALSE(cands.empty());
          ++compared;

          const bool filtered = (top_k > 0 && top_k < v) || top_p < 1.0f;
          for (std::size_t i = 0; i < cands.size(); ++i) {
            const float ref =
                oracle.probs[static_cast<std::size_t>(cands[i].id)];
            ASSERT_GT(cands[i].prob, 0.0f);
            ASSERT_LE(std::fabs(cands[i].prob - ref), 1e-6f * ref)
                << "id " << cands[i].id;
            if (i == 0) continue;
            const nn::TokenProb& a = cands[i - 1];
            const nn::TokenProb& b = cands[i];
            if (filtered) {
              ASSERT_TRUE(a.prob > b.prob || (a.prob == b.prob && a.id < b.id))
                  << "rank " << i;
            } else {
              ASSERT_LT(a.id, b.id) << "rank " << i;
            }
          }

          double margin = 0.0;
          const std::set<std::int32_t> kept =
              oracle_keep(oracle, params.top_k, top_p, margin);
          const std::vector<float> probs = nn::sampling_probs(logits, params);
          for (std::size_t id = 0; id < logits.size(); ++id) {
            if (logits[id] == neg_inf) {
              ASSERT_EQ(probs[id], 0.0f) << "id " << id;
            }
          }
          if (margin <= 1e-5) continue;
          ++cut_checked;
          std::set<std::int32_t> got;
          for (const nn::TokenProb& c : cands) got.insert(c.id);
          ASSERT_EQ(got, kept);
          double total = 0.0;
          for (const std::int32_t id : kept) {
            total += oracle.probs[static_cast<std::size_t>(id)];
          }
          for (std::size_t id = 0; id < logits.size(); ++id) {
            const double ref =
                kept.count(static_cast<std::int32_t>(id)) > 0
                    ? static_cast<double>(oracle.probs[id]) / total
                    : 0.0;
            ASSERT_LE(std::fabs(probs[id] - ref), 1e-6 * ref) << "id " << id;
          }
        }
      }
    }
  }
  // The margin skips only the rare near-tie cut.
  EXPECT_GT(cut_checked, compared * 9 / 10);
}

TEST(Sampling, TopPAloneMatchesTheFullSortBytes) {
  // top_k 0 and top_p < 1: the sampler ranks only the ids at or above a
  // power-of-two probability bound. Its candidates (ids, probability bytes,
  // order) must equal the full sort's: scaled_exp_row's probabilities for
  // every id of nonzero probability, sorted by (probability descending, id
  // ascending), cut at the first prefix summing (in double) to top_p. Rows
  // of few distinct values put ties at the bound; widths that are not a
  // multiple of 64 end in a short block; a flat row and a sharp one make
  // the first bound too tight or too loose.
  const float neg_inf = -std::numeric_limits<float>::infinity();
  enum Kind { kNormal3, kNormal1, kTies, kMasked, kFlat, kSharp };
  Rng rng(77);
  std::size_t rows = 0;
  for (const std::int64_t n : {100, 1000, 4097, 8192, 8200}) {
    const std::int64_t blocks =
        (n + kernels::kExpBlockIds - 1) / kernels::kExpBlockIds;
    for (const Kind kind : {kNormal3, kNormal1, kTies, kMasked, kFlat, kSharp}) {
      std::vector<float> logits(static_cast<std::size_t>(n));
      for (float& x : logits) {
        switch (kind) {
          case kNormal3: x = static_cast<float>(3.0 * rng.normal()); break;
          case kNormal1: x = static_cast<float>(rng.normal()); break;
          case kTies:  // block maxima and the bound fall on shared values
            x = 0.5f * static_cast<float>(rng.uniform_int(-3, 3));
            break;
          case kMasked:
            x = rng.bernoulli(0.8) ? neg_inf
                                   : static_cast<float>(2.0 * rng.normal());
            break;
          case kFlat: x = static_cast<float>(0.01 * rng.normal()); break;
          case kSharp: x = static_cast<float>(12.0 * rng.normal()); break;
        }
      }
      for (const float t : {0.8f, 1.0f}) {
        std::vector<float> exps(logits.size());
        std::vector<float> block_max(static_cast<std::size_t>(blocks));
        const double sum = kernels::scaled_exp_row(
            logits.data(), n, t, exps.data(), block_max.data());
        const auto inv = static_cast<float>(1.0 / sum);
        std::vector<nn::TokenProb> ranked;
        for (std::int64_t i = 0; i < n; ++i) {
          const float p = exps[static_cast<std::size_t>(i)] * inv;
          if (p > 0.0f) ranked.push_back({static_cast<std::int32_t>(i), p});
        }
        std::sort(ranked.begin(), ranked.end(),
                  [](const nn::TokenProb& a, const nn::TokenProb& b) {
                    return a.prob > b.prob || (a.prob == b.prob && a.id < b.id);
                  });
        for (const float top_p : {0.1f, 0.5f, 0.9f, 0.95f, 0.999f}) {
          SCOPED_TRACE(::testing::Message() << "n " << n << " kind " << kind
                                            << " t " << t << " top_p "
                                            << top_p);
          double cumulative = 0.0;
          std::size_t size = 0;
          while (size < ranked.size() && cumulative < top_p) {
            cumulative += ranked[size++].prob;
          }
          const std::vector<nn::TokenProb> expect(
              ranked.begin(),
              ranked.begin() +
                  static_cast<std::ptrdiff_t>(std::max<std::size_t>(1, size)));
          nn::SamplingParams params;
          params.temperature = t;
          params.top_k = 0;
          params.top_p = top_p;
          std::vector<nn::TokenProb> got;
          nn::sampling_candidates(logits, params, got);
          ASSERT_EQ(got.size(), expect.size());
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].id, expect[i].id) << "rank " << i;
            ASSERT_EQ(std::memcmp(&got[i].prob, &expect[i].prob,
                                  sizeof(float)),
                      0)
                << "rank " << i;
          }
          ++rows;
        }
      }
    }
  }
  EXPECT_EQ(rows, 5u * 6u * 2u * 5u);
}

TEST(Sampling, StochasticDrawsMatchTheOracleDraws) {
  // One uniform per draw either way, so the two samplers pick the same id
  // unless it lands within ~1e-7 of a bucket edge. Without a filter the
  // new sampler walks ids in id order.
  const std::int64_t v = 8192;
  Rng gen(5);
  std::vector<float> logits(static_cast<std::size_t>(v));
  for (const bool filter : {true, false}) {
    nn::SamplingParams params;
    params.temperature = 0.8f;
    if (filter) {
      params.top_k = 40;
      params.top_p = 0.95f;
    }
    Rng a(9), b(9);
    OracleRanking oracle;
    int same = 0;
    constexpr int kDraws = 2000;
    for (int d = 0; d < kDraws; ++d) {
      if (d % 100 == 0) {
        for (float& x : logits) x = static_cast<float>(3.0 * gen.normal());
        oracle = oracle_rank(logits, params.temperature);
      }
      std::vector<double> weights;
      std::vector<std::int32_t> ids;
      if (filter) {
        // The oracle's walk: the top 40 ranks, cut at the 0.95 nucleus.
        std::size_t keep = 40;
        double cumulative = 0.0;
        std::size_t nucleus = 0;
        while (nucleus < keep && cumulative < params.top_p) {
          cumulative += oracle.probs[static_cast<std::size_t>(
              oracle.order[nucleus++])];
        }
        keep = std::max<std::size_t>(1, nucleus);
        ids.assign(oracle.order.begin(),
                   oracle.order.begin() + static_cast<std::ptrdiff_t>(keep));
      } else {
        ids.resize(logits.size());
        std::iota(ids.begin(), ids.end(), 0);
      }
      for (const std::int32_t id : ids) {
        weights.push_back(oracle.probs[static_cast<std::size_t>(id)]);
      }
      const std::int32_t want = ids[b.categorical(weights)];
      same += nn::sample_token(logits, params, a) == want ? 1 : 0;
    }
    EXPECT_GE(same, kDraws - 2) << "filter " << filter;
  }
}

TEST(Sampling, MaskedIdsAreNeverDrawn) {
  const float neg_inf = -std::numeric_limits<float>::infinity();
  const std::size_t v = 8192;
  std::vector<float> logits(v, neg_inf);
  const std::set<std::int32_t> finite{17, 4000, 8191};
  logits[17] = 0.0f;
  logits[4000] = 0.5f;
  logits[8191] = 1.0f;
  nn::SamplingParams params;
  params.temperature = 0.8f;
  params.top_k = 40;
  params.top_p = 0.95f;
  const std::vector<float> probs = nn::sampling_probs(logits, params);
  for (std::size_t id = 0; id < v; ++id) {
    if (finite.count(static_cast<std::int32_t>(id)) == 0) {
      ASSERT_EQ(probs[id], 0.0f) << "id " << id;
    }
  }

  // The same three ids through the grammar mask, over a row of finite
  // logits that favour every other id.
  std::vector<float> dense(v, 5.0f);
  std::vector<std::uint8_t> allowed(v, 0);
  for (const std::int32_t id : finite) {
    dense[static_cast<std::size_t>(id)] = logits[static_cast<std::size_t>(id)];
    allowed[static_cast<std::size_t>(id)] = 1;
  }
  std::vector<float> scratch;
  for (const float top_p : {0.8f, 1.0f}) {
    params.top_p = top_p;
    std::set<std::int32_t> drawn, drawn_masked;
    Rng rng(3);
    for (int d = 0; d < 10000; ++d) {
      drawn.insert(nn::sample_token(logits, params, rng));
      drawn_masked.insert(
          nn::sample_token_masked(dense, allowed, params, rng, scratch));
    }
    EXPECT_EQ(drawn_masked, drawn);
    if (top_p == 1.0f) {
      EXPECT_EQ(drawn, finite);
    } else {
      // Id 17 (probability 0.16) lies outside the 0.8 nucleus.
      EXPECT_EQ(drawn, (std::set<std::int32_t>{4000, 8191}));
    }
  }
}

TEST(Sampling, NonFiniteRowsThrow) {
  // A NaN or +inf logit, or a row with no finite logit, has no
  // distribution: every stochastic entry point throws Error (the draw
  // always did, from Rng::categorical's weight check). Greedy decoding
  // still answers, as argmax_token defines.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const std::size_t v : {1u, 9u, 8192u}) {
    for (const int top_k : {0, 40}) {
      nn::SamplingParams params;
      params.temperature = 0.8f;
      params.top_k = top_k;
      std::vector<std::vector<float>> rows;
      for (const std::size_t at : {std::size_t{0}, v / 2, v - 1}) {
        for (const float bad : {nan, inf}) {
          std::vector<float> row(v, 0.25f);
          row[at] = bad;
          rows.push_back(row);
        }
      }
      rows.emplace_back(v, -inf);
      const std::vector<std::uint8_t> allowed(v, 1);
      std::vector<float> scratch;
      for (std::size_t r = 0; r < rows.size(); ++r) {
        SCOPED_TRACE(::testing::Message()
                     << "vocab " << v << " top_k " << top_k << " row " << r);
        Rng rng(1);
        EXPECT_THROW(nn::sample_token(rows[r], params, rng), Error);
        EXPECT_THROW(nn::sample_token_masked(rows[r], allowed, params, rng,
                                             scratch),
                     Error);
        EXPECT_THROW(nn::sampling_probs(rows[r], params), Error);
        EXPECT_NO_THROW(nn::sample_token(
            rows[r], nn::SamplingParams::greedy_params(), rng));
      }
    }
  }
}

TEST(Gpt, LossIgnoresMaskedTargets) {
  nn::GptModel model(tiny_config(nn::ArchFamily::kNeoX));
  const std::vector<std::int32_t> tokens{1, 2, 3, 4};
  const std::vector<std::int32_t> t_all{2, 3, 4, 5};
  const std::vector<std::int32_t> t_mask{2, -1, -1, 5};
  Tape t1, t2;
  const float all = model.loss(t1, tokens, t_all, 1, 4).item();
  const float masked = model.loss(t2, tokens, t_mask, 1, 4).item();
  EXPECT_NE(all, masked);
}

TEST(Bert, EncodeIsBidirectional) {
  nn::BertConfig c;
  c.vocab_size = 50;
  c.hidden = 16;
  c.n_layers = 2;
  c.n_heads = 2;
  c.max_seq = 8;
  nn::BertEncoder bert(c);
  // Changing the LAST token must change the FIRST position's hidden state
  // (non-causal attention sees the whole sequence).
  std::vector<std::int32_t> a{3, 4, 5, 6};
  std::vector<std::int32_t> b{3, 4, 5, 49};
  Tape t1, t2;
  Var ha = bert.encode(t1, a, 1, 4);
  Var hb = bert.encode(t2, b, 1, 4);
  double diff = 0.0;
  for (std::int64_t cidx = 0; cidx < c.hidden; ++cidx) {
    diff += std::fabs(ha.value().at(0, cidx) - hb.value().at(0, cidx));
  }
  EXPECT_GT(diff, 1e-4);
}

TEST(Bert, MlmTrainingReducesLoss) {
  nn::BertConfig c;
  c.vocab_size = 30;
  c.hidden = 16;
  c.n_layers = 1;
  c.n_heads = 2;
  c.max_seq = 16;
  nn::BertEncoder bert(c);
  Rng rng(5);
  std::vector<std::int32_t> text;
  for (int i = 0; i < 16; ++i) text.push_back(10 + i % 4);
  optim::Adam opt(bert.parameters());
  double first = 0.0, last = 0.0;
  for (int step = 0; step < 50; ++step) {
    auto [input, target] =
        nn::apply_mlm_mask(text, tok::SpecialTokens::kMask, 0.3f, rng);
    Tape tape;
    Var loss = bert.mlm_loss(tape, input, target, 1, 16);
    if (step == 0) first = loss.item();
    last = loss.item();
    bert.zero_grad();
    tape.backward(loss);
    opt.step(3e-3);
  }
  EXPECT_LT(last, first * 0.6);
}

TEST(Bert, EmbedReturnsHiddenWidthVector) {
  nn::BertConfig c;
  c.vocab_size = 50;
  c.hidden = 24;
  c.n_layers = 1;
  c.n_heads = 2;
  c.max_seq = 8;
  nn::BertEncoder bert(c);
  const std::vector<std::int32_t> tokens{1, 2, 3};
  const auto e = bert.embed(tokens);
  EXPECT_EQ(e.size(), 24u);
}

TEST(Bert, MlmMaskAlwaysSupervisesSomething) {
  Rng rng(11);
  const std::vector<std::int32_t> tokens{5, 6, 7};
  for (int trial = 0; trial < 50; ++trial) {
    auto [input, target] =
        nn::apply_mlm_mask(tokens, tok::SpecialTokens::kMask, 0.05f, rng);
    int supervised = 0;
    for (std::size_t i = 0; i < target.size(); ++i) {
      if (target[i] != -1) {
        ++supervised;
        EXPECT_EQ(input[i], tok::SpecialTokens::kMask);
        EXPECT_EQ(target[i], tokens[i]);
      }
    }
    EXPECT_GE(supervised, 1);
  }
}

}  // namespace
}  // namespace matgpt
