// Tests for the extension features beyond the paper's headline experiments:
// grouped-query attention (LLaMA-2's inference tweak, which the paper cites
// as the architecture's evolution), checkpoint serialization, and ZeRO
// stages 2/3 in the memory/communication model.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "grad_check.h"
#include "nn/gpt.h"
#include "nn/serialize.h"
#include "optim/optimizer.h"
#include "simfrontier/parallelism.h"
#include "tensor/ops.h"

namespace matgpt {
namespace {

// ---- grouped-query attention ------------------------------------------------

TEST(Gqa, MatchesMhaWhenKvHeadsEqualQueryHeads) {
  Rng rng(3);
  Tensor q0 = Tensor::randn({1, 5, 4, 6}, rng);
  Tensor k0 = Tensor::randn({1, 5, 4, 6}, rng);
  Tensor v0 = Tensor::randn({1, 5, 4, 6}, rng);
  Tape t1;
  Var out = ops::attention(t1, t1.leaf(q0, false), t1.leaf(k0, false),
                           t1.leaf(v0, false), true, true);
  EXPECT_EQ(out.value().shape(), q0.shape());
}

TEST(Gqa, SharedKvHeadsGiveIdenticalOutputsAcrossAGroup) {
  // With 1 kv head, every query head attends to the same keys/values; if
  // all query heads carry identical content, their outputs must coincide.
  Rng rng(5);
  Tensor qrow = Tensor::randn({1, 4, 1, 6}, rng);
  Tensor q0({1, 4, 2, 6});
  for (std::int64_t t = 0; t < 4; ++t) {
    for (std::int64_t h = 0; h < 2; ++h) {
      for (std::int64_t d = 0; d < 6; ++d) {
        q0.at(0, t, h, d) = qrow.at(0, t, 0, d);
      }
    }
  }
  Tensor k0 = Tensor::randn({1, 4, 1, 6}, rng);
  Tensor v0 = Tensor::randn({1, 4, 1, 6}, rng);
  Tape tape;
  Var out = ops::attention(tape, tape.leaf(q0, false), tape.leaf(k0, false),
                           tape.leaf(v0, false), true, true);
  for (std::int64_t t = 0; t < 4; ++t) {
    for (std::int64_t d = 0; d < 6; ++d) {
      EXPECT_NEAR(out.value().at(0, t, 0, d), out.value().at(0, t, 1, d),
                  1e-6);
    }
  }
}

TEST(Gqa, FlashAndMaterializedAgree) {
  Rng rng(7);
  Tensor q0 = Tensor::randn({2, 6, 4, 4}, rng);
  Tensor k0 = Tensor::randn({2, 6, 2, 4}, rng);  // 2 kv heads for 4 q heads
  Tensor v0 = Tensor::randn({2, 6, 2, 4}, rng);
  const Tensor w = Tensor::randn({2, 6, 4, 4}, rng);
  auto run = [&](bool flash) {
    Tape tape;
    Var q = tape.leaf(q0.clone(), true);
    Var k = tape.leaf(k0.clone(), true);
    Var v = tape.leaf(v0.clone(), true);
    Var out = ops::attention(tape, q, k, v, true, flash);
    Var wl = tape.leaf(w.clone(), false);
    Var loss = ops::sum_all(tape, ops::mul(tape, out, wl));
    tape.backward(loss);
    return std::make_tuple(out.value().clone(), q.grad().clone(),
                           k.grad().clone(), v.grad().clone());
  };
  const auto [om, qm, km, vm] = run(false);
  const auto [of, qf, kf, vf] = run(true);
  for (std::int64_t i = 0; i < om.numel(); ++i) {
    EXPECT_NEAR(om[i], of[i], 1e-4);
  }
  for (std::int64_t i = 0; i < km.numel(); ++i) {
    EXPECT_NEAR(km[i], kf[i], 1e-3);
    EXPECT_NEAR(vm[i], vf[i], 1e-3);
  }
  (void)qm;
  (void)qf;
}

TEST(Gqa, GradientsAreCorrect) {
  Rng rng(9);
  Tape t0;
  std::vector<Var> leaves{t0.leaf(Tensor::randn({1, 4, 4, 3}, rng, 0, 0.5f),
                                  true),
                          t0.leaf(Tensor::randn({1, 4, 2, 3}, rng, 0, 0.5f),
                                  true),
                          t0.leaf(Tensor::randn({1, 4, 2, 3}, rng, 0, 0.5f),
                                  true)};
  const Tensor w = Tensor::randn({1, 4, 4, 3}, rng);
  testing::check_gradients(leaves, [&](Tape& tape) {
    Var out = ops::attention(tape, leaves[0], leaves[1], leaves[2], true,
                             true);
    Var wl = tape.leaf(w.clone(), false);
    return ops::sum_all(tape, ops::mul(tape, out, wl));
  });
}

TEST(Gqa, RejectsNonDividingKvHeads) {
  Rng rng(11);
  Tape tape;
  Var q = tape.leaf(Tensor::randn({1, 4, 4, 4}, rng), false);
  Var k = tape.leaf(Tensor::randn({1, 4, 3, 4}, rng), false);
  Var v = tape.leaf(Tensor::randn({1, 4, 3, 4}, rng), false);
  EXPECT_THROW(ops::attention(tape, q, k, v, true, true), Error);
}

TEST(Gqa, ModelShrinksKvProjectionsAndStillTrains) {
  nn::GptConfig mha;
  mha.vocab_size = 40;
  mha.hidden = 32;
  mha.n_layers = 2;
  mha.n_heads = 4;
  mha.max_seq = 16;
  nn::GptConfig gqa = mha;
  gqa.n_kv_heads = 2;
  nn::GptModel m_mha(mha);
  nn::GptModel m_gqa(gqa);
  EXPECT_LT(m_gqa.param_count(), m_mha.param_count());
  // GQA model must still learn a pattern.
  std::vector<std::int32_t> tokens, targets;
  for (int rep = 0; rep < 2; ++rep) {
    for (int i = 0; i < 8; ++i) {
      tokens.push_back(10 + i);
      targets.push_back(10 + (i + 1) % 8);
    }
  }
  optim::Adam opt(m_gqa.parameters());
  double first = 0.0, last = 0.0;
  for (int step = 0; step < 50; ++step) {
    Tape tape;
    Var loss = m_gqa.loss(tape, tokens, targets, 1, 16);
    if (step == 0) first = loss.item();
    last = loss.item();
    m_gqa.zero_grad();
    tape.backward(loss);
    opt.step(3e-3);
  }
  EXPECT_LT(last, first * 0.5);
}

TEST(Gqa, ConfigValidation) {
  nn::GptConfig c;
  c.vocab_size = 40;
  c.hidden = 32;
  c.n_layers = 1;
  c.n_heads = 4;
  c.n_kv_heads = 3;  // does not divide 4
  EXPECT_THROW(c.validate(), Error);
}

// ---- KV-cache incremental decoding -----------------------------------------

nn::GptConfig decode_config(nn::ArchFamily arch, std::int64_t kv_heads) {
  nn::GptConfig c;
  c.arch = arch;
  c.vocab_size = 60;
  c.hidden = 32;
  c.n_layers = 2;
  c.n_heads = 4;
  c.n_kv_heads = kv_heads;
  c.max_seq = 32;
  return c;
}

class KvCacheDecode
    : public ::testing::TestWithParam<std::tuple<nn::ArchFamily, int>> {};

TEST_P(KvCacheDecode, MatchesFullReforwardGeneration) {
  const auto [arch, kv] = GetParam();
  nn::GptModel model(decode_config(arch, kv));
  const std::vector<std::int32_t> prompt{5, 9, 13};
  for (float temperature : {0.0f, 0.8f}) {
    Rng r1(77), r2(77);
    const auto full = model.generate(prompt, 12, temperature, r1);
    const auto cached = model.generate_cached(prompt, 12, temperature, r2);
    EXPECT_EQ(full, cached) << nn::arch_name(arch) << " kv=" << kv
                            << " temp=" << temperature;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ArchAndKv, KvCacheDecode,
    ::testing::Values(std::make_tuple(nn::ArchFamily::kNeoX, 0),
                      std::make_tuple(nn::ArchFamily::kLLaMA, 0),
                      std::make_tuple(nn::ArchFamily::kLLaMA, 1),
                      std::make_tuple(nn::ArchFamily::kNeoX, 2)));

TEST(KvCacheDecode, IncrementalLogitsMatchFullForward) {
  nn::GptModel model(decode_config(nn::ArchFamily::kLLaMA, 2));
  const std::vector<std::int32_t> tokens{3, 7, 11, 15, 19};
  // Full forward over the whole sequence.
  Tape full_tape;
  const Var full = model.forward(full_tape, tokens, 1, 5);
  // Prefill 3, then decode two single tokens.
  nn::KvCache cache;
  Tape t1;
  const std::vector<std::int32_t> prefix(tokens.begin(), tokens.begin() + 3);
  model.forward_incremental(t1, prefix, cache);
  Tape t2;
  const std::int32_t fourth = tokens[3];
  model.forward_incremental(t2, std::span<const std::int32_t>(&fourth, 1),
                            cache);
  Tape t3;
  const std::int32_t fifth = tokens[4];
  const Var last = model.forward_incremental(
      t3, std::span<const std::int32_t>(&fifth, 1), cache);
  EXPECT_EQ(cache.length(), 5);
  for (std::int64_t vidx = 0; vidx < model.config().vocab_size; ++vidx) {
    EXPECT_NEAR(last.value().at(0, vidx), full.value().at(4, vidx), 1e-4);
  }
}

TEST(KvCacheDecode, GqaShrinksTheCache) {
  nn::GptModel mha(decode_config(nn::ArchFamily::kLLaMA, 0));
  nn::GptModel gqa(decode_config(nn::ArchFamily::kLLaMA, 1));
  const std::vector<std::int32_t> prompt{1, 2, 3, 4};
  nn::KvCache cache_mha, cache_gqa;
  Tape t1, t2;
  mha.forward_incremental(t1, prompt, cache_mha);
  gqa.forward_incremental(t2, prompt, cache_gqa);
  EXPECT_EQ(cache_mha.length(), cache_gqa.length());
  EXPECT_NEAR(cache_mha.arena()->layout().block_bytes_bf16() /
                  cache_gqa.arena()->layout().block_bytes_bf16(),
              4.0, 1e-9);
}

TEST(KvCacheDecode, EnforcesContract) {
  nn::GptModel model(decode_config(nn::ArchFamily::kNeoX, 0));
  nn::KvCache cache;
  Tape t1;
  const std::vector<std::int32_t> prompt{1, 2};
  model.forward_incremental(t1, prompt, cache);
  // Multi-token append onto a primed cache is a partial prefill (the
  // prefix-cache restore path): the suffix lands bit-identically to a cold
  // prefill of the whole sequence.
  Tape t2, t3;
  const std::vector<std::int32_t> suffix{3, 4};
  Var hot = model.forward_incremental(t2, suffix, cache);
  EXPECT_EQ(cache.length(), 4);
  nn::KvCache cold_cache;
  const std::vector<std::int32_t> full{1, 2, 3, 4};
  Var cold = model.forward_incremental(t3, full, cold_cache);
  for (std::int64_t v = 0; v < model.config().vocab_size; ++v) {
    ASSERT_EQ(hot.value().at(0, v), cold.value().at(0, v)) << "vocab " << v;
  }
  // Window overflow is rejected up front.
  Rng rng(1);
  const std::vector<std::int32_t> long_prompt(16, 1);
  EXPECT_THROW(model.generate_cached(long_prompt, 20, 0.0f, rng), Error);
}

// ---- checkpoint serialization -------------------------------------------------

nn::GptConfig ckpt_config() {
  nn::GptConfig c;
  c.vocab_size = 50;
  c.hidden = 16;
  c.n_layers = 2;
  c.n_heads = 2;
  c.max_seq = 16;
  return c;
}

TEST(Serialize, RoundTripRestoresExactWeights) {
  nn::GptModel a(ckpt_config());
  std::stringstream buffer;
  nn::save_parameters(a, buffer);

  nn::GptConfig c2 = ckpt_config();
  c2.seed = 999;  // different init — must be fully overwritten
  nn::GptModel b(c2);
  nn::load_parameters(b, buffer);

  const auto pa = a.parameters();
  const auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::int64_t j = 0; j < pa[i].var.value().numel(); ++j) {
      ASSERT_EQ(pa[i].var.value()[j], pb[i].var.value()[j])
          << pa[i].name << "[" << j << "]";
    }
  }
  // Identical weights => identical logits.
  const std::vector<std::int32_t> tokens{1, 2, 3, 4};
  Tape t1, t2;
  Var la = a.forward(t1, tokens, 1, 4);
  Var lb = b.forward(t2, tokens, 1, 4);
  for (std::int64_t i = 0; i < la.value().numel(); ++i) {
    ASSERT_EQ(la.value()[i], lb.value()[i]);
  }
}

TEST(Serialize, RejectsArchitectureMismatch) {
  nn::GptModel a(ckpt_config());
  std::stringstream buffer;
  nn::save_parameters(a, buffer);
  nn::GptConfig other = ckpt_config();
  other.hidden = 32;  // different shape
  nn::GptModel b(other);
  EXPECT_THROW(nn::load_parameters(b, buffer), Error);
}

TEST(Serialize, RejectsGarbageAndTruncation) {
  nn::GptModel m(ckpt_config());
  std::stringstream garbage("not a checkpoint");
  EXPECT_THROW(nn::load_parameters(m, garbage), Error);

  std::stringstream buffer;
  nn::save_parameters(m, buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(nn::load_parameters(m, truncated), Error);
}

TEST(Serialize, FileRoundTrip) {
  nn::GptModel a(ckpt_config());
  const std::string path = "/tmp/matgpt_ckpt_test.bin";
  nn::save_parameters_file(a, path);
  nn::GptConfig c2 = ckpt_config();
  c2.seed = 4242;
  nn::GptModel b(c2);
  nn::load_parameters_file(b, path);
  EXPECT_EQ(a.parameters()[0].var.value()[0],
            b.parameters()[0].var.value()[0]);
  EXPECT_THROW(nn::load_parameters_file(b, "/nonexistent/path"), Error);
}

// ---- sampling strategies --------------------------------------------------------

TEST(Sampling, GreedyPicksArgmax) {
  Rng rng(1);
  const std::vector<float> logits{0.1f, 2.5f, -1.0f, 2.4f};
  nn::SamplingParams greedy;
  greedy.temperature = 0.0f;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(nn::sample_token(logits, greedy, rng), 1);
  }
}

TEST(Sampling, TopKRestrictsSupport) {
  Rng rng(2);
  const std::vector<float> logits{5.0f, 4.0f, 3.0f, -10.0f, -10.0f};
  nn::SamplingParams opts;
  opts.temperature = 2.0f;  // flatten so the tail would get sampled
  opts.top_k = 2;
  for (int i = 0; i < 200; ++i) {
    const auto t = nn::sample_token(logits, opts, rng);
    EXPECT_TRUE(t == 0 || t == 1) << t;
  }
}

TEST(Sampling, TopPKeepsTheNucleus) {
  Rng rng(3);
  // Probabilities ~ (0.87, 0.12, tiny...): top_p = 0.9 keeps two tokens.
  const std::vector<float> logits{4.0f, 2.0f, -3.0f, -3.0f};
  nn::SamplingParams opts;
  opts.top_p = 0.9f;
  for (int i = 0; i < 200; ++i) {
    const auto t = nn::sample_token(logits, opts, rng);
    EXPECT_TRUE(t == 0 || t == 1) << t;
  }
}

TEST(Sampling, TemperatureSharpensDistribution) {
  Rng r1(4), r2(4);
  const std::vector<float> logits{1.0f, 0.0f};
  nn::SamplingParams cold, hot;
  cold.temperature = 0.2f;
  hot.temperature = 5.0f;
  int cold_zero = 0, hot_zero = 0;
  for (int i = 0; i < 500; ++i) {
    cold_zero += nn::sample_token(logits, cold, r1) == 0;
    hot_zero += nn::sample_token(logits, hot, r2) == 0;
  }
  EXPECT_GT(cold_zero, 480);            // nearly deterministic
  EXPECT_LT(hot_zero, 350);             // near uniform
  EXPECT_GT(hot_zero, 150);
}

TEST(Sampling, Validation) {
  Rng rng(5);
  const std::vector<float> logits{1.0f};
  nn::SamplingParams bad;
  bad.top_p = 0.0f;
  EXPECT_THROW(nn::sample_token(logits, bad, rng), Error);
  bad.top_p = 1.0f;
  bad.top_k = -1;
  EXPECT_THROW(nn::sample_token(logits, bad, rng), Error);
}

TEST(Sampling, GenerateAcceptsOptionsAndStaysCachedEquivalent) {
  nn::GptModel model(decode_config(nn::ArchFamily::kLLaMA, 2));
  nn::SamplingParams opts;
  opts.temperature = 0.9f;
  opts.top_k = 8;
  opts.top_p = 0.95f;
  const std::vector<std::int32_t> prompt{4, 8};
  Rng r1(9), r2(9);
  const auto full = model.generate(prompt, 10, opts, r1);
  const auto cached = model.generate_cached(prompt, 10, opts, r2);
  EXPECT_EQ(full, cached);
}

// ---- ZeRO stages 2/3 ------------------------------------------------------------

TEST(ZeroStages, MemoryShardsProgressively) {
  sim::MemoryModel mm((sim::Platform()));
  const auto m = sim::ModelDesc::matgpt_6_7b(sim::ArchFamily::kNeoX);
  auto mem = [&](int stage) {
    return mm.training_memory(m, 1, 2048, sim::AttentionImpl::kFlashV2,
                              sim::ParallelConfig{8, 1, 1, stage});
  };
  const auto s0 = mem(0);
  const auto s1 = mem(1);
  const auto s2 = mem(2);
  const auto s3 = mem(3);
  EXPECT_NEAR(s1.optimizer_bytes, s0.optimizer_bytes / 8.0, 1.0);
  EXPECT_EQ(s1.grad_bytes, s0.grad_bytes);
  EXPECT_NEAR(s2.grad_bytes, s0.grad_bytes / 8.0, 1.0);
  EXPECT_EQ(s2.param_bytes, s0.param_bytes);
  EXPECT_NEAR(s3.param_bytes, s0.param_bytes / 8.0, 1.0);
  EXPECT_GT(s0.total(), s1.total());
  EXPECT_GT(s1.total(), s2.total());
  EXPECT_GT(s2.total(), s3.total());
}

TEST(ZeroStages, Stage3PaysExtraCommunication) {
  sim::TrainingSimulator sim((sim::Platform()));
  const auto m = sim::ModelDesc::matgpt_6_7b(sim::ArchFamily::kNeoX);
  const auto s1 = sim.simulate_step(m, {64, 1, 1, 1}, 8192, 2048,
                                    sim::AttentionImpl::kFlashV2);
  const auto s2 = sim.simulate_step(m, {64, 1, 1, 2}, 8192, 2048,
                                    sim::AttentionImpl::kFlashV2);
  const auto s3 = sim.simulate_step(m, {64, 1, 1, 3}, 8192, 2048,
                                    sim::AttentionImpl::kFlashV2);
  EXPECT_NEAR(s2.comm_s, s1.comm_s, 1e-9);  // same wire traffic
  EXPECT_GT(s3.comm_s, s1.comm_s * 1.3);    // + parameter allgather
  EXPECT_GT(s3.messages.total_transferred_bytes(),
            s1.messages.total_transferred_bytes());
}

TEST(ZeroStages, BraceInitWithTrueSelectsStageOne) {
  // The paper's "ZeRO=1" configurations are written {dp, tp, pp, true}.
  const sim::ParallelConfig cfg{8, 1, 1, true};
  EXPECT_EQ(cfg.zero_stage, 1);
  EXPECT_EQ(cfg.describe(), "ZeRO=1 DP=8");
}

}  // namespace
}  // namespace matgpt
