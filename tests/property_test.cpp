// Property-based tests: invariants that must hold across randomized inputs
// and parameter sweeps, spanning modules.

#include <gtest/gtest.h>

#include <cmath>

#include "data/materials.h"
#include "optim/optimizer.h"
#include "simfrontier/parallelism.h"
#include "tensor/ops.h"
#include "tokenizer/bpe.h"

namespace matgpt {
namespace {

// ---- tokenizer fuzz -----------------------------------------------------------

class TokenizerFuzz : public ::testing::TestWithParam<tok::TokenizerKind> {};

TEST_P(TokenizerFuzz, RandomPrintableStringsRoundTrip) {
  const auto tk = tok::BpeTokenizer::train(
      {"some training text with LiFePO4 and GaAs formulas",
       "the band gap of TiO2 is large"},
      GetParam(), 300);
  Rng rng(41);
  for (int trial = 0; trial < 40; ++trial) {
    std::string s;
    const auto len = 1 + rng.uniform_int(std::uint64_t{40});
    for (std::size_t i = 0; i < len; ++i) {
      s += static_cast<char>(33 + rng.uniform_int(std::uint64_t{94}));
    }
    EXPECT_EQ(tk.decode(tk.encode(s)), s) << "input: " << s;
  }
}

TEST_P(TokenizerFuzz, EncodingIsPrefixStableAcrossWordBoundaries) {
  // Adding a word never changes the ids of the words before it (merges
  // cannot cross whitespace).
  const auto tk = tok::BpeTokenizer::train(
      {"alpha beta gamma delta epsilon alpha beta"}, GetParam(), 290);
  const auto a = tk.encode("alpha beta");
  const auto b = tk.encode("alpha beta gamma");
  ASSERT_LE(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, TokenizerFuzz,
                         ::testing::Values(tok::TokenizerKind::kHuggingFace,
                                           tok::TokenizerKind::kSentencePiece));

// ---- RoPE relative-position property --------------------------------------------

TEST(RopeProperty, ScoresDependOnlyOnRelativePosition) {
  // For q at position t and k at position s, the rotated dot product must be
  // a function of (t - s) only — the defining property of RoPE.
  Rng rng(7);
  const std::int64_t T = 8, D = 8;
  Tensor qbase = Tensor::randn({1, 1, 1, D}, rng);
  Tensor kbase = Tensor::randn({1, 1, 1, D}, rng);
  // Broadcast the same content to every position.
  Tensor q({1, T, 1, D}), k({1, T, 1, D});
  for (std::int64_t t = 0; t < T; ++t) {
    for (std::int64_t d = 0; d < D; ++d) {
      q.at(0, t, 0, d) = qbase.at(0, 0, 0, d);
      k.at(0, t, 0, d) = kbase.at(0, 0, 0, d);
    }
  }
  Tape tape;
  Var qr = ops::rope(tape, tape.leaf(q, false));
  Var kr = ops::rope(tape, tape.leaf(k, false));
  auto score = [&](std::int64_t t, std::int64_t s) {
    double acc = 0.0;
    for (std::int64_t d = 0; d < D; ++d) {
      acc += static_cast<double>(qr.value().at(0, t, 0, d)) *
             kr.value().at(0, s, 0, d);
    }
    return acc;
  };
  // Same offset => same score, regardless of absolute position.
  for (std::int64_t delta = 0; delta < 4; ++delta) {
    const double ref = score(delta, 0);
    for (std::int64_t base = 1; base + delta < T; ++base) {
      EXPECT_NEAR(score(base + delta, base), ref, 1e-4)
          << "delta " << delta << " base " << base;
    }
  }
  // Different offsets give different scores (position is actually encoded).
  EXPECT_GT(std::fabs(score(1, 0) - score(5, 0)), 1e-6);
}

// ---- simulator monotonicity -----------------------------------------------------

TEST(SimProperty, CollectiveTimeMonotoneInBytesAndGroup) {
  sim::NetworkModel nm((sim::Platform()));
  double prev = 0.0;
  for (double bytes : {1e6, 1e7, 1e8, 1e9}) {
    const double t =
        nm.collective_time(sim::Collective::kAllReduce, bytes, 16);
    EXPECT_GT(t, prev);
    prev = t;
  }
  prev = 0.0;
  for (int g : {2, 8, 32, 128}) {
    const double t =
        nm.collective_time(sim::Collective::kAllReduce, 1e8, g);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(SimProperty, MemoryMonotoneInSeqAndBatch) {
  sim::MemoryModel mm((sim::Platform()));
  const auto m = sim::ModelDesc::matgpt_1_7b(sim::ArchFamily::kNeoX);
  double prev = 0.0;
  for (std::int64_t seq : {1024, 2048, 4096, 8192}) {
    const auto mem = mm.training_memory(m, 1, seq,
                                        sim::AttentionImpl::kFlashV1, {});
    EXPECT_GT(mem.total(), prev);
    prev = mem.total();
  }
  prev = 0.0;
  for (std::int64_t b : {1, 2, 4, 8}) {
    const auto mem = mm.training_memory(m, b, 2048,
                                        sim::AttentionImpl::kFlashV1, {});
    EXPECT_GT(mem.total(), prev);
    prev = mem.total();
  }
}

TEST(SimProperty, PerGcdThroughputNeverImprovesWithScale) {
  // Fixed per-GCD work: adding GPUs can only add communication.
  sim::TrainingSimulator sim((sim::Platform()));
  const auto m = sim::ModelDesc::matgpt_6_7b(sim::ArchFamily::kNeoX);
  double prev = 1e18;
  for (int g : {8, 16, 32, 64, 128, 256, 512}) {
    const auto p = sim.simulate_step(m, {g, 1, 1, true}, 8192, 2048,
                                     sim::AttentionImpl::kFlashV2);
    EXPECT_LE(p.per_gcd_tflops, prev + 1e-9) << g;
    prev = p.per_gcd_tflops;
  }
}

TEST(SimProperty, FlashNeverSlowerAndNeverMoreMemory) {
  sim::TrainingSimulator sim((sim::Platform()));
  sim::MemoryModel mm((sim::Platform()));
  for (std::int64_t hidden : {2048, 2304, 4096}) {
    const sim::ModelDesc m{sim::ArchFamily::kNeoX, hidden, 24, hidden / 96,
                           52000};
    if (m.head_dim() % 8 != 0) continue;
    const auto base = sim.kernels().achieved_tflops(
        m, 8, 2048, sim::AttentionImpl::kMaterialized);
    const auto flash = sim.kernels().achieved_tflops(
        m, 8, 2048, sim::AttentionImpl::kFlashV1);
    EXPECT_GE(flash, base) << hidden;
    const auto mem_base = mm.training_memory(
        m, 1, 4096, sim::AttentionImpl::kMaterialized, {});
    const auto mem_flash =
        mm.training_memory(m, 1, 4096, sim::AttentionImpl::kFlashV1, {});
    EXPECT_LE(mem_flash.total(), mem_base.total());
  }
}

// ---- schedule and physics properties ---------------------------------------------

TEST(ScheduleProperty, LrAlwaysWithinBounds) {
  optim::CosineSchedule s(0.01, 500, 0.02, 0.1);
  for (std::int64_t t = 0; t < 500; ++t) {
    EXPECT_GT(s.lr(t), 0.0);
    EXPECT_LE(s.lr(t), 0.01 + 1e-12);
    if (t >= s.warmup_steps()) {
      EXPECT_GE(s.lr(t), 0.001 - 1e-12);  // the 10% floor
    }
  }
}

TEST(BandGapProperty, GapGrowsWithElectronegativitySpread) {
  // Pairing lithium with progressively more electronegative anions must
  // monotonically open the gap (the ionic term of the model).
  const auto li = *data::element_index("Li");
  double prev = -1.0;
  for (const char* anion : {"Sb", "Se", "S", "O", "F"}) {
    const auto a = *data::element_index(anion);
    const auto m = data::MaterialGenerator::from_composition({{li, 1},
                                                              {a, 1}});
    EXPECT_GT(m.band_gap_ev, prev - 0.3)
        << anion << " should not close the gap much";
    prev = std::max(prev, m.band_gap_ev);
  }
  EXPECT_GT(prev, 2.0);  // LiF-like compounds must be insulating
}

TEST(QuantizeProperty, RoundingIsIdempotentAndMonotone) {
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const auto x = static_cast<float>(rng.normal(0.0, 100.0));
    const float b = round_bf16(x);
    EXPECT_EQ(round_bf16(b), b);
    const float h = round_fp16(x);
    EXPECT_EQ(round_fp16(h), h);
    // Rounding moves by at most half a grid step (relative).
    EXPECT_NEAR(b, x, std::fabs(x) / 128.0f + 1e-6f);
  }
}

}  // namespace
}  // namespace matgpt
