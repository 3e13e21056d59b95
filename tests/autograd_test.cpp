// Gradient-correctness tests: every differentiable op is validated against
// central finite differences, plus structural tests of the tape mechanics,
// an equivalence test between flash and materialized attention, and the
// byte identity of paged decode attention with contiguous attention.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>
#include <vector>

#include "common/rng.h"
#include "grad_check.h"
#include "tensor/ops.h"

namespace matgpt {
namespace {

using testing::check_gradients;

Var weighted_sum(Tape& tape, const Var& x, const Tensor& weights) {
  Var w = tape.leaf(weights.clone().reshape(x.value().shape()), false);
  return ops::sum_all(tape, ops::mul(tape, x, w));
}

class OpGradients : public ::testing::Test {
 protected:
  Rng rng_{12345};

  Var make_leaf(Tape& tape, std::vector<std::int64_t> shape,
                float stddev = 1.0f) {
    return tape.leaf(Tensor::randn(std::move(shape), rng_, 0.0f, stddev),
                     true);
  }
};

TEST_F(OpGradients, Add) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {2, 3}), make_leaf(t0, {2, 3})};
  const Tensor w = Tensor::randn({2, 3}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::add(tape, leaves[0], leaves[1]), w);
  });
}

TEST_F(OpGradients, AddBias) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {4, 3}), make_leaf(t0, {3})};
  const Tensor w = Tensor::randn({4, 3}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::add_bias(tape, leaves[0], leaves[1]), w);
  });
}

TEST_F(OpGradients, Mul) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {3, 2}), make_leaf(t0, {3, 2})};
  const Tensor w = Tensor::randn({3, 2}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::mul(tape, leaves[0], leaves[1]), w);
  });
}

TEST_F(OpGradients, Scale) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {5})};
  const Tensor w = Tensor::randn({5}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::scale(tape, leaves[0], -1.7f), w);
  });
}

TEST_F(OpGradients, Matmul) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {3, 4}), make_leaf(t0, {4, 2})};
  const Tensor w = Tensor::randn({3, 2}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::matmul(tape, leaves[0], leaves[1]), w);
  });
}

TEST_F(OpGradients, Reshape) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {2, 6})};
  const Tensor w = Tensor::randn({12}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::reshape(tape, leaves[0], {3, 4}), w);
  });
}

TEST_F(OpGradients, Embedding) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {5, 3})};
  const std::vector<std::int32_t> ids{1, 4, 1, 0};
  const Tensor w = Tensor::randn({4, 3}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::embedding(tape, leaves[0], ids), w);
  });
}

TEST_F(OpGradients, GatherRows) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {4, 2})};
  const Tensor w = Tensor::randn({3, 2}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::gather_rows(tape, leaves[0], {2, 2, 0}), w);
  });
}

TEST_F(OpGradients, ScatterAddRows) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {4, 3})};
  const Tensor w = Tensor::randn({2, 3}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(
        tape, ops::scatter_add_rows(tape, leaves[0], {0, 1, 0, 1}, 2), w);
  });
}

TEST_F(OpGradients, SliceRows) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {5, 2})};
  const Tensor w = Tensor::randn({2, 2}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::slice_rows(tape, leaves[0], 1, 3), w);
  });
}

TEST_F(OpGradients, ConcatCols) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {3, 2}), make_leaf(t0, {3, 4})};
  const Tensor w = Tensor::randn({3, 6}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::concat_cols(tape, leaves[0], leaves[1]), w);
  });
}

TEST_F(OpGradients, MeanRows) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {4, 3})};
  const Tensor w = Tensor::randn({1, 3}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::mean_rows(tape, leaves[0]), w);
  });
}

TEST_F(OpGradients, LayerNorm) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {3, 8}), make_leaf(t0, {8}),
                          make_leaf(t0, {8})};
  const Tensor w = Tensor::randn({3, 8}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(
        tape, ops::layer_norm(tape, leaves[0], leaves[1], leaves[2]), w);
  });
}

TEST_F(OpGradients, RmsNorm) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {3, 8}), make_leaf(t0, {8})};
  const Tensor w = Tensor::randn({3, 8}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::rms_norm(tape, leaves[0], leaves[1]), w);
  });
}

TEST_F(OpGradients, Activations) {
  for (auto op : {&ops::gelu, &ops::silu, &ops::sigmoid, &ops::tanh_act}) {
    Tape t0;
    std::vector<Var> leaves{make_leaf(t0, {2, 5})};
    const Tensor w = Tensor::randn({2, 5}, rng_);
    check_gradients(leaves, [&](Tape& tape) {
      return weighted_sum(tape, op(tape, leaves[0]), w);
    });
  }
}

TEST_F(OpGradients, ReluAwayFromKink) {
  Tape t0;
  // Keep inputs away from zero so finite differences are valid.
  Tensor init = Tensor::randn({2, 5}, rng_);
  for (std::int64_t i = 0; i < init.numel(); ++i) {
    if (std::fabs(init[i]) < 0.2f) init[i] = 0.5f;
  }
  std::vector<Var> leaves{t0.leaf(init, true)};
  const Tensor w = Tensor::randn({2, 5}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::relu(tape, leaves[0]), w);
  });
}

TEST_F(OpGradients, Rope) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {2, 3, 2, 4})};
  const Tensor w = Tensor::randn({2, 3, 2, 4}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape, ops::rope(tape, leaves[0]), w);
  });
}

TEST_F(OpGradients, RopePartialRotation) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {1, 4, 1, 8})};
  const Tensor w = Tensor::randn({1, 4, 1, 8}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape,
                        ops::rope(tape, leaves[0], 10000.0f,
                                  /*rotary_fraction=*/0.5f),
                        w);
  });
}

TEST_F(OpGradients, AttentionMaterialized) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {1, 4, 2, 3}, 0.5f),
                          make_leaf(t0, {1, 4, 2, 3}, 0.5f),
                          make_leaf(t0, {1, 4, 2, 3}, 0.5f)};
  const Tensor w = Tensor::randn({1, 4, 2, 3}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape,
                        ops::attention(tape, leaves[0], leaves[1], leaves[2],
                                       /*causal=*/true, /*flash=*/false),
                        w);
  });
}

TEST_F(OpGradients, AttentionFlash) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {1, 4, 2, 3}, 0.5f),
                          make_leaf(t0, {1, 4, 2, 3}, 0.5f),
                          make_leaf(t0, {1, 4, 2, 3}, 0.5f)};
  const Tensor w = Tensor::randn({1, 4, 2, 3}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape,
                        ops::attention(tape, leaves[0], leaves[1], leaves[2],
                                       /*causal=*/true, /*flash=*/true),
                        w);
  });
}

TEST_F(OpGradients, AttentionNonCausal) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {1, 3, 1, 4}, 0.5f),
                          make_leaf(t0, {1, 3, 1, 4}, 0.5f),
                          make_leaf(t0, {1, 3, 1, 4}, 0.5f)};
  const Tensor w = Tensor::randn({1, 3, 1, 4}, rng_);
  check_gradients(leaves, [&](Tape& tape) {
    return weighted_sum(tape,
                        ops::attention(tape, leaves[0], leaves[1], leaves[2],
                                       /*causal=*/false, /*flash=*/true),
                        w);
  });
}

TEST_F(OpGradients, CrossEntropy) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {4, 5})};
  const std::vector<std::int32_t> targets{0, 3, 2, 4};
  check_gradients(leaves, [&](Tape& tape) {
    return ops::cross_entropy(tape, leaves[0], targets);
  });
}

TEST_F(OpGradients, CrossEntropyIgnoreIndex) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {4, 5})};
  const std::vector<std::int32_t> targets{0, -1, 2, -1};
  check_gradients(leaves, [&](Tape& tape) {
    return ops::cross_entropy(tape, leaves[0], targets, -1);
  });
}

TEST_F(OpGradients, MseLoss) {
  Tape t0;
  std::vector<Var> leaves{make_leaf(t0, {6})};
  const std::vector<float> targets{0.5f, -1.0f, 2.0f, 0.0f, 1.0f, -0.5f};
  check_gradients(leaves, [&](Tape& tape) {
    return ops::mse_loss(tape, leaves[0], targets);
  });
}

// ---- tape mechanics ---------------------------------------------------------

TEST(Tape, GradAccumulatesAcrossFanOut) {
  Tape tape;
  Var x = tape.leaf(Tensor::from_data({1}, {3.0f}), true);
  Var y = ops::add(tape, x, x);  // y = 2x
  Var loss = ops::sum_all(tape, y);
  tape.backward(loss);
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
}

TEST(Tape, NoGradGuardSkipsRecording) {
  Tape tape;
  Var x = tape.leaf(Tensor::from_data({1}, {2.0f}), true);
  {
    NoGradGuard guard(tape);
    Var y = ops::scale(tape, x, 3.0f);
    EXPECT_FALSE(y.requires_grad());
  }
  EXPECT_EQ(tape.op_count(), 0u);
  EXPECT_TRUE(tape.recording());
}

TEST(Tape, BackwardRequiresScalarLoss) {
  Tape tape;
  Var x = tape.leaf(Tensor::from_data({2}, {1.0f, 2.0f}), true);
  Var y = ops::scale(tape, x, 2.0f);
  EXPECT_THROW(tape.backward(y), Error);
}

TEST(Tape, LeafWithoutGradGetsNone) {
  Tape tape;
  Var a = tape.leaf(Tensor::from_data({2}, {1, 2}), false);
  Var b = tape.leaf(Tensor::from_data({2}, {3, 4}), true);
  Var loss = ops::sum_all(tape, ops::mul(tape, a, b));
  tape.backward(loss);
  EXPECT_FALSE(a.grad().defined());
  ASSERT_TRUE(b.grad().defined());
  EXPECT_FLOAT_EQ(b.grad()[0], 1.0f);
}

// ---- flash vs. materialized equivalence ------------------------------------

class FlashEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool>> {};

TEST_P(FlashEquivalence, ForwardAndBackwardMatch) {
  const auto [t, h, d, causal] = GetParam();
  Rng rng(99);
  Tensor q0 = Tensor::randn({2, t, h, d}, rng);
  Tensor k0 = Tensor::randn({2, t, h, d}, rng);
  Tensor v0 = Tensor::randn({2, t, h, d}, rng);
  const Tensor w = Tensor::randn({2, t, h, d}, rng);

  auto run = [&](bool flash) {
    Tape tape;
    Var q = tape.leaf(q0.clone(), true);
    Var k = tape.leaf(k0.clone(), true);
    Var v = tape.leaf(v0.clone(), true);
    Var out = ops::attention(tape, q, k, v, causal, flash);
    Var loss = weighted_sum(tape, out, w);
    tape.backward(loss);
    return std::make_tuple(out.value().clone(), q.grad().clone(),
                           k.grad().clone(), v.grad().clone());
  };
  const auto [o_m, qg_m, kg_m, vg_m] = run(false);
  const auto [o_f, qg_f, kg_f, vg_f] = run(true);
  for (std::int64_t i = 0; i < o_m.numel(); ++i) {
    EXPECT_NEAR(o_m[i], o_f[i], 1e-4) << "output " << i;
    EXPECT_NEAR(qg_m[i], qg_f[i], 1e-3) << "dq " << i;
    EXPECT_NEAR(kg_m[i], kg_f[i], 1e-3) << "dk " << i;
    EXPECT_NEAR(vg_m[i], vg_f[i], 1e-3) << "dv " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FlashEquivalence,
    ::testing::Values(std::make_tuple(1, 1, 4, true),
                      std::make_tuple(5, 2, 3, true),
                      std::make_tuple(8, 1, 8, true),
                      std::make_tuple(8, 4, 2, false),
                      std::make_tuple(16, 2, 4, true)));

// ---- paged decode attention vs. contiguous attention ------------------------

// decode_attention reads each row's history through a block table; row tq of
// a causal attention() over the same K/V must come out byte-identical, for
// any block size, any block order in memory, and GQA.
TEST(PagedAttention, DecodeRowsMatchContiguousAttentionBytes) {
  const std::int64_t t = 20, hq = 4, hkv = 2, d = 12;
  Rng rng(31);
  const Tensor q0 = Tensor::randn({1, t, hq, d}, rng);
  const Tensor k0 = Tensor::randn({1, t, hkv, d}, rng);
  const Tensor v0 = Tensor::randn({1, t, hkv, d}, rng);
  std::mt19937 shuffle_rng(5);
  const std::int64_t width = hkv * d;
  for (const bool flash : {true, false}) {
    Tape ref_tape;
    const Var ref = ops::attention(ref_tape, ref_tape.leaf(q0.clone(), false),
                                   ref_tape.leaf(k0.clone(), false),
                                   ref_tape.leaf(v0.clone(), false),
                                   /*causal=*/true, flash);
    for (const std::int64_t bt : {1, 3, 16}) {
      const std::int64_t n_blocks = (t + bt - 1) / bt;
      std::vector<std::int64_t> perm(static_cast<std::size_t>(n_blocks));
      std::iota(perm.begin(), perm.end(), 0);
      std::shuffle(perm.begin(), perm.end(), shuffle_rng);
      // Slots past the history stay NaN: a read of one would show.
      std::vector<float> k_pool(static_cast<std::size_t>(n_blocks * bt * width),
                                std::nanf(""));
      std::vector<float> v_pool = k_pool;
      std::vector<const float*> kb, vb;
      for (const std::int64_t p : perm) {
        kb.push_back(k_pool.data() + p * bt * width);
        vb.push_back(v_pool.data() + p * bt * width);
      }
      for (std::int64_t tk = 0; tk < t; ++tk) {
        const std::int64_t dst =
            (perm[static_cast<std::size_t>(tk / bt)] * bt + tk % bt) * width;
        std::copy_n(k0.data() + tk * width, width, k_pool.data() + dst);
        std::copy_n(v0.data() + tk * width, width, v_pool.data() + dst);
      }
      std::vector<ops::RaggedKv> kv(static_cast<std::size_t>(t));
      for (std::int64_t tq = 0; tq < t; ++tq) {
        kv[static_cast<std::size_t>(tq)] = {tq + 1, kb.data(), vb.data(), bt};
      }
      Tape tape;
      const Var q = tape.leaf(q0.clone().reshape({t, hq, d}), false);
      const Var out = ops::decode_attention(tape, q, kv, hkv, flash);
      for (std::int64_t tq = 0; tq < t; ++tq) {
        ASSERT_EQ(0, std::memcmp(out.value().data() + tq * hq * d,
                                 ref.value().data() + tq * hq * d,
                                 sizeof(float) * hq * d))
            << "flash=" << flash << " block_tokens=" << bt << " row " << tq;
      }
    }
  }
}

// A batch long enough that decode_attention splits its (row, head) pairs
// over the thread pool: every row still matches the serial contiguous
// attention() byte for byte.
TEST(PagedAttention, SplitOverRowsAndHeadsMatchesContiguousAttentionBytes) {
  const std::int64_t t = 160, hq = 8, hkv = 2, d = 32, bt = 16;
  Rng rng(37);
  const Tensor q0 = Tensor::randn({1, t, hq, d}, rng);
  const Tensor k0 = Tensor::randn({1, t, hkv, d}, rng);
  const Tensor v0 = Tensor::randn({1, t, hkv, d}, rng);
  // Row tq attends over tq + 1 cached rows straight out of k0/v0, viewed
  // as blocks of bt rows.
  std::vector<const float*> kb, vb;
  for (std::int64_t b0 = 0; b0 < t; b0 += bt) {
    kb.push_back(k0.data() + b0 * hkv * d);
    vb.push_back(v0.data() + b0 * hkv * d);
  }
  std::vector<ops::RaggedKv> kv(static_cast<std::size_t>(t));
  for (std::int64_t tq = 0; tq < t; ++tq) {
    ops::RaggedKv& h = kv[static_cast<std::size_t>(tq)];
    h.len = tq + 1;
    h.k_blocks = kb.data();
    h.v_blocks = vb.data();
    h.block_tokens = bt;
  }
  for (const bool flash : {true, false}) {
    Tape ref_tape;
    const Var ref = ops::attention(ref_tape, ref_tape.leaf(q0.clone(), false),
                                   ref_tape.leaf(k0.clone(), false),
                                   ref_tape.leaf(v0.clone(), false),
                                   /*causal=*/true, flash);
    Tape tape;
    const Var q = tape.leaf(q0.clone().reshape({t, hq, d}), false);
    const Var out = ops::decode_attention(tape, q, kv, hkv, flash);
    ASSERT_EQ(0, std::memcmp(out.value().data(), ref.value().data(),
                             sizeof(float) * t * hq * d))
        << "flash=" << flash;
  }
}

TEST(FlashMemory, FlashUsesLessActivationMemory) {
  // The structural claim behind Fig. 5: materialized attention allocates the
  // [B, H, T, T] probability tensor, flash only the [B, H, T] logsumexp.
  Rng rng(7);
  const int t = 64;
  Tensor q0 = Tensor::randn({1, t, 2, 8}, rng);
  auto peak_for = [&](bool flash) {
    auto& tracker = MemoryTracker::instance();
    tracker.reset_peak();
    const std::size_t before = tracker.current_bytes();
    Tape tape;
    Var q = tape.leaf(q0.clone(), true);
    Var k = tape.leaf(q0.clone(), true);
    Var v = tape.leaf(q0.clone(), true);
    Var out = ops::attention(tape, q, k, v, true, flash);
    Var loss = ops::sum_all(tape, out);
    tape.backward(loss);
    return tracker.peak_bytes() - before;
  };
  const std::size_t peak_materialized = peak_for(false);
  const std::size_t peak_flash = peak_for(true);
  // Materialized stores 2*T*T floats (probs tensor); flash stores 2*T.
  EXPECT_GT(peak_materialized, peak_flash + t * t * 4u);
}

TEST(Dropout, MaskScalesAndZeroes) {
  Rng rng(3);
  Tape tape;
  Var x = tape.leaf(Tensor::full({1000}, 1.0f), true);
  Var y = ops::dropout(tape, x, 0.25f, rng, /*training=*/true);
  int zeros = 0;
  double sum = 0.0;
  for (std::int64_t i = 0; i < y.value().numel(); ++i) {
    const float v = y.value()[i];
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0f / 0.75f, 1e-6);
    }
    sum += v;
  }
  EXPECT_NEAR(zeros / 1000.0, 0.25, 0.05);
  EXPECT_NEAR(sum / 1000.0, 1.0, 0.1);  // inverted dropout preserves E[x]
}

TEST(Dropout, IdentityWhenNotTraining) {
  Rng rng(3);
  Tape tape;
  Var x = tape.leaf(Tensor::full({10}, 2.0f), true);
  Var y = ops::dropout(tape, x, 0.5f, rng, /*training=*/false);
  EXPECT_EQ(y.node().get(), x.node().get());
}

}  // namespace
}  // namespace matgpt
