// Unit tests for Tensor storage/views, dtype emulation, raw GEMM kernels,
// and the memory tracker.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "tensor/dtype.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace matgpt {
namespace {

TEST(Tensor, ZerosShapeAndValues) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.ndim(), 2);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.dim(-1), 3);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FromDataValidatesCount) {
  EXPECT_THROW(Tensor::from_data({2, 2}, {1.0f, 2.0f}), Error);
  Tensor t = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(t.at(1, 0), 3.0f);
}

TEST(Tensor, ReshapeSharesStorage) {
  Tensor t = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor v = t.reshape({3, 2});
  v.at(0, 0) = 99.0f;
  EXPECT_FLOAT_EQ(t.at(0, 0), 99.0f);
}

TEST(Tensor, ReshapeInfersDimension) {
  Tensor t({4, 6});
  EXPECT_EQ(t.reshape({-1, 8}).dim(0), 3);
  EXPECT_EQ(t.reshape({2, -1}).dim(1), 12);
  EXPECT_THROW(t.reshape({-1, -1}), Error);
  EXPECT_THROW(t.reshape({5, 5}), Error);
}

TEST(Tensor, CloneIsDeep) {
  Tensor t = Tensor::from_data({2}, {1, 2});
  Tensor c = t.clone();
  c[0] = 50.0f;
  EXPECT_FLOAT_EQ(t[0], 1.0f);
}

TEST(Tensor, PrefixViewSharesLeadingStorage) {
  Tensor t = Tensor::from_data({4, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor v = t.prefix_view({2, 2});
  EXPECT_EQ(v.numel(), 4);
  EXPECT_EQ(v.data(), t.data());  // zero-copy over the leading prefix
  EXPECT_FLOAT_EQ(v.at(1, 1), 4.0f);
  v.at(0, 0) = 99.0f;
  EXPECT_FLOAT_EQ(t.at(0, 0), 99.0f);
  EXPECT_THROW(t.prefix_view({5, 2}), Error);
}

TEST(Tensor, PrefixViewReductionsIgnoreBackingTail) {
  Tensor t = Tensor::from_data({4}, {1, 2, 3, 1000});
  Tensor v = t.prefix_view({3});
  EXPECT_DOUBLE_EQ(v.sum(), 6.0);
  EXPECT_FLOAT_EQ(v.max_abs(), 3.0f);
  Tensor c = v.clone();
  EXPECT_EQ(c.numel(), 3);  // clone copies the view, not the slab
  EXPECT_DOUBLE_EQ(c.sum(), 6.0);
}

TEST(Tensor, Transposed2d) {
  Tensor t = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor tt = t.transposed_2d();
  EXPECT_EQ(tt.dim(0), 3);
  EXPECT_EQ(tt.dim(1), 2);
  EXPECT_FLOAT_EQ(tt.at(2, 1), 6.0f);
  EXPECT_FLOAT_EQ(tt.at(0, 1), 4.0f);
}

TEST(Tensor, InplaceArithmetic) {
  Tensor a = Tensor::from_data({3}, {1, 2, 3});
  Tensor b = Tensor::from_data({3}, {10, 20, 30});
  a.add_(b, 0.5f);
  EXPECT_FLOAT_EQ(a[0], 6.0f);
  a.scale_(2.0f);
  EXPECT_FLOAT_EQ(a[2], 36.0f);
  a.fill_(7.0f);
  EXPECT_FLOAT_EQ(a[1], 7.0f);
}

TEST(Tensor, NormsAndReductions) {
  Tensor t = Tensor::from_data({2, 2}, {3, 4, 0, 0});
  EXPECT_DOUBLE_EQ(t.l2_norm(), 5.0);
  EXPECT_DOUBLE_EQ(t.sum(), 7.0);
  EXPECT_FLOAT_EQ(t.max_abs(), 4.0f);
  Tensor n = Tensor::from_data({1}, {-9.0f});
  EXPECT_FLOAT_EQ(n.max_abs(), 9.0f);
}

TEST(Tensor, DotProduct) {
  Tensor a = Tensor::from_data({3}, {1, 2, 3});
  Tensor b = Tensor::from_data({3}, {4, 5, 6});
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
}

TEST(Tensor, UndefinedAccessThrows) {
  Tensor t;
  EXPECT_FALSE(t.defined());
  EXPECT_THROW(t.data(), Error);
}

TEST(Tensor, RandnMoments) {
  Rng rng(1);
  Tensor t = Tensor::randn({10000}, rng, 1.0f, 0.5f);
  double mean = t.sum() / static_cast<double>(t.numel());
  EXPECT_NEAR(mean, 1.0, 0.03);
}

TEST(MemoryTracker, TracksAllocAndPeak) {
  auto& tracker = MemoryTracker::instance();
  const std::size_t base = tracker.current_bytes();
  tracker.reset_peak();
  {
    Tensor big({1024});
    EXPECT_EQ(tracker.current_bytes(), base + 4096);
    EXPECT_GE(tracker.peak_bytes(), base + 4096);
  }
  EXPECT_EQ(tracker.current_bytes(), base);
}

TEST(MemoryTracker, ViewsDoNotDoubleCount) {
  auto& tracker = MemoryTracker::instance();
  const std::size_t base = tracker.current_bytes();
  Tensor t({256});
  Tensor v = t.reshape({16, 16});
  EXPECT_EQ(tracker.current_bytes(), base + 1024);
}

TEST(DType, BFloat16RoundTripPreservesCoarseValues) {
  // Values representable in bf16 survive exactly.
  EXPECT_EQ(round_bf16(1.0f), 1.0f);
  EXPECT_EQ(round_bf16(-2.5f), -2.5f);
  // Fine values move to the nearest bf16 (relative error < 2^-8).
  const float x = 1.2345678f;
  const float r = round_bf16(x);
  EXPECT_NEAR(r, x, x / 128.0f);
  // Idempotence: rounding twice changes nothing.
  EXPECT_EQ(round_bf16(r), r);
}

TEST(DType, BFloat16KeepsNaNsAndTheirSign) {
  // Signalling, all-ones and minimal payloads used to carry into the
  // exponent or sign (0x7f800001 rounded to +inf, 0x7fffffff to -0).
  for (const std::uint32_t bits :
       {0x7f800001u, 0x7fffffffu, 0xffffffffu, 0xff800001u, 0x7fc00000u}) {
    const float r = round_bf16(std::bit_cast<float>(bits));
    EXPECT_TRUE(std::isnan(r)) << std::hex << bits;
    EXPECT_EQ(std::signbit(r), (bits >> 31) != 0) << std::hex << bits;
  }
}

TEST(DType, Float16Behaviour) {
  EXPECT_EQ(round_fp16(1.0f), 1.0f);
  EXPECT_EQ(round_fp16(0.5f), 0.5f);
  // Max finite fp16.
  EXPECT_EQ(round_fp16(65504.0f), 65504.0f);
  // Overflow saturates to infinity (the fp16 hazard bf16 avoids).
  EXPECT_TRUE(std::isinf(round_fp16(70000.0f)));
  EXPECT_TRUE(std::isinf(round_fp16(-70000.0f)));
  // Subnormal quantization.
  const float tiny = 3e-8f;
  const float r = round_fp16(tiny);
  EXPECT_NEAR(r, tiny, 0x1.0p-24f);
  // Idempotence.
  EXPECT_EQ(round_fp16(r), r);
}

TEST(DType, BF16HasWiderRangeThanFP16) {
  // The paper trains in bfloat16 for numerical stability: large magnitudes
  // overflow fp16 but not bf16.
  const float big = 1e20f;
  EXPECT_TRUE(std::isfinite(round_bf16(big)));
  EXPECT_TRUE(std::isinf(round_fp16(big)));
}

TEST(DType, QuantizeTensorInPlace) {
  Tensor t = Tensor::from_data({2}, {1.2345678f, 70000.0f});
  Tensor b = t.clone();
  b.quantize_(DType::kBFloat16);
  EXPECT_NE(b[0], t[0]);
  EXPECT_TRUE(std::isfinite(b[1]));
  Tensor h = t.clone();
  h.quantize_(DType::kFloat16);
  EXPECT_TRUE(std::isinf(h[1]));
}

// ---- GEMM kernels against a naive reference --------------------------------

void naive_gemm(const Tensor& a, const Tensor& b, Tensor& c) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t l = 0; l < k; ++l) {
        acc += static_cast<double>(a.at(i, l)) * b.at(l, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
}

class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(GemmShapes, AllVariantsMatchReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 1000 + n * 100 + k));
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor expect({m, n});
  naive_gemm(a, b, expect);

  Tensor c_nn({m, n});
  kernels::gemm_nn(a.data(), b.data(), c_nn.data(), m, n, k, false);
  Tensor at = a.transposed_2d();
  Tensor c_tn({m, n});
  kernels::gemm_tn(at.data(), b.data(), c_tn.data(), m, n, k, false);
  Tensor bt = b.transposed_2d();
  Tensor c_nt({m, n});
  kernels::gemm_nt(a.data(), bt.data(), c_nt.data(), m, n, k, false);

  for (std::int64_t i = 0; i < expect.numel(); ++i) {
    EXPECT_NEAR(c_nn[i], expect[i], 1e-3) << "gemm_nn element " << i;
    EXPECT_NEAR(c_tn[i], expect[i], 1e-3) << "gemm_tn element " << i;
    EXPECT_NEAR(c_nt[i], expect[i], 1e-3) << "gemm_nt element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(8, 8, 8), std::make_tuple(16, 2, 32),
                      std::make_tuple(33, 17, 9), std::make_tuple(64, 64, 64),
                      std::make_tuple(1, 128, 1), std::make_tuple(100, 1, 50)));

TEST(Gemm, AccumulateAddsOntoExisting) {
  Tensor a = Tensor::from_data({1, 2}, {1, 2});
  Tensor b = Tensor::from_data({2, 1}, {3, 4});
  Tensor c = Tensor::from_data({1, 1}, {100});
  kernels::gemm_nn(a.data(), b.data(), c.data(), 1, 1, 2, true);
  EXPECT_FLOAT_EQ(c[0], 111.0f);
  kernels::gemm_nn(a.data(), b.data(), c.data(), 1, 1, 2, false);
  EXPECT_FLOAT_EQ(c[0], 11.0f);
}

TEST(Kernels, SoftmaxRowNormalizesAndIsStable) {
  std::vector<float> row{1000.0f, 1001.0f, 1002.0f};  // would overflow naively
  kernels::softmax_row(row.data(), 3);
  double sum = 0.0;
  for (float v : row) {
    EXPECT_TRUE(std::isfinite(v));
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_GT(row[2], row[1]);
  EXPECT_GT(row[1], row[0]);
}

TEST(Kernels, LogSumExpMatchesDirectComputation) {
  std::vector<float> row{0.1f, -0.5f, 2.0f};
  double direct = std::log(std::exp(0.1) + std::exp(-0.5) + std::exp(2.0));
  EXPECT_NEAR(kernels::logsumexp_row(row.data(), 3), direct, 1e-6);
  // Stability at large magnitudes.
  std::vector<float> big{500.0f, 500.0f};
  EXPECT_NEAR(kernels::logsumexp_row(big.data(), 2), 500.0 + std::log(2.0),
              1e-4);
}

TEST(Kernels, ScaledExpRowMatchesStdExpToTheSmallestSubnormal) {
  // Widths around the 8-lane body, its tail and the 64-id blocks; values
  // spread over the whole underflow range, -inf among them.
  const float neg_inf = -std::numeric_limits<float>::infinity();
  const float tiny = std::numeric_limits<float>::denorm_min();
  Rng rng(17);
  for (const std::int64_t n : {1, 7, 8, 9, 63, 64, 65, 200, 8192, 8200}) {
    for (const float t : {1.0f, 0.8f}) {
      std::vector<float> x(static_cast<std::size_t>(n));
      for (float& v : x) {
        v = static_cast<float>(rng.uniform(-115.0, 5.0)) * t;
        if (rng.bernoulli(0.05)) v = neg_inf;
      }
      x[static_cast<std::size_t>(n / 2)] = 5.0f * t;  // one finite maximum
      const std::int64_t blocks =
          (n + kernels::kExpBlockIds - 1) / kernels::kExpBlockIds;
      std::vector<float> out(x.size());
      std::vector<float> block_max(static_cast<std::size_t>(blocks));
      const double sum =
          kernels::scaled_exp_row(x.data(), n, t, out.data(), block_max.data());

      float mx = neg_inf;
      for (float v : x) mx = std::max(mx, v);
      mx /= t;
      double ref_sum = 0.0;
      for (std::size_t i = 0; i < x.size(); ++i) {
        const float ref = std::exp(x[i] / t - mx);
        ref_sum += ref;
        if (x[i] == neg_inf) {
          EXPECT_EQ(out[i], 0.0f) << "n " << n << " id " << i;
        } else {
          EXPECT_LE(std::fabs(out[i] - ref), 3e-7f * ref + 2.0f * tiny)
              << "n " << n << " id " << i << " z " << x[i] / t - mx;
        }
      }
      EXPECT_EQ(out[static_cast<std::size_t>(n / 2)], 1.0f);
      EXPECT_NEAR(sum, ref_sum, 1e-6 * ref_sum);
      for (std::int64_t b = 0; b < blocks; ++b) {
        const auto lo = out.begin() + b * kernels::kExpBlockIds;
        const auto hi =
            out.begin() + std::min(n, (b + 1) * kernels::kExpBlockIds);
        EXPECT_EQ(block_max[static_cast<std::size_t>(b)],
                  *std::max_element(lo, hi));
      }
      // The same row gives the same bytes.
      std::vector<float> again(x.size()), again_max(block_max.size());
      EXPECT_EQ(kernels::scaled_exp_row(x.data(), n, t, again.data(),
                                        again_max.data()),
                sum);
      EXPECT_EQ(0, std::memcmp(again.data(), out.data(),
                               sizeof(float) * out.size()));
    }
  }
}

TEST(Kernels, ScaledExpRowSumIsNanWithoutAFiniteMaximum) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const std::size_t n : {1u, 9u, 64u, 100u}) {
    for (const std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
      std::vector<float> x(n, 0.5f), out(n), block_max((n + 63) / 64);
      const auto run = [&] {
        return kernels::scaled_exp_row(x.data(), static_cast<std::int64_t>(n),
                                       0.8f, out.data(), block_max.data());
      };
      x[at] = nan;
      EXPECT_TRUE(std::isnan(run())) << "NaN, n " << n << " at " << at;
      x[at] = inf;
      EXPECT_TRUE(std::isnan(run())) << "+inf, n " << n << " at " << at;
    }
    std::vector<float> x(n, -inf), out(n), block_max((n + 63) / 64);
    EXPECT_TRUE(std::isnan(kernels::scaled_exp_row(
        x.data(), static_cast<std::int64_t>(n), 1.0f, out.data(),
        block_max.data())))
        << "all -inf, n " << n;
  }
}

}  // namespace
}  // namespace matgpt
