// Unit tests for the two NN GEMM paths and src/tensor/gemm_tune: fp32 over
// row-major B and packed panels in every format are byte-identical to an
// explicit fmaf-chain reference at every row count, split and C alignment;
// quantized sidecars stay within their accuracy bounds and refuse
// non-finite weights; and the serving engine's decode_quant mode is
// token-identical to batch-1 generate_cached under the same format —
// including speculative decoding and chunked prefill.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "nn/gpt.h"
#include "parallel/thread_pool.h"
#include "serve/engine.h"
#include "serve/spec/proposer.h"
#include "serve/trace.h"
#include "tensor/dtype.h"
#include "tensor/gemm_tune.h"
#include "tensor/gemm_width.h"
#include "tensor/kernels.h"

namespace matgpt {
namespace {

using kernels::VectorWidth;
using kernels::WeightFormat;

std::vector<float> random_matrix(std::int64_t rows, std::int64_t cols,
                                 std::uint32_t seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> m(static_cast<std::size_t>(rows * cols));
  for (float& v : m) v = dist(gen);
  return m;
}

// ---------------------------------------------------------------------------
// The GEMM contract against an explicit reference: each C element is the
// ascending-k fmaf chain over the widened B column, then (int8) one multiply
// by the column scale. Byte-exact for every format, row count and split.
// ---------------------------------------------------------------------------

// C = fma-chain(A, widen(B)) (+ c0 when accumulating), then * scale[col].
std::vector<float> fma_chain_reference(const std::vector<float>& a,
                                       const std::vector<float>& b_wide,
                                       const float* scale,
                                       std::vector<float> c, std::int64_t m,
                                       std::int64_t n, std::int64_t k) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = c[i * n + j];
      for (std::int64_t l = 0; l < k; ++l) {
        acc = std::fmaf(a[i * k + l], b_wide[l * n + j], acc);
      }
      c[i * n + j] = scale != nullptr ? acc * scale[j] : acc;
    }
  }
  return c;
}

// A packed sidecar's elements widened to fp32, laid out row-major.
std::vector<float> widen_quantized(const gemm_tune::QuantWeights& qw) {
  std::vector<float> wide(static_cast<std::size_t>(qw.k * qw.n));
  for (std::int64_t l = 0; l < qw.k; ++l) {
    for (std::int64_t j = 0; j < qw.n; ++j) {
      const auto p =
          static_cast<std::size_t>(kernels::packed_index(l, j, qw.k, qw.n));
      float& out = wide[static_cast<std::size_t>(l * qw.n + j)];
      if (qw.format == WeightFormat::kInt8) {
        out = static_cast<float>(qw.q8[p]);
      } else {
        const std::uint32_t bits = static_cast<std::uint32_t>(qw.bf16[p])
                                   << 16;
        std::memcpy(&out, &bits, sizeof(float));
      }
    }
  }
  return wide;
}

TEST(GemmContract, F32MatchesFmaChainReferenceBytes) {
  // The portable scalar fp32 loop is not an FMA chain; only the SIMD kernel
  // carries this contract. m = 1..17 covers one and two full 8-row blocks
  // and every fringe block; n = 1029 crosses two 512-column chunk
  // boundaries and ends in a 5-column scalar tail.
  if (!kernels::gemm_simd_active()) GTEST_SKIP() << "SIMD dispatch inactive";
  const struct {
    std::int64_t n, k;
  } shapes[] = {{17, 5}, {33, 13}, {9, 31}, {1029, 7}};
  for (std::int64_t m = 1; m <= 17; ++m) {
    for (const auto& s : shapes) {
      const auto a = random_matrix(m, s.k, 31);
      const auto b = random_matrix(s.k, s.n, 32);
      const auto c0 = random_matrix(m, s.n, 33);
      for (const bool accumulate : {false, true}) {
        const auto ref = fma_chain_reference(
            a, b, nullptr,
            accumulate ? c0 : std::vector<float>(c0.size(), 0.0f), m, s.n,
            s.k);
        std::vector<float> c = c0;
        kernels::gemm_nn(a.data(), b.data(), c.data(), m, s.n, s.k,
                         accumulate);
        ASSERT_EQ(0, std::memcmp(ref.data(), c.data(),
                                 c.size() * sizeof(float)))
            << m << "x" << s.n << "x" << s.k << " acc=" << accumulate;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// gemm_split: the one split rule over the thread pool
// ---------------------------------------------------------------------------

// A float-aligned C at `offset` floats past the start of a 64-byte line
// inside `buf` (which needs 16 floats of slack).
float* line_offset_ptr(std::vector<float>& buf, std::int64_t offset) {
  const auto misalign = reinterpret_cast<std::uintptr_t>(buf.data()) % 64;
  const auto to_line = static_cast<std::int64_t>((64 - misalign) % 64 / 4);
  return buf.data() + to_line + offset;
}

// The split's tiles cover C exactly once, row groups hold at least
// kMinGroupRows rows, panel cuts fall on 16-float boundaries, and a small-M
// split has at most one tile per thread.
void expect_valid_split(std::int64_t m, std::int64_t n, std::int64_t k,
                        std::size_t threads) {
  const kernels::GemmSplit split = kernels::gemm_split(m, n, k, threads);
  const std::string where = std::to_string(m) + "x" + std::to_string(n) +
                            "x" + std::to_string(k) + " threads " +
                            std::to_string(threads);
  ASSERT_GE(split.cuts.size(), 2u) << where;
  const std::int64_t extent = split.by_rows ? m : n;
  ASSERT_EQ(split.cuts.front(), 0) << where;
  ASSERT_EQ(split.cuts.back(), extent) << where;
  std::vector<int> covered(static_cast<std::size_t>(extent), 0);
  for (std::size_t t = 0; t < split.tiles(); ++t) {
    ASSERT_LT(split.cuts[t], split.cuts[t + 1]) << where;
    for (std::int64_t i = split.cuts[t]; i < split.cuts[t + 1]; ++i) {
      covered[static_cast<std::size_t>(i)] += 1;
    }
  }
  EXPECT_EQ(std::count(covered.begin(), covered.end(), 1), extent) << where;
  if (threads == 1) {
    EXPECT_EQ(split.tiles(), 1u) << where;
  }
  if (split.tiles() == 1) return;
  if (m < kernels::kParallelRowThreshold) {
    EXPECT_LE(split.tiles(), threads) << where;
    EXPECT_GE(m * n * k, kernels::kParallelPanelFmas) << where;
  }
  for (std::size_t t = 0; t < split.tiles(); ++t) {
    if (split.by_rows) {
      EXPECT_GE(split.cuts[t + 1] - split.cuts[t], kernels::kMinGroupRows)
          << where << " group " << t;
    } else {
      EXPECT_EQ(split.cuts[t] % 16, 0) << where << " panel " << t;
    }
  }
}

TEST(GemmSplit, TilesCoverCOnceWithGroupsOfFourRowsAndPanelsOnLines) {
  // Shape-only, so it is checked on any host, including one whose global
  // pool has no workers. The serving model's decode and prefill GEMMs
  // ([k, n] of qkv, o, gate_up, down, lm_head) at the benchmark's row
  // counts, then random shapes.
  const std::int64_t kn[][2] = {{256, 256}, {256, 64},  {256, 688},
                                {688, 256}, {256, 704}, {704, 256},
                                {256, 8192}};
  for (std::size_t threads = 1; threads <= 8; ++threads) {
    for (const std::int64_t m : {1, 4, 8, 16, 63, 64, 128}) {
      for (const auto& s : kn) expect_valid_split(m, s[1], s[0], threads);
    }
  }
  std::mt19937 gen(17);
  std::uniform_int_distribution<std::int64_t> rows(1, 200), cols(1, 9000),
      depth(1, 1200);
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t m = rows(gen), n = cols(gen), k = depth(gen);
    for (std::size_t threads = 1; threads <= 8; ++threads) {
      expect_valid_split(m, n, k, threads);
    }
  }
}

TEST(GemmSplit, ServingShapesSplitByTheRule) {
  // The serving model on four threads: lm_head takes column panels from
  // m = 1, gate, up and down take row groups at m = 16, and q, o, k, v and
  // everything at m = 8 but lm_head stay serial.
  const auto split = [](std::int64_t m, std::int64_t n, std::int64_t k) {
    return kernels::gemm_split(m, n, k, 4);
  };
  for (const std::int64_t m : {1, 4, 16, 63}) {
    EXPECT_FALSE(split(m, 8192, 256).by_rows) << m;
    EXPECT_EQ(split(m, 8192, 256).tiles(), 4u) << m;
  }
  for (const auto& [n, k] : {std::pair<std::int64_t, std::int64_t>{688, 256},
                             {256, 688}, {704, 256}, {256, 704}}) {
    EXPECT_TRUE(split(16, n, k).by_rows) << n << "x" << k;
    EXPECT_EQ(split(16, n, k).tiles(), 4u) << n << "x" << k;
    EXPECT_EQ(split(12, n, k).tiles(), 3u) << n << "x" << k;
    EXPECT_EQ(split(8, n, k).tiles(), 1u) << n << "x" << k;
  }
  EXPECT_EQ(split(16, 256, 256).tiles(), 1u);
  EXPECT_EQ(split(16, 64, 256).tiles(), 1u);
  // Enough work but only one group of four rows, or two panels against
  // four row groups, and from kParallelRowThreshold rows the GEMM splits
  // rows, up to four groups per thread.
  EXPECT_EQ(split(4, 704, 2048).tiles(), 1u);
  EXPECT_TRUE(split(16, 1024, 256).by_rows);
  EXPECT_EQ(split(16, 1024, 256).tiles(), 4u);
  EXPECT_TRUE(split(kernels::kParallelRowThreshold, 8192, 256).by_rows);
  EXPECT_EQ(split(kernels::kParallelRowThreshold, 8192, 256).tiles(), 16u);
  EXPECT_EQ(split(kernels::kParallelRowThreshold, 1, 1).tiles(), 16u);
}

// gemm_nn's accumulating bytes for rows of A times row-major `w` onto `c`:
// the fmaf chain under SIMD. The portable fp32 loop is a plain multiply-add,
// so there gemm_nn run as one serial tile stands in, and the tests below
// check that no split changes its bytes.
std::vector<float> f32_reference(const std::vector<float>& a,
                                 const std::vector<float>& w,
                                 std::vector<float> c, std::int64_t m,
                                 std::int64_t n, std::int64_t k) {
  if (kernels::gemm_simd_active()) {
    return fma_chain_reference(a, w, nullptr, std::move(c), m, n, k);
  }
  const ScopedThreadPool serial(0);
  kernels::gemm_nn(a.data(), w.data(), c.data(), m, n, k,
                   /*accumulate=*/true);
  return c;
}

TEST(GemmContract, RowGroupsMatchFmaChainReferenceBytes) {
  // fp32 over row-major B, m = 5..63 rows (serial, two-group and
  // one-group-per-thread splits) at the serving widths (n = 64/256/704
  // split rows, 8192 columns), k large enough that most m cross
  // kParallelPanelFmas, C at a float offset that cycles through 0..15 from
  // a 64-byte line. Byte-exact against f32_reference whether or not the
  // host has workers to split over.
  constexpr std::int64_t kRows = 63;
  const std::int64_t widths[] = {64, 256, 688, 704, 8192};
  for (const std::int64_t n : widths) {
    const std::int64_t k =
        std::min<std::int64_t>(1001,
                               kernels::kParallelPanelFmas / (5 * n) + 1) |
        1;
    const auto a = random_matrix(kRows, k, 51);
    const auto w = random_matrix(k, n, 52);
    const auto c0 = random_matrix(kRows, n, 53);
    const auto ref = f32_reference(a, w, c0, kRows, n, k);
    std::vector<float> buf(static_cast<std::size_t>(kRows * n + 32));
    for (std::int64_t m = 5; m <= kRows; ++m) {
      float* c = line_offset_ptr(buf, m % 16);
      const auto cn = static_cast<std::size_t>(m * n);
      std::copy_n(c0.begin(), cn, c);
      kernels::gemm_nn(a.data(), w.data(), c, m, n, k, /*accumulate=*/true);
      ASSERT_EQ(0, std::memcmp(ref.data(), c, cn * sizeof(float)))
          << m << "x" << n << "x" << k << " split into "
          << kernels::gemm_split(m, n, k, 4).tiles() << " on 4 threads";
    }
  }
}

TEST(GemmContract, ColumnPanelsMatchFmaChainReferenceBytes) {
  // fp32 over row-major B, m = 1..17 rows, n from serial-only widths
  // through lm_head's (17 and 8200 are not multiples of 16 and stay
  // serial), odd k large enough that the wide GEMMs cross
  // kParallelPanelFmas from m = 1, and C at every float offset 0..15 from a
  // 64-byte line for each n. Byte-exact against f32_reference whether or
  // not the host has workers to split over. A row's reference depends only
  // on its own A row, so one 17-row reference per n serves every m.
  constexpr std::int64_t kRows = 17;
  const std::int64_t widths[] = {17, 64, 704, 8192, 8200};
  for (std::size_t ni = 0; ni < std::size(widths); ++ni) {
    const std::int64_t n = widths[ni];
    const std::int64_t k =
        std::min<std::int64_t>(1001, kernels::kParallelPanelFmas / n + 1) | 1;
    const auto a = random_matrix(kRows, k, 41);
    const auto w = random_matrix(k, n, 42);
    const auto c0 = random_matrix(kRows, n, 43);
    const auto ref = f32_reference(a, w, c0, kRows, n, k);
    std::vector<float> buf(static_cast<std::size_t>(kRows * n + 32));
    for (std::int64_t m = 1; m <= kRows; ++m) {
      const std::int64_t offset =
          (m + static_cast<std::int64_t>(ni * 3)) % 16;
      float* c = line_offset_ptr(buf, offset);
      const auto cn = static_cast<std::size_t>(m * n);
      std::copy_n(c0.begin(), cn, c);
      kernels::gemm_nn(a.data(), w.data(), c, m, n, k, /*accumulate=*/true);
      ASSERT_EQ(0, std::memcmp(ref.data(), c, cn * sizeof(float)))
          << m << "x" << n << "x" << k << " C offset " << offset;
    }
  }
}

// ---------------------------------------------------------------------------
// Packed weights: panels, the packed split, and the packed job
// ---------------------------------------------------------------------------

// A packed copy of row-major [k, n] `w`.
std::vector<float> packed_copy(std::vector<float> w, std::int64_t k,
                               std::int64_t n) {
  kernels::pack_panels(w.data(), k, n);
  return w;
}

TEST(PackPanels, InPlacePackMatchesPackedIndexAndUnpacks) {
  const std::int64_t shapes[][2] = {{1, 1},   {3, 17},  {5, 64},  {7, 65},
                                    {256, 64}, {256, 688}, {33, 200},
                                    {2, 8200}};
  for (const auto& [k, n] : shapes) {
    const auto w = random_matrix(k, n, 61);
    const auto packed = packed_copy(w, k, n);
    for (std::int64_t l = 0; l < k; ++l) {
      for (std::int64_t j = 0; j < n; ++j) {
        ASSERT_EQ(packed[static_cast<std::size_t>(
                      kernels::packed_index(l, j, k, n))],
                  w[static_cast<std::size_t>(l * n + j)])
            << k << "x" << n << " at " << l << "," << j;
      }
    }
    std::vector<float> back(w.size());
    kernels::unpack_panels(packed.data(), back.data(), k, n);
    EXPECT_EQ(0, std::memcmp(back.data(), w.data(), w.size() * sizeof(float)))
        << k << "x" << n;
  }
}

// One packed job: the GEMMs of `ns` share A [m, k]. Runs it on the
// calling thread's pool in `format` and returns every C, concatenated.
struct PackedJob {
  std::int64_t k;
  std::vector<std::int64_t> ns;
  std::vector<std::vector<float>> w;       // row-major fp32
  std::vector<std::vector<float>> wp;      // packed fp32
  std::vector<gemm_tune::QuantWeights> q;  // packed sidecars

  PackedJob(std::int64_t k_, std::vector<std::int64_t> ns_,
            WeightFormat format, std::uint32_t seed)
      : k(k_), ns(std::move(ns_)) {
    for (const std::int64_t n : ns) {
      w.push_back(random_matrix(k, n, seed++));
      wp.push_back(packed_copy(w.back(), k, n));
      if (format != WeightFormat::kF32) {
        q.push_back(
            gemm_tune::quantize_weights(wp.back().data(), k, n, format));
      }
    }
  }

  // At `width` through the test entry, or through gemm_packed (the active
  // width) when none is given.
  std::vector<float> run(const std::vector<float>& a, std::int64_t m,
                         WeightFormat format, std::int64_t c_offset = 0,
                         const VectorWidth* width = nullptr) const {
    std::int64_t total = 0;
    for (const std::int64_t n : ns) total += m * n;
    std::vector<float> buf(static_cast<std::size_t>(total + 32), -7.0f);
    float* c = line_offset_ptr(buf, c_offset);
    std::vector<kernels::PackedGemm> gemms;
    float* at = c;
    for (std::size_t g = 0; g < ns.size(); ++g) {
      kernels::PackedGemm pg;
      pg.c = at;
      pg.n = ns[g];
      switch (format) {
        case WeightFormat::kF32: pg.b = wp[g].data(); break;
        case WeightFormat::kBf16: pg.b = q[g].bf16.data(); break;
        case WeightFormat::kInt8:
          pg.b = q[g].q8.data();
          pg.scale = q[g].scale.data();
          break;
      }
      gemms.push_back(pg);
      at += m * ns[g];
    }
    if (width != nullptr) {
      kernels::gemm_packed_at(*width, a.data(), m, k, format, gemms);
    } else {
      kernels::gemm_packed(a.data(), m, k, format, gemms);
    }
    return std::vector<float>(c, c + total);
  }

  // The row-major reference for the first m rows: the fmaf chain (fp32 with
  // SIMD, bf16, int8; a sidecar read through packed_index), else the
  // portable build's row-major gemm_nn.
  std::vector<float> reference(const std::vector<float>& a, std::int64_t m,
                               WeightFormat format) const {
    std::vector<float> out;
    for (std::size_t g = 0; g < ns.size(); ++g) {
      const std::int64_t n = ns[g];
      std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
      if (format == WeightFormat::kF32 && !kernels::gemm_simd_active()) {
        kernels::gemm_nn(a.data(), w[g].data(), c.data(), m, n, k,
                         /*accumulate=*/false);
      } else {
        c = fma_chain_reference(
            a, format == WeightFormat::kF32 ? w[g] : widen_quantized(q[g]),
            format == WeightFormat::kInt8 ? q[g].scale.data() : nullptr, c,
            m, n, k);
      }
      out.insert(out.end(), c.begin(), c.end());
    }
    return out;
  }
};

// fp32 / bf16 / int8 packed jobs at `width`: one GEMM at the serving widths
// (64, 256, 688 and 8192, plus 704), tail panels 8 (8200), 24, 40 and 56
// (120) wide, tails of 17 and 29 (93) columns that are not a multiple of
// 8 and end in the scalar columns, and the two multi-GEMM groups the
// serving layers run (q|k|v; gate|up at ffn 704, and at 688, whose GEMMs
// each end in a 48-wide panel). m = 1..17, 24, 33, 64, 72 and 129
// reach every register tile and every fringe of rows the tables leave;
// pools of 0 and 3 workers run them serial, as panel ranges and as row
// groups. k is odd and sized so most small-m jobs cross kPackedSplitFmas.
// Every C byte equals the row-major fmaf-chain reference (the portable
// build's fp32 loop is not an FMA chain, so there fp32 is held to the
// row-major gemm_nn's bytes instead).
void expect_packed_panels_match_reference(VectorWidth width) {
  const std::vector<std::vector<std::int64_t>> jobs = {
      {64}, {256}, {688}, {704}, {8192}, {8200}, {24}, {40}, {120},
      {17}, {93}, {256, 64, 64}, {704, 704}, {688, 688}};
  std::vector<std::int64_t> rows;
  for (std::int64_t m = 1; m <= 17; ++m) rows.push_back(m);
  for (const std::int64_t m : {24, 33, 64, 72, 129}) rows.push_back(m);
  constexpr std::int64_t kRows = 129;
  const WeightFormat formats[] = {WeightFormat::kF32, WeightFormat::kBf16,
                                  WeightFormat::kInt8};
  for (const WeightFormat format : formats) {
    for (std::size_t ji = 0; ji < jobs.size(); ++ji) {
      std::int64_t n = 0;
      for (const std::int64_t w : jobs[ji]) n += w;
      const std::int64_t k =
          std::min<std::int64_t>(301, kernels::kPackedSplitFmas / (4 * n) + 1) |
          1;
      const PackedJob job(k, jobs[ji], format, 70);
      const auto a = random_matrix(kRows, k, 71);
      const auto ref = job.reference(a, kRows, format);
      for (const std::size_t workers : {0u, 3u}) {
        const ScopedThreadPool pool(workers);
        for (const std::int64_t m : rows) {
          const auto c = job.run(a, m, format, (m + ji) % 16, &width);
          // The reference's first m rows of each GEMM.
          std::vector<float> expect;
          std::size_t at = 0;
          for (const std::int64_t w : jobs[ji]) {
            expect.insert(expect.end(), ref.begin() + at,
                          ref.begin() + at + m * w);
            at += kRows * w;
          }
          ASSERT_EQ(0, std::memcmp(expect.data(), c.data(),
                                   c.size() * sizeof(float)))
              << kernels::width_name(width) << " "
              << kernels::format_name(format) << " job " << ji << " m=" << m
              << " k=" << k << " workers " << workers;
        }
      }
    }
  }
}

TEST(GemmContract, PackedPanelsMatchFmaChainReferenceBytes) {
  // The 256-bit tiles (every AVX2 host's, and an AVX-512 host's lone
  // rows), or the portable loops where there is no SIMD.
  expect_packed_panels_match_reference(
      kernels::active_width() == VectorWidth::kAvx512 ? VectorWidth::kAvx2
                                                      : kernels::active_width());
}

TEST(GemmContract, PackedPanelsAt512BitsMatchFmaChainReferenceBytes) {
  if (kernels::active_width() != VectorWidth::kAvx512) {
    GTEST_SKIP() << "the 512-bit register tiles need an AVX-512F host; this "
                    "one runs "
                 << kernels::gemm_width_name();
  }
  expect_packed_panels_match_reference(VectorWidth::kAvx512);
}

TEST(GemmSplit, PackedTilesCoverEachRowPanelOnceAtEveryThreadCount) {
  // Over threads 1..8 the packed split computes every (row, panel) tile of
  // the serving jobs exactly once: from kParallelRowThreshold rows, row
  // groups cut on multiples of the widest register tile's height (and of
  // kMinGroupRows), else at most one contiguous panel range per thread,
  // and one serial tile on one thread or below the split threshold
  // (packed_job_splits). The jobs' bytes are then the same at every count.
  const std::int64_t height =
      std::max<std::int64_t>(kernels::kMinGroupRows, kernels::tile_height());
  struct Job {
    std::int64_t k;
    std::vector<std::int64_t> ns;
  };
  const Job jobs[] = {{256, {256, 64, 64}}, {256, {256}}, {256, {688, 688}},
                      {688, {256}},         {256, {8192}}, {31, {17, 100}}};
  for (const Job& job : jobs) {
    std::int64_t n = 0, panels = 0;
    for (const std::int64_t w : job.ns) {
      n += w;
      panels += (w + kernels::kPanelFloats - 1) / kernels::kPanelFloats;
    }
    for (const std::int64_t m : {1, 2, 4, 8, 16, 63, 64, 65, 72, 128, 129}) {
      for (std::size_t threads = 1; threads <= 8; ++threads) {
        const kernels::GemmSplit split =
            kernels::packed_split(m, n, job.k, panels, threads);
        const std::string where = std::to_string(m) + "x" + std::to_string(n) +
                                  "x" + std::to_string(job.k) + " threads " +
                                  std::to_string(threads);
        const std::int64_t extent = split.by_rows ? m : panels;
        ASSERT_GE(split.cuts.size(), 2u) << where;
        ASSERT_EQ(split.cuts.front(), 0) << where;
        ASSERT_EQ(split.cuts.back(), extent) << where;
        for (std::size_t t = 0; t < split.tiles(); ++t) {
          ASSERT_LT(split.cuts[t], split.cuts[t + 1]) << where;
        }
        if (threads == 1 ||
            (m < kernels::kParallelRowThreshold &&
             !kernels::packed_job_splits(m, n, job.k))) {
          EXPECT_EQ(split.tiles(), 1u) << where;
        } else if (m >= kernels::kParallelRowThreshold) {
          EXPECT_TRUE(split.by_rows) << where;
          EXPECT_EQ(split.tiles(),
                    std::min<std::size_t>(4 * threads,
                                          static_cast<std::size_t>(m / height)))
              << where;
          for (std::size_t t = 0; t < split.tiles(); ++t) {
            EXPECT_GE(split.cuts[t + 1] - split.cuts[t], height) << where;
            if (t > 0) {
              EXPECT_EQ(split.cuts[t] % height, 0) << where;
            }
          }
        } else {
          EXPECT_FALSE(split.by_rows) << where;
          EXPECT_EQ(split.tiles(),
                    std::min<std::size_t>(threads,
                                          static_cast<std::size_t>(panels)))
              << where;
        }
      }
    }
  }
  // Bytes on pools of 0, 1 and 3 workers, for each format, on jobs that
  // split.
  const WeightFormat formats[] = {WeightFormat::kF32, WeightFormat::kBf16,
                                  WeightFormat::kInt8};
  for (const WeightFormat format : formats) {
    for (const Job& job : {Job{256, {256, 64, 64}}, Job{77, {688, 688}},
                           Job{41, {8200}}}) {
      const PackedJob packed(job.k, job.ns, format, 80);
      for (const std::int64_t m : {5, 16, 64}) {
        const auto a = random_matrix(m, job.k, 81);
        std::vector<float> serial;
        for (const std::size_t workers : {0u, 1u, 3u}) {
          const ScopedThreadPool scope(workers);
          const auto c = packed.run(a, m, format);
          if (workers == 0) {
            serial = c;
            continue;
          }
          ASSERT_EQ(0, std::memcmp(serial.data(), c.data(),
                                   c.size() * sizeof(float)))
              << kernels::format_name(format) << " m=" << m << " k=" << job.k
              << " workers " << workers;
        }
      }
    }
  }
}

TEST(GemmSplit, PackedServingJobsSplitByTheRule) {
  // The serving jobs on four threads. lm_head and gate|up split their
  // panels from m = 1 at either width; at 256 bits q|k|v splits from
  // m = 4, down from m = 2 and o from m = 5, at 512 bits q|k|v from m = 9,
  // down from m = 5 and o from m = 13. From kParallelRowThreshold rows
  // every job runs sixteen row groups of four rows at 256 bits, eight of
  // eight at 512.
  const bool wide = kernels::active_width() == VectorWidth::kAvx512;
  const auto tiles = [](std::int64_t m, std::int64_t n, std::int64_t k) {
    const std::int64_t panels =
        (n + kernels::kPanelFloats - 1) / kernels::kPanelFloats;
    return kernels::packed_split(m, n, k, panels, 4).tiles();
  };
  EXPECT_EQ(tiles(1, 8192, 256), 4u);
  EXPECT_EQ(tiles(1, 2 * 688, 256), 4u);
  EXPECT_EQ(tiles(1, 384, 256), 1u);
  EXPECT_EQ(tiles(3, 384, 256), 1u);
  EXPECT_EQ(tiles(4, 384, 256), wide ? 1u : 4u);
  EXPECT_EQ(tiles(8, 384, 256), wide ? 1u : 4u);
  EXPECT_EQ(tiles(9, 384, 256), 4u);
  EXPECT_EQ(tiles(1, 256, 688), 1u);
  EXPECT_EQ(tiles(2, 256, 688), wide ? 1u : 4u);
  EXPECT_EQ(tiles(4, 256, 688), wide ? 1u : 4u);
  EXPECT_EQ(tiles(5, 256, 688), 4u);
  EXPECT_EQ(tiles(4, 256, 256), 1u);
  EXPECT_EQ(tiles(5, 256, 256), wide ? 1u : 4u);
  EXPECT_EQ(tiles(12, 256, 256), wide ? 1u : 4u);
  EXPECT_EQ(tiles(13, 256, 256), 4u);
  for (const std::int64_t n : {256, 384, 2 * 688, 8192}) {
    const std::int64_t panels =
        (n + kernels::kPanelFloats - 1) / kernels::kPanelFloats;
    const auto split = kernels::packed_split(
        kernels::kParallelRowThreshold, n, 256, panels, 4);
    EXPECT_TRUE(split.by_rows) << n;
    EXPECT_EQ(split.tiles(), wide ? 8u : 16u) << n;
  }
}

TEST(GemmTune, PackedSidecarHoldsTheRowMajorSidecarsElements) {
  // Element (l, j) of the sidecar, at packed_index(l, j), is what the
  // quantizer's rule gives the row-major weight's (l, j): bf16's rounded
  // bits, or int8's nearbyint(w * (1 / scale)) with the column's
  // amax / 127 scale.
  const std::int64_t k = 37, n = 150;
  const auto w = random_matrix(k, n, 90);
  const auto wp = packed_copy(w, k, n);
  const auto bf16 = gemm_tune::quantize_weights(wp.data(), k, n,
                                                WeightFormat::kBf16);
  const auto int8 = gemm_tune::quantize_weights(wp.data(), k, n,
                                                WeightFormat::kInt8);
  ASSERT_EQ(int8.scale.size(), static_cast<std::size_t>(n));
  for (std::int64_t j = 0; j < n; ++j) {
    float amax = 0.0f;
    for (std::int64_t l = 0; l < k; ++l) {
      amax = std::max(amax, std::fabs(w[static_cast<std::size_t>(l * n + j)]));
    }
    const float scale = amax / 127.0f;
    ASSERT_EQ(int8.scale[static_cast<std::size_t>(j)], scale) << j;
    for (std::int64_t l = 0; l < k; ++l) {
      const float x = w[static_cast<std::size_t>(l * n + j)];
      const auto p =
          static_cast<std::size_t>(kernels::packed_index(l, j, k, n));
      ASSERT_EQ(int8.q8[p], static_cast<std::int8_t>(std::clamp(
                                std::nearbyintf(x * (1.0f / scale)), -127.0f,
                                127.0f)))
          << l << "," << j;
      ASSERT_EQ(bf16.bf16[p], static_cast<std::uint16_t>(
                                  std::bit_cast<std::uint32_t>(round_bf16(x)) >>
                                  16))
          << l << "," << j;
    }
  }
}

// ---------------------------------------------------------------------------
// Quantization round-trip accuracy and non-finite weights
// ---------------------------------------------------------------------------

// The sidecar of row-major [k, n] `w`, built as serving builds it: from
// the packed weight.
gemm_tune::QuantWeights packed_sidecar(const std::vector<float>& w,
                                       std::int64_t k, std::int64_t n,
                                       WeightFormat format) {
  const auto wp = packed_copy(w, k, n);
  return gemm_tune::quantize_weights(wp.data(), k, n, format);
}

// Element (l, j) of a [k, n] sidecar's int8 weights.
std::int8_t q8_at(const gemm_tune::QuantWeights& qw, std::int64_t l,
                  std::int64_t j) {
  return qw.q8[static_cast<std::size_t>(
      kernels::packed_index(l, j, qw.k, qw.n))];
}

TEST(QuantizeWeights, Int8RoundTripWithinHalfScalePerElement) {
  const std::int64_t k = 37, n = 23;
  const auto w = random_matrix(k, n, 5);
  const auto qw = packed_sidecar(w, k, n, WeightFormat::kInt8);
  ASSERT_EQ(qw.scale.size(), static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < k; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const float back = static_cast<float>(q8_at(qw, i, j)) * qw.scale[j];
      EXPECT_NEAR(back, w[i * n + j], 0.5f * qw.scale[j] + 1e-7f)
          << i << "," << j;
    }
  }
}

TEST(QuantizeWeights, Bf16RoundTripWithinRelativeUlp) {
  const std::int64_t k = 19, n = 31;
  const auto w = random_matrix(k, n, 6);
  const auto qw = packed_sidecar(w, k, n, WeightFormat::kBf16);
  const auto back = widen_quantized(qw);
  for (std::size_t i = 0; i < w.size(); ++i) {
    // bf16 keeps 8 mantissa bits: relative error <= 2^-8 after rounding.
    EXPECT_NEAR(back[i], w[i], std::abs(w[i]) * (1.0f / 256.0f) + 1e-38f)
        << i;
  }
}

TEST(QuantizeWeights, Int8TinyColumnRoundTripsWithinHalfScale) {
  // amax / 127 is subnormal here, so 1 / scale overflows to +inf.
  const std::vector<float> w{3e-37f, 0.0f, -1e-37f};
  const auto qw = packed_sidecar(w, 3, 1, WeightFormat::kInt8);
  const float scale = qw.scale[0];
  EXPECT_GT(scale, 0.0f);
  for (std::int64_t l = 0; l < 3; ++l) {
    const float back = static_cast<float>(q8_at(qw, l, 0)) * scale;
    EXPECT_LE(std::abs(back - w[static_cast<std::size_t>(l)]), 0.5f * scale)
        << l << ": q=" << static_cast<int>(q8_at(qw, l, 0));
  }
}

TEST(QuantizeWeights, Int8ZeroColumnGetsUnitScale) {
  std::vector<float> w(8 * 2, 0.0f);
  for (int i = 0; i < 8; ++i) w[i * 2 + 1] = 0.5f;  // column 0 all-zero
  const auto qw = packed_sidecar(w, 8, 2, WeightFormat::kInt8);
  EXPECT_EQ(qw.scale[0], 1.0f);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(q8_at(qw, i, 0), 0);
}

// int8 quantization of `w` with `bad` at (2, 70) throws, naming row 2 and
// column 70; bf16 keeps `bad` as fp32 does.
void expect_int8_refuses(float bad) {
  const std::int64_t k = 5, n = 90;
  auto w = random_matrix(k, n, 7);
  w[2 * n + 70] = bad;
  try {
    packed_sidecar(w, k, n, WeightFormat::kInt8);
    ADD_FAILURE() << "int8 quantized " << bad;
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("row 2, column 70"),
              std::string::npos)
        << e.what();
  }
  const auto bf16 = widen_quantized(packed_sidecar(w, k, n,
                                                   WeightFormat::kBf16));
  EXPECT_EQ(std::isnan(bf16[2 * n + 70]), std::isnan(bad));
  if (!std::isnan(bad)) {
    EXPECT_EQ(bf16[2 * n + 70], bad);
  }
}

TEST(QuantizeWeights, Int8InfWeightThrows) {
  expect_int8_refuses(std::numeric_limits<float>::infinity());
  expect_int8_refuses(-std::numeric_limits<float>::infinity());
}

TEST(QuantizeWeights, Int8NanWeightThrows) {
  expect_int8_refuses(std::numeric_limits<float>::quiet_NaN());
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

TEST(CostModel, PredictionsArePositiveAndShapeMonotone) {
  const auto& anchors = gemm_tune::host_anchors();
  for (const bool packed : {false, true}) {
    const double small = gemm_tune::predict_seconds(
        1, 256, 256, WeightFormat::kF32, anchors, packed);
    const double big = gemm_tune::predict_seconds(
        64, 2048, 2048, WeightFormat::kF32, anchors, packed);
    EXPECT_GT(small, 0.0) << packed;
    EXPECT_GT(big, 64.0 * small) << packed;  // 512x the FLOPs, model slack
  }
  for (const auto format : {WeightFormat::kBf16, WeightFormat::kInt8}) {
    EXPECT_GT(gemm_tune::predict_seconds(1, 256, 256, format, anchors,
                                         /*packed=*/true),
              0.0);
    // Quantized weights are only ever packed.
    EXPECT_THROW(gemm_tune::predict_seconds(1, 256, 256, format, anchors,
                                            /*packed=*/false),
                 std::exception);
  }
}

// ---------------------------------------------------------------------------
// Quantized decode accuracy + engine identity
// ---------------------------------------------------------------------------

nn::GptConfig quant_model_config() {
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

serve::TraceSpec quant_trace_spec() {
  serve::TraceSpec spec;
  spec.n_requests = 8;
  spec.vocab_size = 50;
  spec.prompt_len_min = 2;
  spec.prompt_len_max = 6;
  spec.max_new_min = 2;
  spec.max_new_max = 8;
  return spec;
}

TEST(DecodeQuant, LogitsStayNearFp32AndGreedyArgmaxAgrees) {
  const nn::GptConfig c = quant_model_config();
  nn::GptModel model(c);
  const std::vector<std::int32_t> prompt{1, 2, 3, 4, 5, 6, 7, 8};
  const int steps = 12;
  auto step_token = [&](int s) {
    return static_cast<std::int32_t>((prompt[s % prompt.size()] + s) %
                                     c.vocab_size);
  };

  // fp32 decode reference logits, teacher-forced over a fixed token walk.
  model.prepare_decode_quant(WeightFormat::kF32);
  std::vector<std::vector<float>> ref;
  {
    nn::KvCache cache;
    Tape t0;
    model.forward_incremental(t0, prompt, cache);
    for (int s = 0; s < steps; ++s) {
      Tape t;
      const std::int32_t tok = step_token(s);
      Var lg = model.forward_incremental(
          t, std::span<const std::int32_t>(&tok, 1), cache);
      ref.emplace_back(lg.value().data(),
                       lg.value().data() + c.vocab_size);
    }
  }

  for (const auto format : {WeightFormat::kBf16, WeightFormat::kInt8}) {
    model.prepare_decode_quant(format);
    EXPECT_EQ(model.decode_quant_format(), format);
    nn::KvCache cache;
    Tape t0;
    model.forward_incremental(t0, prompt, cache);
    float max_err = 0.0f;
    for (int s = 0; s < steps; ++s) {
      Tape t;
      const std::int32_t tok = step_token(s);
      Var lg = model.forward_incremental(
          t, std::span<const std::int32_t>(&tok, 1), cache);
      const float* q = lg.value().data();
      std::int64_t ref_argmax = 0, q_argmax = 0;
      for (std::int64_t v = 0; v < c.vocab_size; ++v) {
        max_err = std::max(max_err, std::abs(q[v] - ref[s][v]));
        if (ref[s][v] > ref[s][ref_argmax]) ref_argmax = v;
        if (q[v] > q[q_argmax]) q_argmax = v;
      }
      EXPECT_EQ(ref_argmax, q_argmax)
          << kernels::format_name(format) << " step " << s;
    }
    // Measured on this deterministic model: 5.2e-4 (bf16), 1.2e-3 (int8).
    EXPECT_LT(max_err, 0.02f) << kernels::format_name(format);
  }
  model.prepare_decode_quant(WeightFormat::kF32);
}

TEST(DecodeQuant, EngineTokensIdenticalToGenerateCachedSameFormat) {
  const nn::GptConfig c = quant_model_config();
  nn::GptModel model(c);

  serve::EngineConfig ec;
  ec.max_batch = 4;
  ec.kv_slots = 4;
  ec.decode_quant = WeightFormat::kInt8;
  serve::InferenceEngine engine(model, ec);

  auto trace = serve::synth_trace(quant_trace_spec());
  const auto reference_trace = trace;
  const auto results = engine.run_trace(std::move(trace));
  ASSERT_EQ(results.size(), reference_trace.size());

  // The engine installed the int8 sidecars on the shared model, so
  // generate_cached now runs the same quantized decode path.
  ASSERT_EQ(model.decode_quant_format(), WeightFormat::kInt8);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& req = reference_trace[i];
    Rng rng(req.sampling.seed);
    const auto expected = model.generate_cached(req.prompt,
                                                req.max_new_tokens,
                                                req.sampling, rng);
    EXPECT_EQ(results[i].tokens, expected) << "request " << i;
  }
}

TEST(DecodeQuant, ChunkedPrefillIdenticalToWholePrefillUnderQuant) {
  const nn::GptConfig c = quant_model_config();
  nn::GptModel model(c);

  serve::EngineConfig whole;
  whole.max_batch = 4;
  whole.kv_slots = 4;
  whole.decode_quant = WeightFormat::kInt8;
  serve::EngineConfig chunked = whole;
  chunked.prefill_chunk_tokens = 1;  // worst case: every chunk is one token

  auto spec = quant_trace_spec();
  serve::InferenceEngine a(model, whole);
  const auto ra = a.run_trace(serve::synth_trace(spec));
  serve::InferenceEngine b(model, chunked);
  const auto rb = b.run_trace(serve::synth_trace(spec));
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].tokens, rb[i].tokens) << "request " << i;
  }
}

TEST(DecodeQuant, SpeculativeIdenticalToPlainUnderQuant) {
  const nn::GptConfig c = quant_model_config();
  nn::GptModel model(c);

  serve::EngineConfig plain;
  plain.max_batch = 4;
  plain.kv_slots = 4;
  plain.decode_quant = WeightFormat::kInt8;
  serve::EngineConfig spec_cfg = plain;
  spec_cfg.proposer = std::make_shared<serve::spec::LayerSkipDraft>(model, 1);

  // The speculative byte-identity contract is greedy (stochastic requests
  // use rejection sampling, which consumes the rng stream differently).
  auto spec = quant_trace_spec();
  spec.max_new_min = 4;  // enough tokens for a couple of verify rounds
  auto plain_trace = serve::synth_trace(spec);
  for (auto& req : plain_trace) req.sampling.temperature = 0.0f;
  auto trace = plain_trace;
  serve::InferenceEngine a(model, plain);
  const auto ra = a.run_trace(std::move(plain_trace));

  for (auto& req : trace) req.spec_k = 2;
  serve::InferenceEngine b(model, spec_cfg);
  const auto rb = b.run_trace(std::move(trace));
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].tokens, rb[i].tokens) << "request " << i;
  }
}

TEST(DecodeQuant, EngineStatsReportQuantAndGemmCounters) {
  const nn::GptConfig c = quant_model_config();
  nn::GptModel model(c);
  serve::EngineConfig ec;
  ec.max_batch = 2;
  ec.kv_slots = 2;
  ec.decode_quant = WeightFormat::kInt8;
  serve::InferenceEngine engine(model, ec);
  auto spec = quant_trace_spec();
  spec.n_requests = 3;
  engine.run_trace(serve::synth_trace(spec));

  EXPECT_EQ(engine.stats().decode_quant(), std::string("int8"));
  EXPECT_GT(engine.stats().gemm_int8_calls(), 0u);
  EXPECT_GT(engine.stats().gemm_f32_calls(), 0u);  // prefill stays fp32
  const std::string json = engine.stats().to_json(1.0);
  EXPECT_NE(json.find("\"decode_quant\": \"int8\""), std::string::npos);
  EXPECT_NE(json.find("\"gemm_int8_calls\""), std::string::npos);
}

TEST(DecodeQuant, Int8EngineRefusesNonFiniteWeights) {
  // A checkpoint is loaded without a finiteness check, so an int8 engine
  // is where a non-finite weight must be refused; fp32 and bf16 engines
  // serve it as it is.
  for (const float bad : {std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN()}) {
    for (const auto format : {WeightFormat::kInt8, WeightFormat::kBf16}) {
      nn::GptModel model(quant_model_config());
      bool planted = false;
      for (const auto& p : model.parameters()) {
        if (p.name.find("mlp.down.weight") != std::string::npos) {
          p.var.node()->value.data()[3] = bad;
          planted = true;
          break;
        }
      }
      ASSERT_TRUE(planted);
      serve::EngineConfig ec;
      ec.decode_quant = format;
      const auto build = [&] { serve::InferenceEngine engine(model, ec); };
      if (format == WeightFormat::kInt8) {
        EXPECT_THROW(build(), std::exception) << bad;
      } else {
        EXPECT_NO_THROW(build()) << bad;
      }
    }
  }
}

}  // namespace
}  // namespace matgpt
