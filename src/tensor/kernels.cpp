#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "parallel/thread_pool.h"
#include "tensor/simd.h"

namespace matgpt::kernels {

namespace {

constexpr std::int64_t kLineFloats = 64 / sizeof(float);  // one cache line

void for_rows(std::int64_t m,
              const std::function<void(std::size_t, std::size_t)>& body) {
  if (m < kParallelRowThreshold) {
    body(0, static_cast<std::size_t>(m));
  } else {
    ThreadPool::global().parallel_for(0, static_cast<std::size_t>(m), body);
  }
}

// One B element widened to fp32. Exact for all three formats: int8 and
// bf16 both embed losslessly in fp32.
template <typename BT>
inline float b_value(BT v) {
  if constexpr (std::is_same_v<BT, std::int8_t>) {
    return static_cast<float>(v);
  } else if constexpr (std::is_same_v<BT, std::uint16_t>) {
    const std::uint32_t u = static_cast<std::uint32_t>(v) << 16;
    float f;
    std::memcpy(&f, &u, sizeof(f));
    return f;
  } else {
    return v;
  }
}

// Portable scalar fp32 NN loop (also the path behind the AVX2 dispatch when
// the host lacks the ISA). l-outer/j-inner keeps B reads contiguous. The
// zero-skip makes one-hot rows (embedding-style products) cheap.
void gemm_nn_scalar_rows(const float* a, const float* b, float* c,
                         std::int64_t i_lo, std::int64_t i_hi,
                         std::int64_t j_lo, std::int64_t j_hi, std::int64_t n,
                         std::int64_t k, bool accumulate) {
  for (std::int64_t i = i_lo; i < i_hi; ++i) {
    float* crow = c + i * n;
    if (!accumulate) {
      std::memset(crow + j_lo, 0,
                  sizeof(float) * static_cast<std::size_t>(j_hi - j_lo));
    }
    const float* arow = a + i * k;
    for (std::int64_t l = 0; l < k; ++l) {
      const float av = arow[l];
      if (av == 0.0f) continue;
      const float* brow = b + l * n;
      for (std::int64_t j = j_lo; j < j_hi; ++j) crow[j] += av * brow[j];
    }
  }
}

// Portable quantized NN loop. Ascending-k single-rounding FMA per C
// element, then (int8, `scale` non-null) one single-rounding multiply by
// the column scale — the exact operation sequence of the AVX2 kernel below,
// so SIMD and portable builds produce identical bytes.
template <typename BT>
void gemm_quant_scalar_rows(const float* a, const BT* b, const float* scale,
                            float* c, std::int64_t i_lo, std::int64_t i_hi,
                            std::int64_t j_lo, std::int64_t j_hi,
                            std::int64_t n, std::int64_t k) {
  for (std::int64_t i = i_lo; i < i_hi; ++i) {
    float* crow = c + i * n;
    std::memset(crow + j_lo, 0,
                sizeof(float) * static_cast<std::size_t>(j_hi - j_lo));
    const float* arow = a + i * k;
    for (std::int64_t l = 0; l < k; ++l) {
      const float av = arow[l];
      const BT* brow = b + l * n;
      for (std::int64_t j = j_lo; j < j_hi; ++j) {
        crow[j] = std::fmaf(av, b_value(brow[j]), crow[j]);
      }
    }
    if (scale != nullptr) {
      for (std::int64_t j = j_lo; j < j_hi; ++j) crow[j] *= scale[j];
    }
  }
}

#ifdef MATGPT_X86_DISPATCH
#pragma GCC push_options
#pragma GCC target("avx2,fma")

// Eight B elements widened to fp32 (fp32: a plain load).
template <typename BT>
inline __m256 load_b(const BT* p) {
  if constexpr (std::is_same_v<BT, std::int8_t>) {
    return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))));
  } else if constexpr (std::is_same_v<BT, std::uint16_t>) {
    return _mm256_castsi256_ps(_mm256_slli_epi32(
        _mm256_cvtepu16_epi32(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))),
        16));
  } else {
    return _mm256_loadu_ps(p);
  }
}

// The streaming NN microkernel, templated on the number of C rows it
// carries and on the B storage format (fp32, bf16 bits, int8), with a
// runtime column-chunk size `nc` (the cache-block knob pick_variant sets).
//
// Loop order is (column chunk, k-block of 4, columns): B is read exactly
// once per call in contiguous row segments (prefetch-friendly — a
// column-tiled kernel would walk B at stride n and die of cache-miss
// latency on serving-sized weight matrices), while the ROWS x nc-float C
// chunk stays L1-resident. Sharing each B load across ROWS rows is the
// whole point: one row (batch-1 decode) is B-bandwidth-bound, eight rows
// (a full serving batch) run at FMA throughput from the same traffic.
//
// Numerics: every C element accumulates its k terms in ascending order with
// single-rounding FMAs over the widened B value — identical in the vector
// body, the scalar column tail, and for every ROWS/nc. With a non-null
// `scale` (int8) each C element then takes one single-rounding multiply by
// its column scale, after the chunk's k loop completes; quantized callers
// never accumulate, since the scale pass could not compose with existing
// partial sums. A row's result depends only on (its A row, B), never on
// how many rows share the call or how columns are chunked, which is what
// keeps the serving engine's ragged-batch decode (and any tiling choice)
// bit-identical to batch-1 decoding.
template <int ROWS, typename BT>
void gemm_stream_avx2(const float* a, const BT* b, const float* scale,
                      float* c, std::int64_t i0, std::int64_t j_lo,
                      std::int64_t j_hi, std::int64_t n, std::int64_t k,
                      bool accumulate, std::int64_t nc) {
  const float* arow[ROWS];
  float* crow[ROWS];
  for (int r = 0; r < ROWS; ++r) {
    arow[r] = a + static_cast<std::size_t>(i0 + r) * static_cast<std::size_t>(k);
    crow[r] = c + static_cast<std::size_t>(i0 + r) * static_cast<std::size_t>(n);
  }
  for (std::int64_t j0 = j_lo; j0 < j_hi; j0 += nc) {
    const std::int64_t jend = std::min(j_hi, j0 + nc);
    const std::int64_t jvec = j0 + ((jend - j0) / 8) * 8;
    if (!accumulate) {
      for (int r = 0; r < ROWS; ++r) {
        std::memset(crow[r] + j0, 0,
                    sizeof(float) * static_cast<std::size_t>(jend - j0));
      }
    }
    std::int64_t l = 0;
    for (; l + 4 <= k; l += 4) {
      const BT* b0 = b + static_cast<std::size_t>(l) * n;
      const BT* b1 = b0 + n;
      const BT* b2 = b1 + n;
      const BT* b3 = b2 + n;
      // Row pairs with all eight broadcasts hoisted into registers: each
      // B load feeds two C rows, and after the first pair streams this
      // 4-row B segment in, later pairs re-read it from L1.
      int r = 0;
      for (; r + 2 <= ROWS; r += 2) {
        const __m256 a0 = _mm256_broadcast_ss(arow[r] + l);
        const __m256 a1 = _mm256_broadcast_ss(arow[r] + l + 1);
        const __m256 a2 = _mm256_broadcast_ss(arow[r] + l + 2);
        const __m256 a3 = _mm256_broadcast_ss(arow[r] + l + 3);
        const __m256 a4 = _mm256_broadcast_ss(arow[r + 1] + l);
        const __m256 a5 = _mm256_broadcast_ss(arow[r + 1] + l + 1);
        const __m256 a6 = _mm256_broadcast_ss(arow[r + 1] + l + 2);
        const __m256 a7 = _mm256_broadcast_ss(arow[r + 1] + l + 3);
        float* c0 = crow[r];
        float* c1 = crow[r + 1];
        for (std::int64_t j = j0; j < jvec; j += 8) {
          const __m256 bv0 = load_b(b0 + j);
          const __m256 bv1 = load_b(b1 + j);
          const __m256 bv2 = load_b(b2 + j);
          const __m256 bv3 = load_b(b3 + j);
          __m256 cv0 = _mm256_loadu_ps(c0 + j);
          cv0 = _mm256_fmadd_ps(a0, bv0, cv0);
          cv0 = _mm256_fmadd_ps(a1, bv1, cv0);
          cv0 = _mm256_fmadd_ps(a2, bv2, cv0);
          cv0 = _mm256_fmadd_ps(a3, bv3, cv0);
          _mm256_storeu_ps(c0 + j, cv0);
          __m256 cv1 = _mm256_loadu_ps(c1 + j);
          cv1 = _mm256_fmadd_ps(a4, bv0, cv1);
          cv1 = _mm256_fmadd_ps(a5, bv1, cv1);
          cv1 = _mm256_fmadd_ps(a6, bv2, cv1);
          cv1 = _mm256_fmadd_ps(a7, bv3, cv1);
          _mm256_storeu_ps(c1 + j, cv1);
        }
      }
      for (; r < ROWS; ++r) {
        const __m256 a0 = _mm256_broadcast_ss(arow[r] + l);
        const __m256 a1 = _mm256_broadcast_ss(arow[r] + l + 1);
        const __m256 a2 = _mm256_broadcast_ss(arow[r] + l + 2);
        const __m256 a3 = _mm256_broadcast_ss(arow[r] + l + 3);
        float* crr = crow[r];
        for (std::int64_t j = j0; j < jvec; j += 8) {
          __m256 cv = _mm256_loadu_ps(crr + j);
          cv = _mm256_fmadd_ps(a0, load_b(b0 + j), cv);
          cv = _mm256_fmadd_ps(a1, load_b(b1 + j), cv);
          cv = _mm256_fmadd_ps(a2, load_b(b2 + j), cv);
          cv = _mm256_fmadd_ps(a3, load_b(b3 + j), cv);
          _mm256_storeu_ps(crr + j, cv);
        }
      }
      for (std::int64_t j = jvec; j < jend; ++j) {
        for (int rr = 0; rr < ROWS; ++rr) {
          float acc = crow[rr][j];
          acc = std::fmaf(arow[rr][l], b_value(b0[j]), acc);
          acc = std::fmaf(arow[rr][l + 1], b_value(b1[j]), acc);
          acc = std::fmaf(arow[rr][l + 2], b_value(b2[j]), acc);
          acc = std::fmaf(arow[rr][l + 3], b_value(b3[j]), acc);
          crow[rr][j] = acc;
        }
      }
    }
    for (; l < k; ++l) {
      const BT* brow = b + static_cast<std::size_t>(l) * n;
      for (int r = 0; r < ROWS; ++r) {
        const __m256 av = _mm256_broadcast_ss(arow[r] + l);
        float* crr = crow[r];
        for (std::int64_t j = j0; j < jvec; j += 8) {
          const __m256 cv = _mm256_loadu_ps(crr + j);
          _mm256_storeu_ps(crr + j, _mm256_fmadd_ps(av, load_b(brow + j), cv));
        }
        for (std::int64_t j = jvec; j < jend; ++j) {
          crr[j] = std::fmaf(arow[r][l], b_value(brow[j]), crr[j]);
        }
      }
    }
    if (scale != nullptr) {
      for (int r = 0; r < ROWS; ++r) {
        float* crr = crow[r];
        for (std::int64_t j = j0; j < jvec; j += 8) {
          _mm256_storeu_ps(crr + j, _mm256_mul_ps(_mm256_loadu_ps(crr + j),
                                                  _mm256_loadu_ps(scale + j)));
        }
        for (std::int64_t j = jvec; j < jend; ++j) crr[j] *= scale[j];
      }
    }
  }
}

// One row block of `rows` C rows (a size row_block can return) over
// columns [j_lo, j_hi).
template <typename BT>
void gemm_avx2_block(const float* a, const BT* b, const float* scale,
                     float* c, std::int64_t i0, std::int64_t j_lo,
                     std::int64_t j_hi, std::int64_t n, std::int64_t k,
                     bool accumulate, int rows, std::int64_t nc) {
  switch (rows) {
    case 32: gemm_stream_avx2<32>(a, b, scale, c, i0, j_lo, j_hi, n, k, accumulate, nc); break;
    case 16: gemm_stream_avx2<16>(a, b, scale, c, i0, j_lo, j_hi, n, k, accumulate, nc); break;
    case 8: gemm_stream_avx2<8>(a, b, scale, c, i0, j_lo, j_hi, n, k, accumulate, nc); break;
    case 7: gemm_stream_avx2<7>(a, b, scale, c, i0, j_lo, j_hi, n, k, accumulate, nc); break;
    case 6: gemm_stream_avx2<6>(a, b, scale, c, i0, j_lo, j_hi, n, k, accumulate, nc); break;
    case 5: gemm_stream_avx2<5>(a, b, scale, c, i0, j_lo, j_hi, n, k, accumulate, nc); break;
    case 4: gemm_stream_avx2<4>(a, b, scale, c, i0, j_lo, j_hi, n, k, accumulate, nc); break;
    case 3: gemm_stream_avx2<3>(a, b, scale, c, i0, j_lo, j_hi, n, k, accumulate, nc); break;
    case 2: gemm_stream_avx2<2>(a, b, scale, c, i0, j_lo, j_hi, n, k, accumulate, nc); break;
    case 1: gemm_stream_avx2<1>(a, b, scale, c, i0, j_lo, j_hi, n, k, accumulate, nc); break;
    default: break;
  }
}

#pragma GCC pop_options
#endif  // MATGPT_X86_DISPATCH

// The block of C rows [i_lo, i_hi) x columns [j_lo, j_hi), in row_block()
// blocks through the SIMD kernel, else the portable loop.
template <typename BT>
void gemm_tile(const float* a, const BT* b, const float* scale, float* c,
               std::int64_t i_lo, std::int64_t i_hi, std::int64_t j_lo,
               std::int64_t j_hi, std::int64_t n, std::int64_t k,
               bool accumulate, [[maybe_unused]] const GemmVariant& variant) {
#ifdef MATGPT_X86_DISPATCH
  if (simd_active()) {
    const std::int64_t nc = std::max<std::int64_t>(variant.nc, 8);
    for (std::int64_t i = i_lo; i < i_hi;) {
      const int rows = row_block(i_hi - i, variant.mr);
      gemm_avx2_block<BT>(a, b, scale, c, i, j_lo, j_hi, n, k, accumulate,
                          rows, nc);
      i += rows;
    }
    return;
  }
#endif
  // Without SIMD every variant runs the one scalar loop: tiling cannot
  // change results OR behavior.
  if constexpr (std::is_same_v<BT, float>) {
    gemm_nn_scalar_rows(a, b, c, i_lo, i_hi, j_lo, j_hi, n, k, accumulate);
  } else {
    gemm_quant_scalar_rows(a, b, scale, c, i_lo, i_hi, j_lo, j_hi, n, k);
  }
}

// The one GEMM driver behind every public entry point: the tiles of
// gemm_split() over the pool, each one row group or one column panel.
template <typename BT>
void gemm_run(const float* a, const BT* b, const float* scale, float* c,
              std::int64_t m, std::int64_t n, std::int64_t k, bool accumulate,
              const GemmVariant& variant) {
  auto& pool = ThreadPool::global();
  const GemmSplit split = gemm_split(m, n, k, pool.worker_count() + 1);
  const auto& cuts = split.cuts;
  auto tiles = [&](std::size_t lo, std::size_t hi) {
    if (split.by_rows) {
      gemm_tile(a, b, scale, c, cuts[lo], cuts[hi], 0, n, n, k, accumulate,
                variant);
    } else {
      gemm_tile(a, b, scale, c, 0, m, cuts[lo], cuts[hi], n, k, accumulate,
                variant);
    }
  };
  if (split.tiles() == 1) {
    tiles(0, 1);
  } else {
    pool.parallel_for(0, split.tiles(), tiles);
  }
}

}  // namespace

const char* format_name(WeightFormat format) {
  switch (format) {
    case WeightFormat::kF32: return "f32";
    case WeightFormat::kBf16: return "bf16";
    case WeightFormat::kInt8: return "int8";
  }
  return "?";
}

GemmVariant gemm_default_variant() { return GemmVariant{8, 512}; }

GemmVariant pick_variant(std::int64_t m, WeightFormat format) {
  GemmVariant variant = gemm_default_variant();
  if (format != WeightFormat::kF32 && m <= 4) variant.nc = 4096;
  return variant;
}

int row_block(std::int64_t rows_left, int mr) {
  const int block = mr >= 32 ? 32 : (mr >= 16 ? 16 : std::clamp(mr, 1, 8));
  if (rows_left >= block) return block;
  if (rows_left >= 8) return 8;
  return static_cast<int>(rows_left);
}

GemmSplit gemm_split(std::int64_t m, std::int64_t n, std::int64_t k,
                     std::size_t threads) {
  const auto t = static_cast<std::int64_t>(threads);
  // `parts` near-even cuts of [0, extent), each a multiple of `unit`.
  auto even = [](bool by_rows, std::int64_t extent, std::int64_t parts,
                 std::int64_t unit) {
    GemmSplit split{by_rows, {0}};
    for (std::int64_t p = 1; p < parts; ++p) {
      const std::int64_t cut = (p * extent / parts + unit / 2) / unit * unit;
      if (cut > split.cuts.back() && cut < extent) split.cuts.push_back(cut);
    }
    split.cuts.push_back(extent);
    return split;
  };
  if (t <= 1) return GemmSplit{true, {0, m}};
  const std::int64_t groups = std::min(
      t * (m >= kParallelRowThreshold ? 4 : 1), m / kMinGroupRows);
  if (m >= kParallelRowThreshold) return even(true, m, groups, 1);
  if (m * n * k >= kParallelPanelFmas) {
    const std::int64_t panels =
        n % kLineFloats == 0 ? std::min(t, n / kMinPanelColumns) : 1;
    if (panels >= 2 && panels >= groups) {
      return even(false, n, panels, kLineFloats);
    }
    if (groups >= 2) return even(true, m, groups, 1);
  }
  return GemmSplit{true, {0, m}};
}

bool gemm_simd_active() { return simd_active(); }

void gemm_nn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate) {
  gemm_run(a, b, nullptr, c, m, n, k, accumulate, gemm_default_variant());
}

void gemm_nn_variant(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t n, std::int64_t k, bool accumulate,
                     const GemmVariant& variant) {
  gemm_run(a, b, nullptr, c, m, n, k, accumulate, variant);
}

void gemm_nn_bf16(const float* a, const std::uint16_t* b, float* c,
                  std::int64_t m, std::int64_t n, std::int64_t k,
                  const GemmVariant& variant) {
  gemm_run(a, b, nullptr, c, m, n, k, /*accumulate=*/false, variant);
}

void gemm_nn_int8(const float* a, const std::int8_t* b, const float* scale,
                  float* c, std::int64_t m, std::int64_t n, std::int64_t k,
                  const GemmVariant& variant) {
  gemm_run(a, b, scale, c, m, n, k, /*accumulate=*/false, variant);
}

void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate) {
  for_rows(m, [=](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const float* arow = a + i * static_cast<std::size_t>(k);
      float* crow = c + i * static_cast<std::size_t>(n);
      for (std::int64_t j = 0; j < n; ++j) {
        const float* brow = b + static_cast<std::size_t>(j) * static_cast<std::size_t>(k);
        float acc = 0.0f;
        for (std::int64_t l = 0; l < k; ++l) acc += arow[l] * brow[l];
        crow[j] = accumulate ? crow[j] + acc : acc;
      }
    }
  });
}

void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate) {
  for_rows(m, [=](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      float* crow = c + i * static_cast<std::size_t>(n);
      if (!accumulate) std::memset(crow, 0, sizeof(float) * static_cast<std::size_t>(n));
      for (std::int64_t l = 0; l < k; ++l) {
        const float av = a[static_cast<std::size_t>(l) * static_cast<std::size_t>(m) + i];
        if (av == 0.0f) continue;
        const float* brow = b + static_cast<std::size_t>(l) * static_cast<std::size_t>(n);
        for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  });
}

void softmax_row(float* row, std::int64_t n) {
  float mx = row[0];
  for (std::int64_t i = 1; i < n; ++i) mx = std::max(mx, row[i]);
  double denom = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    row[i] = std::exp(row[i] - mx);
    denom += row[i];
  }
  const auto inv = static_cast<float>(1.0 / denom);
  for (std::int64_t i = 0; i < n; ++i) row[i] *= inv;
}

double logsumexp_row(const float* row, std::int64_t n) {
  float mx = row[0];
  for (std::int64_t i = 1; i < n; ++i) mx = std::max(mx, row[i]);
  double acc = 0.0;
  for (std::int64_t i = 0; i < n; ++i) acc += std::exp(row[i] - mx);
  return static_cast<double>(mx) + std::log(acc);
}

}  // namespace matgpt::kernels
