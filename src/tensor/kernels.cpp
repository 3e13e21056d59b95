#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "parallel/thread_pool.h"

#if defined(__x86_64__) && defined(__GNUC__) && !defined(MATGPT_PORTABLE)
#define MATGPT_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace matgpt::kernels {

namespace {
// Rows-of-C below which threading overhead outweighs the win.
constexpr std::int64_t kParallelRowThreshold = 64;

void for_rows(std::int64_t m,
              const std::function<void(std::size_t, std::size_t)>& body) {
  auto& pool = ThreadPool::global();
  if (m < kParallelRowThreshold || pool.worker_count() == 0) {
    body(0, static_cast<std::size_t>(m));
  } else {
    pool.parallel_for(0, static_cast<std::size_t>(m), body);
  }
}

inline float bf16_value(std::uint16_t bits) {
  const std::uint32_t u = static_cast<std::uint32_t>(bits) << 16;
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

// Portable scalar NN loop (also the tail behind the AVX2 dispatch when the
// host lacks the ISA). l-outer/j-inner keeps B reads contiguous. The
// zero-skip makes one-hot rows (embedding-style products) cheap.
void gemm_nn_scalar_rows(const float* a, const float* b, float* c,
                         std::size_t lo, std::size_t hi, std::int64_t n,
                         std::int64_t k, bool accumulate) {
  for (std::size_t i = lo; i < hi; ++i) {
    float* crow = c + i * static_cast<std::size_t>(n);
    if (!accumulate) std::memset(crow, 0, sizeof(float) * static_cast<std::size_t>(n));
    const float* arow = a + i * static_cast<std::size_t>(k);
    for (std::int64_t l = 0; l < k; ++l) {
      const float av = arow[l];
      if (av == 0.0f) continue;
      const float* brow = b + static_cast<std::size_t>(l) * static_cast<std::size_t>(n);
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// Portable quantized NN loops. Ascending-k single-rounding FMA per C
// element, then (int8) one single-rounding multiply by the column scale —
// the exact operation sequence of the AVX2 kernels below (int8->fp32 and
// bf16->fp32 widening are both value-exact), so SIMD and portable builds
// produce identical bytes.
void gemm_bf16_scalar_rows(const float* a, const std::uint16_t* b, float* c,
                           std::size_t lo, std::size_t hi, std::int64_t n,
                           std::int64_t k) {
  for (std::size_t i = lo; i < hi; ++i) {
    float* crow = c + i * static_cast<std::size_t>(n);
    std::memset(crow, 0, sizeof(float) * static_cast<std::size_t>(n));
    const float* arow = a + i * static_cast<std::size_t>(k);
    for (std::int64_t l = 0; l < k; ++l) {
      const float av = arow[l];
      const std::uint16_t* brow =
          b + static_cast<std::size_t>(l) * static_cast<std::size_t>(n);
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] = std::fmaf(av, bf16_value(brow[j]), crow[j]);
      }
    }
  }
}

void gemm_int8_scalar_rows(const float* a, const std::int8_t* b,
                           const float* scale, float* c, std::size_t lo,
                           std::size_t hi, std::int64_t n, std::int64_t k) {
  for (std::size_t i = lo; i < hi; ++i) {
    float* crow = c + i * static_cast<std::size_t>(n);
    std::memset(crow, 0, sizeof(float) * static_cast<std::size_t>(n));
    const float* arow = a + i * static_cast<std::size_t>(k);
    for (std::int64_t l = 0; l < k; ++l) {
      const float av = arow[l];
      const std::int8_t* brow =
          b + static_cast<std::size_t>(l) * static_cast<std::size_t>(n);
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] = std::fmaf(av, static_cast<float>(brow[j]), crow[j]);
      }
    }
    for (std::int64_t j = 0; j < n; ++j) crow[j] *= scale[j];
  }
}

#ifdef MATGPT_X86_DISPATCH
#pragma GCC push_options
#pragma GCC target("avx2,fma")

// Streaming NN microkernel, templated on the number of C rows it carries,
// with a runtime column-chunk size `nc` (the cache-block knob pick_variant
// sets; the historical fixed kernel is ROWS=8, nc=512).
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
// single-rounding FMAs — identical in the vector body, the scalar column
// tail, and for every ROWS/nc. A row's result depends only on (its A row,
// B), never on how many rows share the call or how columns are chunked,
// which is what keeps the serving engine's ragged-batch decode (and any
// tiling choice) bit-identical to batch-1 decoding.
template <int ROWS>
void gemm_nn_stream_avx2(const float* a, const float* b, float* c,
                         std::int64_t i0, std::int64_t n, std::int64_t k,
                         bool accumulate, std::int64_t nc) {
  const float* arow[ROWS];
  float* crow[ROWS];
  for (int r = 0; r < ROWS; ++r) {
    arow[r] = a + static_cast<std::size_t>(i0 + r) * static_cast<std::size_t>(k);
    crow[r] = c + static_cast<std::size_t>(i0 + r) * static_cast<std::size_t>(n);
  }
  for (std::int64_t j0 = 0; j0 < n; j0 += nc) {
    const std::int64_t jend = std::min(n, j0 + nc);
    const std::int64_t jvec = j0 + ((jend - j0) / 8) * 8;
    if (!accumulate) {
      for (int r = 0; r < ROWS; ++r) {
        std::memset(crow[r] + j0, 0,
                    sizeof(float) * static_cast<std::size_t>(jend - j0));
      }
    }
    std::int64_t l = 0;
    for (; l + 4 <= k; l += 4) {
      const float* b0 = b + static_cast<std::size_t>(l) * n;
      const float* b1 = b0 + n;
      const float* b2 = b1 + n;
      const float* b3 = b2 + n;
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
          const __m256 bv0 = _mm256_loadu_ps(b0 + j);
          const __m256 bv1 = _mm256_loadu_ps(b1 + j);
          const __m256 bv2 = _mm256_loadu_ps(b2 + j);
          const __m256 bv3 = _mm256_loadu_ps(b3 + j);
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
          cv = _mm256_fmadd_ps(a0, _mm256_loadu_ps(b0 + j), cv);
          cv = _mm256_fmadd_ps(a1, _mm256_loadu_ps(b1 + j), cv);
          cv = _mm256_fmadd_ps(a2, _mm256_loadu_ps(b2 + j), cv);
          cv = _mm256_fmadd_ps(a3, _mm256_loadu_ps(b3 + j), cv);
          _mm256_storeu_ps(crr + j, cv);
        }
      }
      for (std::int64_t j = jvec; j < jend; ++j) {
        for (int rr = 0; rr < ROWS; ++rr) {
          float acc = crow[rr][j];
          acc = std::fmaf(arow[rr][l], b0[j], acc);
          acc = std::fmaf(arow[rr][l + 1], b1[j], acc);
          acc = std::fmaf(arow[rr][l + 2], b2[j], acc);
          acc = std::fmaf(arow[rr][l + 3], b3[j], acc);
          crow[rr][j] = acc;
        }
      }
    }
    for (; l < k; ++l) {
      const float* brow = b + static_cast<std::size_t>(l) * n;
      for (int r = 0; r < ROWS; ++r) {
        const __m256 av = _mm256_broadcast_ss(arow[r] + l);
        float* crr = crow[r];
        for (std::int64_t j = j0; j < jvec; j += 8) {
          const __m256 cv = _mm256_loadu_ps(crr + j);
          _mm256_storeu_ps(crr + j,
                           _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + j), cv));
        }
        for (std::int64_t j = jvec; j < jend; ++j) {
          crr[j] = std::fmaf(arow[r][l], brow[j], crr[j]);
        }
      }
    }
  }
}

// One row-block of `rows` C rows at the given tiling.
void gemm_nn_avx2_block(const float* a, const float* b, float* c,
                        std::int64_t i0, std::int64_t n, std::int64_t k,
                        bool accumulate, int rows, std::int64_t nc) {
  switch (rows) {
    case 32: gemm_nn_stream_avx2<32>(a, b, c, i0, n, k, accumulate, nc); break;
    case 16: gemm_nn_stream_avx2<16>(a, b, c, i0, n, k, accumulate, nc); break;
    case 8: gemm_nn_stream_avx2<8>(a, b, c, i0, n, k, accumulate, nc); break;
    case 7: gemm_nn_stream_avx2<7>(a, b, c, i0, n, k, accumulate, nc); break;
    case 6: gemm_nn_stream_avx2<6>(a, b, c, i0, n, k, accumulate, nc); break;
    case 5: gemm_nn_stream_avx2<5>(a, b, c, i0, n, k, accumulate, nc); break;
    case 4: gemm_nn_stream_avx2<4>(a, b, c, i0, n, k, accumulate, nc); break;
    case 3: gemm_nn_stream_avx2<3>(a, b, c, i0, n, k, accumulate, nc); break;
    case 2: gemm_nn_stream_avx2<2>(a, b, c, i0, n, k, accumulate, nc); break;
    case 1: gemm_nn_stream_avx2<1>(a, b, c, i0, n, k, accumulate, nc); break;
    default: break;
  }
}

// fp32 row blocks supported as a primary tiling (the remainder always
// decomposes into 8..1 blocks, which exist as templates anyway).
int clamp_mr_f32(int mr) {
  if (mr >= 32) return 32;
  if (mr >= 16) return 16;
  return std::clamp(mr, 1, 8);
}

void gemm_nn_avx2_rows(const float* a, const float* b, float* c,
                       std::int64_t lo, std::int64_t hi, std::int64_t n,
                       std::int64_t k, bool accumulate, int mr,
                       std::int64_t nc) {
  std::int64_t i = lo;
  for (; i + mr <= hi; i += mr) {
    gemm_nn_avx2_block(a, b, c, i, n, k, accumulate, mr, nc);
  }
  for (; i + 8 <= hi; i += 8) {
    gemm_nn_avx2_block(a, b, c, i, n, k, accumulate, 8, nc);
  }
  if (i < hi) {
    gemm_nn_avx2_block(a, b, c, i, n, k, accumulate,
                       static_cast<int>(hi - i), nc);
  }
}

// ---- Weight-quantized streaming kernels ------------------------------------
//
// Same skeleton as the fp32 kernel: (column chunk, k-block of 4, columns),
// B read once contiguously, each widened B vector shared across a row
// pair's hoisted broadcasts. The only differences are the B widening at
// load time (exact: int8 and bf16 both embed losslessly in fp32) and, for
// int8, a per-chunk scale pass after the chunk's k loop completes — one
// single-rounding multiply per C element, mirrored exactly by the scalar
// tail and portable fallback. No accumulate mode: the scale pass could not
// compose with pre-existing partial sums.

inline __m256 widen_q8(const std::int8_t* p) {
  return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))));
}

inline __m256 widen_bf16(const std::uint16_t* p) {
  return _mm256_castsi256_ps(_mm256_slli_epi32(
      _mm256_cvtepu16_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))),
      16));
}

template <typename BT>
inline __m256 widen_b(const BT* p) {
  if constexpr (std::is_same_v<BT, std::int8_t>) {
    return widen_q8(p);
  } else {
    return widen_bf16(p);
  }
}

template <typename BT>
inline float b_value(BT v) {
  if constexpr (std::is_same_v<BT, std::int8_t>) {
    return static_cast<float>(v);
  } else {
    return bf16_value(v);
  }
}

template <int ROWS, typename BT>
void gemm_quant_stream_avx2(const float* a, const BT* b, const float* scale,
                            float* c, std::int64_t i0, std::int64_t n,
                            std::int64_t k, std::int64_t nc) {
  const float* arow[ROWS];
  float* crow[ROWS];
  for (int r = 0; r < ROWS; ++r) {
    arow[r] = a + static_cast<std::size_t>(i0 + r) * static_cast<std::size_t>(k);
    crow[r] = c + static_cast<std::size_t>(i0 + r) * static_cast<std::size_t>(n);
  }
  for (std::int64_t j0 = 0; j0 < n; j0 += nc) {
    const std::int64_t jend = std::min(n, j0 + nc);
    const std::int64_t jvec = j0 + ((jend - j0) / 8) * 8;
    for (int r = 0; r < ROWS; ++r) {
      std::memset(crow[r] + j0, 0,
                  sizeof(float) * static_cast<std::size_t>(jend - j0));
    }
    std::int64_t l = 0;
    for (; l + 4 <= k; l += 4) {
      const BT* b0 = b + static_cast<std::size_t>(l) * n;
      const BT* b1 = b0 + n;
      const BT* b2 = b1 + n;
      const BT* b3 = b2 + n;
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
          const __m256 bv0 = widen_b(b0 + j);
          const __m256 bv1 = widen_b(b1 + j);
          const __m256 bv2 = widen_b(b2 + j);
          const __m256 bv3 = widen_b(b3 + j);
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
          cv = _mm256_fmadd_ps(a0, widen_b(b0 + j), cv);
          cv = _mm256_fmadd_ps(a1, widen_b(b1 + j), cv);
          cv = _mm256_fmadd_ps(a2, widen_b(b2 + j), cv);
          cv = _mm256_fmadd_ps(a3, widen_b(b3 + j), cv);
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
          _mm256_storeu_ps(crr + j, _mm256_fmadd_ps(av, widen_b(brow + j), cv));
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

template <typename BT>
void gemm_quant_avx2_block(const float* a, const BT* b, const float* scale,
                           float* c, std::int64_t i0, std::int64_t n,
                           std::int64_t k, int rows, std::int64_t nc) {
  switch (rows) {
    case 8: gemm_quant_stream_avx2<8, BT>(a, b, scale, c, i0, n, k, nc); break;
    case 4: gemm_quant_stream_avx2<4, BT>(a, b, scale, c, i0, n, k, nc); break;
    case 2: gemm_quant_stream_avx2<2, BT>(a, b, scale, c, i0, n, k, nc); break;
    case 1: gemm_quant_stream_avx2<1, BT>(a, b, scale, c, i0, n, k, nc); break;
    default: break;
  }
}

// Quant row blocks come in powers of two up to 8; the remainder decomposes
// greedily (e.g. 7 rows -> 4 + 2 + 1).
template <typename BT>
void gemm_quant_avx2_rows(const float* a, const BT* b, const float* scale,
                          float* c, std::int64_t lo, std::int64_t hi,
                          std::int64_t n, std::int64_t k, int mr,
                          std::int64_t nc) {
  int qmr = 1;
  while (qmr * 2 <= std::min(mr, 8)) qmr *= 2;
  std::int64_t i = lo;
  for (; i + qmr <= hi; i += qmr) {
    gemm_quant_avx2_block<BT>(a, b, scale, c, i, n, k, qmr, nc);
  }
  for (int rows = 4; rows >= 1; rows /= 2) {
    for (; i + rows <= hi; i += rows) {
      gemm_quant_avx2_block<BT>(a, b, scale, c, i, n, k, rows, nc);
    }
  }
}

#pragma GCC pop_options

bool use_avx2_fma() {
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
}
#endif  // MATGPT_X86_DISPATCH

std::int64_t clamp_nc(std::int64_t nc) { return std::max<std::int64_t>(nc, 8); }

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

bool gemm_simd_active() {
#ifdef MATGPT_X86_DISPATCH
  return use_avx2_fma();
#else
  return false;
#endif
}

void gemm_nn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate) {
  gemm_nn_variant(a, b, c, m, n, k, accumulate, gemm_default_variant());
}

void gemm_nn_variant(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t n, std::int64_t k, bool accumulate,
                     const GemmVariant& variant) {
#ifdef MATGPT_X86_DISPATCH
  if (use_avx2_fma()) {
    const int mr = clamp_mr_f32(variant.mr);
    const std::int64_t nc = clamp_nc(variant.nc);
    for_rows(m, [=](std::size_t lo, std::size_t hi) {
      gemm_nn_avx2_rows(a, b, c, static_cast<std::int64_t>(lo),
                        static_cast<std::int64_t>(hi), n, k, accumulate, mr,
                        nc);
    });
    return;
  }
#endif
  // Without SIMD every variant runs the one scalar loop: tiling cannot
  // change results OR behavior.
  for_rows(m, [=](std::size_t lo, std::size_t hi) {
    gemm_nn_scalar_rows(a, b, c, lo, hi, n, k, accumulate);
  });
}

void gemm_nn_bf16(const float* a, const std::uint16_t* b, float* c,
                  std::int64_t m, std::int64_t n, std::int64_t k,
                  const GemmVariant& variant) {
#ifdef MATGPT_X86_DISPATCH
  if (use_avx2_fma()) {
    const std::int64_t nc = clamp_nc(variant.nc);
    for_rows(m, [=](std::size_t lo, std::size_t hi) {
      gemm_quant_avx2_rows<std::uint16_t>(
          a, b, nullptr, c, static_cast<std::int64_t>(lo),
          static_cast<std::int64_t>(hi), n, k, variant.mr, nc);
    });
    return;
  }
#endif
  for_rows(m, [=](std::size_t lo, std::size_t hi) {
    gemm_bf16_scalar_rows(a, b, c, lo, hi, n, k);
  });
}

void gemm_nn_int8(const float* a, const std::int8_t* b, const float* scale,
                  float* c, std::int64_t m, std::int64_t n, std::int64_t k,
                  const GemmVariant& variant) {
#ifdef MATGPT_X86_DISPATCH
  if (use_avx2_fma()) {
    const std::int64_t nc = clamp_nc(variant.nc);
    for_rows(m, [=](std::size_t lo, std::size_t hi) {
      gemm_quant_avx2_rows<std::int8_t>(
          a, b, scale, c, static_cast<std::int64_t>(lo),
          static_cast<std::int64_t>(hi), n, k, variant.mr, nc);
    });
    return;
  }
#endif
  for_rows(m, [=](std::size_t lo, std::size_t hi) {
    gemm_int8_scalar_rows(a, b, scale, c, lo, hi, n, k);
  });
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
