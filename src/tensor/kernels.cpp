#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "parallel/thread_pool.h"
#include "tensor/gemm_width.h"
#include "tensor/simd.h"

namespace matgpt::kernels {

namespace {

constexpr std::int64_t kLineFloats = 64 / sizeof(float);  // one cache line

void for_rows(std::int64_t m,
              const std::function<void(std::size_t, std::size_t)>& body) {
  if (m < kParallelRowThreshold) {
    body(0, static_cast<std::size_t>(m));
  } else {
    ThreadPool::current().parallel_for(0, static_cast<std::size_t>(m), body);
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

// Portable scalar fp32 NN loop over one panel (also the path behind the
// SIMD dispatch when the host lacks the ISA): C rows [i_lo, i_hi), `width`
// columns. l-outer/j-inner keeps B reads contiguous. The zero-skip makes
// one-hot rows (embedding-style products) cheap.
void gemm_nn_scalar_rows(const float* a, std::int64_t k, const float* b,
                         std::int64_t ldb, float* c, std::int64_t ldc,
                         std::int64_t width, std::int64_t i_lo,
                         std::int64_t i_hi, bool accumulate) {
  for (std::int64_t i = i_lo; i < i_hi; ++i) {
    float* crow = c + i * ldc;
    if (!accumulate) {
      std::memset(crow, 0, sizeof(float) * static_cast<std::size_t>(width));
    }
    const float* arow = a + i * k;
    for (std::int64_t l = 0; l < k; ++l) {
      const float av = arow[l];
      if (av == 0.0f) continue;
      const float* brow = b + l * ldb;
      for (std::int64_t j = 0; j < width; ++j) crow[j] += av * brow[j];
    }
  }
}

// Portable quantized NN loop over one panel. Ascending-k single-rounding
// FMA per C element, then (int8, `scale` non-null) one single-rounding
// multiply by the column scale — the exact operation sequence of the
// register kernel below, so SIMD and portable builds produce identical
// bytes.
template <typename BT>
void gemm_quant_scalar_rows(const float* a, std::int64_t k, const BT* b,
                            std::int64_t ldb, const float* scale, float* c,
                            std::int64_t ldc, std::int64_t width,
                            std::int64_t i_lo, std::int64_t i_hi) {
  for (std::int64_t i = i_lo; i < i_hi; ++i) {
    float* crow = c + i * ldc;
    std::memset(crow, 0, sizeof(float) * static_cast<std::size_t>(width));
    const float* arow = a + i * k;
    for (std::int64_t l = 0; l < k; ++l) {
      const float av = arow[l];
      const BT* brow = b + l * ldb;
      for (std::int64_t j = 0; j < width; ++j) {
        crow[j] = std::fmaf(av, b_value(brow[j]), crow[j]);
      }
    }
    if (scale != nullptr) {
      for (std::int64_t j = 0; j < width; ++j) crow[j] *= scale[j];
    }
  }
}

// One panel of a GEMM: `width` columns of B starting at `b`, whose rows
// lie `ldb` elements apart (the panel width when packed, n when B is
// row-major), and the matching columns of C (rows `ldc` floats apart) and,
// for int8, of the column scales.
template <typename BT>
struct Panel {
  const BT* b;
  std::int64_t ldb;
  std::int64_t width;
  const float* scale;
  float* c;
  std::int64_t ldc;
};

#ifdef MATGPT_X86_DISPATCH
#pragma GCC push_options
#pragma GCC target("avx2,fma")

// The streaming NN microkernel over one wide panel of fp32 B (row-major B
// as one panel, or one of its column panels): ROWS rows of A (`k` floats
// apart) times `width` columns of B whose rows lie `ldb` floats apart, into
// C rows `ldc` floats apart, kStreamChunkFloats columns of C at a time.
//
// Loop order is (column chunk, k-block of 4, columns): B is read exactly
// once per call in row segments (prefetch-friendly — a column-tiled kernel
// would walk B at stride n and die of cache-miss latency on serving-sized
// weight matrices), while the ROWS-row C chunk stays L1-resident.
// Sharing each B load across ROWS rows is the whole point: one row
// (batch-1 decode) is B-bandwidth-bound, eight rows (a full serving batch)
// run at FMA throughput from the same traffic.
//
// Numerics: every C element accumulates its k terms in ascending order with
// single-rounding FMAs — identical in the vector body, the scalar column
// tail, and for every ROWS. A row's result depends only on (its A row, B),
// never on how many rows share the call or how columns are chunked, which
// is what keeps the serving engine's ragged-batch decode bit-identical to
// batch-1 decoding.
template <int ROWS>
void gemm_stream_avx2(const float* a, std::int64_t k, const float* b,
                      std::int64_t ldb, float* c, std::int64_t ldc,
                      std::int64_t width, bool accumulate) {
  const float* arow[ROWS];
  float* crow[ROWS];
  for (int r = 0; r < ROWS; ++r) {
    arow[r] = a + static_cast<std::size_t>(r) * static_cast<std::size_t>(k);
    crow[r] = c + static_cast<std::size_t>(r) * static_cast<std::size_t>(ldc);
  }
  for (std::int64_t j0 = 0; j0 < width; j0 += kStreamChunkFloats) {
    const std::int64_t jend = std::min(width, j0 + kStreamChunkFloats);
    const std::int64_t jvec = j0 + ((jend - j0) / 8) * 8;
    if (!accumulate) {
      for (int r = 0; r < ROWS; ++r) {
        std::memset(crow[r] + j0, 0,
                    sizeof(float) * static_cast<std::size_t>(jend - j0));
      }
    }
    std::int64_t l = 0;
    for (; l + 4 <= k; l += 4) {
      const float* b0 = b + static_cast<std::size_t>(l) * ldb;
      const float* b1 = b0 + ldb;
      const float* b2 = b1 + ldb;
      const float* b3 = b2 + ldb;
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
      const float* brow = b + static_cast<std::size_t>(l) * ldb;
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

// One row block of `rows` C rows (a size row_block can return) over one
// panel.
void gemm_stream_block(const float* a, std::int64_t k, const float* b,
                       std::int64_t ldb, float* c, std::int64_t ldc,
                       std::int64_t width, bool accumulate, int rows) {
  switch (rows) {
#define MATGPT_GEMM_ROWS(R)                                           \
  case R:                                                             \
    gemm_stream_avx2<R>(a, k, b, ldb, c, ldc, width, accumulate);     \
    break;
    MATGPT_GEMM_ROWS(8)
    MATGPT_GEMM_ROWS(7)
    MATGPT_GEMM_ROWS(6)
    MATGPT_GEMM_ROWS(5)
    MATGPT_GEMM_ROWS(4)
    MATGPT_GEMM_ROWS(3)
    MATGPT_GEMM_ROWS(2)
    MATGPT_GEMM_ROWS(1)
#undef MATGPT_GEMM_ROWS
    default: break;
  }
}

// The register kernel's vector traits, one per width: a B vector widened
// to fp32 (bf16 and int8 exactly), a broadcast A element, the FMA, the
// int8 column-scale multiply and the store. Each is compiled for its own
// ISA; the kernel body below is shared.
struct Ymm {
  using V = __m256;
  static constexpr int kLanes = 8;
  static V zero() { return _mm256_setzero_ps(); }
  static V broadcast(const float* p) { return _mm256_broadcast_ss(p); }
  template <typename BT>
  static V load(const BT* p) {
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
  static V fma(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  static V scale(V x, const float* s) {
    return _mm256_mul_ps(x, _mm256_loadu_ps(s));
  }
  static void store(float* p, V x) { _mm256_storeu_ps(p, x); }
};

#pragma GCC pop_options
#pragma GCC push_options
#pragma GCC target("avx512f,avx2,fma")

struct Zmm {
  using V = __m512;
  static constexpr int kLanes = 16;
  static V zero() { return _mm512_setzero_ps(); }
  static V broadcast(const float* p) { return _mm512_set1_ps(*p); }
  template <typename BT>
  static V load(const BT* p) {
    // The maskz forms with every lane set are the plain instructions; the
    // plain intrinsics trip GCC 12's -Wmaybe-uninitialized on their
    // undefined pass-through operand.
    constexpr __mmask16 kAll = 0xffff;
    if constexpr (std::is_same_v<BT, std::int8_t>) {
      return _mm512_maskz_cvtepi32_ps(
          kAll, _mm512_maskz_cvtepi8_epi32(
                    kAll, _mm_loadu_si128(
                              reinterpret_cast<const __m128i*>(p))));
    } else if constexpr (std::is_same_v<BT, std::uint16_t>) {
      return _mm512_castsi512_ps(_mm512_maskz_slli_epi32(
          kAll,
          _mm512_maskz_cvtepu16_epi32(
              kAll, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))),
          16));
    } else {
      return _mm512_loadu_ps(p);
    }
  }
  static V fma(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
  static V scale(V x, const float* s) {
    return _mm512_mul_ps(x, _mm512_loadu_ps(s));
  }
  static void store(float* p, V x) { _mm512_storeu_ps(p, x); }
};

#pragma GCC pop_options

template <int Lanes>
using VecOf = std::conditional_t<Lanes == 16, Zmm, Ymm>;

// The register kernel body, shared by both widths. It carries no target of
// its own: every function here is always_inline, so it is compiled inside
// the width's entry point below, with that entry's ISA. (GCC's -Wpsabi
// notes that a vector-typed value crosses a function without the ISA; none
// does once inlined.)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

// R C rows by V vectors of VT::kLanes columns accumulate in registers over
// all k, one B row segment loaded per step and shared by the R rows, and C
// is written once. The k terms of each element form one ascending
// single-rounding FMA chain from zero, then (int8) one multiply by the
// column scale, so fp32 bytes equal the streaming kernel's and neither the
// width nor the tile changes any format's bytes.
template <typename VT, int R, int V, typename BT>
[[gnu::always_inline]] inline void panel_strip(const float* a,
                                               std::int64_t k, const BT* b,
                                               std::int64_t ldb,
                                               const float* scale, float* c,
                                               std::int64_t ldc) {
  typename VT::V acc[R][V];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) acc[r][v] = VT::zero();
  }
  for (std::int64_t l = 0; l < k; ++l) {
    const BT* brow = b + static_cast<std::size_t>(l) * ldb;
    typename VT::V av[R];
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) av[r] = VT::broadcast(a + r * k + l);
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      typename VT::V bv = VT::template load<BT>(brow + VT::kLanes * v);
      // Keep the B vector in a register: GCC otherwise folds the load into
      // each of the R FMAs, and three or two rows then emit R loads per
      // vector instead of one (the 3 x 4-zmm pass ran ~1.5x slower).
      if constexpr (R > 1) asm("" : "+v"(bv));
#pragma GCC unroll 8
      for (int r = 0; r < R; ++r) acc[r][v] = VT::fma(av[r], bv, acc[r][v]);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      typename VT::V x = acc[r][v];
      if (scale != nullptr) x = VT::scale(x, scale + VT::kLanes * v);
      VT::store(c + r * ldc + VT::kLanes * v, x);
    }
  }
}

// One pass of `tile` over a narrow panel: strips of lanes x vectors
// columns, then single vectors, then (512-bit) single 256-bit vectors,
// then scalar columns.
template <RowTile tile, typename BT>
[[gnu::always_inline]] inline void panel_pass(const float* a,
                                              std::int64_t k,
                                              const Panel<BT>& pn, float* c) {
  using VT = VecOf<tile.lanes>;
  constexpr int R = tile.rows;
  constexpr std::int64_t kStrip = VT::kLanes * tile.vectors;
  const float* scale = pn.scale;
  auto at = [&](std::int64_t j) {
    return scale != nullptr ? scale + j : nullptr;
  };
  std::int64_t j = 0;
  for (; j + kStrip <= pn.width; j += kStrip) {
    panel_strip<VT, R, tile.vectors>(a, k, pn.b + j, pn.ldb, at(j), c + j,
                                     pn.ldc);
  }
  for (; j + VT::kLanes <= pn.width; j += VT::kLanes) {
    panel_strip<VT, R, 1>(a, k, pn.b + j, pn.ldb, at(j), c + j, pn.ldc);
  }
  if constexpr (VT::kLanes > Ymm::kLanes) {
    for (; j + Ymm::kLanes <= pn.width; j += Ymm::kLanes) {
      panel_strip<Ymm, R, 1>(a, k, pn.b + j, pn.ldb, at(j), c + j, pn.ldc);
    }
  }
  for (; j < pn.width; ++j) {
    for (int r = 0; r < R; ++r) {
      float acc = 0.0f;
      for (std::int64_t l = 0; l < k; ++l) {
        acc = std::fmaf(a[r * k + l], b_value(pn.b[l * pn.ldb + j]), acc);
      }
      c[r * pn.ldc + j] = scale != nullptr ? acc * scale[j] : acc;
    }
  }
}

// `rows` C rows of one narrow panel by the row-tile table `tiles`, from
// entry I on: as many passes of entry I as fit, then the next entry.
template <const auto& tiles, std::size_t I = 0, typename BT>
[[gnu::always_inline]] inline void panel_rows(const float* a, std::int64_t k,
                                              const Panel<BT>& pn, float* c,
                                              std::int64_t rows) {
  constexpr RowTile tile = tiles[I];
  for (; rows >= tile.rows; rows -= tile.rows) {
    panel_pass<tile>(a, k, pn, c);
    a += tile.rows * k;
    c += tile.rows * pn.ldc;
  }
  if constexpr (I + 1 < std::size(tiles)) {
    panel_rows<tiles, I + 1>(a, k, pn, c, rows);
  }
}

#pragma GCC diagnostic pop

// The entry points, one per width: the shared body compiled for its ISA.
#pragma GCC push_options
#pragma GCC target("avx2,fma")
template <typename BT>
void panel_avx2(const float* a, std::int64_t k, const Panel<BT>& pn,
                float* c, std::int64_t rows) {
  panel_rows<kAvx2RowTiles>(a, k, pn, c, rows);
}
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f,avx2,fma")
template <typename BT>
void panel_avx512(const float* a, std::int64_t k, const Panel<BT>& pn,
                  float* c, std::int64_t rows) {
  panel_rows<kAvx512RowTiles>(a, k, pn, c, rows);
}
#pragma GCC pop_options
#endif  // MATGPT_X86_DISPATCH

// C rows [i_lo, i_hi) of panels [p_lo, p_hi), panel by panel, so a tile
// streams each panel of B in once and its later rows re-read it from
// cache: through the register kernel at `width` when the panel is at most
// kPanelFloats wide (every packed panel), else the streaming kernel in
// row_block() blocks; at kPortable, the portable loop. Quantized B is
// always packed, so only fp32 reaches the streaming kernel.
template <typename BT>
void gemm_tile([[maybe_unused]] VectorWidth width, const float* a,
               std::int64_t k, const Panel<BT>* panels, std::size_t p_lo,
               std::size_t p_hi, std::int64_t i_lo, std::int64_t i_hi,
               bool accumulate) {
#ifdef MATGPT_X86_DISPATCH
  if (width != VectorWidth::kPortable) {
    for (std::size_t p = p_lo; p < p_hi; ++p) {
      const Panel<BT>& pn = panels[p];
      if (pn.width <= kPanelFloats && !accumulate) {
        if (width == VectorWidth::kAvx512) {
          panel_avx512<BT>(a + i_lo * k, k, pn, pn.c + i_lo * pn.ldc,
                           i_hi - i_lo);
        } else {
          panel_avx2<BT>(a + i_lo * k, k, pn, pn.c + i_lo * pn.ldc,
                         i_hi - i_lo);
        }
        continue;
      }
      if constexpr (std::is_same_v<BT, float>) {
        for (std::int64_t i = i_lo; i < i_hi;) {
          const int rows = row_block(i_hi - i);
          gemm_stream_block(a + i * k, k, pn.b, pn.ldb, pn.c + i * pn.ldc,
                            pn.ldc, pn.width, accumulate, rows);
          i += rows;
        }
      }
    }
    return;
  }
#endif
  for (std::size_t p = p_lo; p < p_hi; ++p) {
    const Panel<BT>& pn = panels[p];
    if constexpr (std::is_same_v<BT, float>) {
      gemm_nn_scalar_rows(a, k, pn.b, pn.ldb, pn.c, pn.ldc, pn.width, i_lo,
                          i_hi, accumulate);
    } else {
      gemm_quant_scalar_rows(a, k, pn.b, pn.ldb, pn.scale, pn.c, pn.ldc,
                             pn.width, i_lo, i_hi);
    }
  }
}

// The one GEMM driver behind both public entry points: the tiles of
// `split` over the pool, each a range of C rows over every panel or a
// range of panels over every row.
template <typename BT>
void gemm_run(VectorWidth width, const float* a, std::int64_t m,
              std::int64_t k, const std::vector<Panel<BT>>& panels,
              const GemmSplit& split, bool accumulate) {
  const auto& cuts = split.cuts;
  auto tiles = [&](std::size_t lo, std::size_t hi) {
    if (split.by_rows) {
      gemm_tile(width, a, k, panels.data(), 0, panels.size(), cuts[lo],
                cuts[hi], accumulate);
    } else {
      gemm_tile(width, a, k, panels.data(),
                static_cast<std::size_t>(cuts[lo]),
                static_cast<std::size_t>(cuts[hi]), 0, m, accumulate);
    }
  };
  if (split.tiles() == 1) {
    tiles(0, 1);
  } else {
    ThreadPool::current().parallel_for(0, split.tiles(), tiles);
  }
}

// Every kPanelFloats-column panel of every packed GEMM of a job, in order.
template <typename BT>
std::vector<Panel<BT>> packed_panels(std::span<const PackedGemm> gemms,
                                     std::int64_t k) {
  std::vector<Panel<BT>> panels;
  for (const PackedGemm& g : gemms) {
    const BT* b = static_cast<const BT*>(g.b);
    for (std::int64_t j0 = 0; j0 < g.n; j0 += kPanelFloats) {
      const std::int64_t width = std::min(kPanelFloats, g.n - j0);
      panels.push_back({b + j0 * k, width, width,
                        g.scale != nullptr ? g.scale + j0 : nullptr, g.c + j0,
                        g.n});
    }
  }
  return panels;
}

// `parts` near-even cuts of [0, extent), each a multiple of `unit`.
GemmSplit even_split(bool by_rows, std::int64_t extent, std::int64_t parts,
                     std::int64_t unit) {
  GemmSplit split{by_rows, {0}};
  for (std::int64_t p = 1; p < parts; ++p) {
    const std::int64_t cut = (p * extent / parts + unit / 2) / unit * unit;
    if (cut > split.cuts.back() && cut < extent) split.cuts.push_back(cut);
  }
  split.cuts.push_back(extent);
  return split;
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

int row_block(std::int64_t rows_left) {
  return static_cast<int>(std::min<std::int64_t>(rows_left, kStreamRows));
}

GemmSplit gemm_split(std::int64_t m, std::int64_t n, std::int64_t k,
                     std::size_t threads) {
  const auto t = static_cast<std::int64_t>(threads);
  if (t <= 1) return GemmSplit{true, {0, m}};
  const std::int64_t groups = std::min(
      t * (m >= kParallelRowThreshold ? 4 : 1), m / kMinGroupRows);
  if (m >= kParallelRowThreshold) return even_split(true, m, groups, 1);
  if (m * n * k >= kParallelPanelFmas) {
    const std::int64_t panels =
        n % kLineFloats == 0 ? std::min(t, n / kMinPanelColumns) : 1;
    if (panels >= 2 && panels >= groups) {
      return even_split(false, n, panels, kLineFloats);
    }
    if (groups >= 2) return even_split(true, m, groups, 1);
  }
  return GemmSplit{true, {0, m}};
}

GemmSplit packed_split(std::int64_t m, std::int64_t n, std::int64_t k,
                       std::int64_t panels, std::size_t threads) {
  const auto t = static_cast<std::int64_t>(threads);
  if (t <= 1) return GemmSplit{true, {0, m}};
  if (m >= kParallelRowThreshold) {
    // Groups of whole passes of the widest register tile: cut m / height
    // units of `height` rows, and the last group takes the rows left over.
    const std::int64_t height =
        std::max<std::int64_t>(kMinGroupRows, tile_height());
    const std::int64_t units = m / height;
    GemmSplit split = even_split(true, units, std::min(4 * t, units), 1);
    for (std::int64_t& cut : split.cuts) cut *= height;
    split.cuts.back() = m;
    return split;
  }
  if (packed_job_splits(m, n, k) && panels >= 2) {
    return even_split(false, panels, std::min(t, panels), 1);
  }
  return GemmSplit{true, {0, m}};
}

std::int64_t packed_index(std::int64_t l, std::int64_t j, std::int64_t k,
                          std::int64_t n) {
  const std::int64_t j0 = j / kPanelFloats * kPanelFloats;
  return j0 * k + l * std::min(kPanelFloats, n - j0) + (j - j0);
}

void pack_panels(float* w, std::int64_t k, std::int64_t n) {
  const std::int64_t full = n / kPanelFloats;  // full-width panels
  const std::int64_t tail = n - full * kPanelFloats;
  const auto row_bytes = [](std::int64_t floats) {
    return sizeof(float) * static_cast<std::size_t>(floats);
  };
  // Set the tail columns aside and close up the rows, so B is a k x full
  // matrix of 64-float blocks; the tail panel goes back in at the end.
  std::vector<float> tail_cols(static_cast<std::size_t>(k * tail));
  if (tail > 0) {
    for (std::int64_t l = 0; l < k; ++l) {
      std::memcpy(tail_cols.data() + l * tail, w + l * n + full * kPanelFloats,
                  row_bytes(tail));
      if (l > 0) {
        std::memmove(w + l * full * kPanelFloats, w + l * n,
                     row_bytes(full * kPanelFloats));
      }
    }
  }
  // Transpose the block matrix in place by following each permutation
  // cycle: block (l, p) moves to panel position p * k + l.
  const std::int64_t blocks = k * full;
  std::vector<bool> moved(static_cast<std::size_t>(blocks), false);
  float held[kPanelFloats];
  auto block = [&](std::int64_t at) { return w + at * kPanelFloats; };
  for (std::int64_t start = 0; start < blocks; ++start) {
    if (moved[static_cast<std::size_t>(start)]) continue;
    std::memcpy(held, block(start), sizeof(held));
    for (std::int64_t at = start;;) {
      moved[static_cast<std::size_t>(at)] = true;
      const std::int64_t from = at % k * full + at / k;
      if (from == start) {
        std::memcpy(block(at), held, sizeof(held));
        break;
      }
      std::memcpy(block(at), block(from), sizeof(held));
      at = from;
    }
  }
  if (tail > 0) {
    std::memcpy(w + blocks * kPanelFloats, tail_cols.data(),
                row_bytes(k * tail));
  }
}

void unpack_panels(const float* packed, float* out, std::int64_t k,
                   std::int64_t n) {
  for (std::int64_t j0 = 0; j0 < n; j0 += kPanelFloats) {
    const std::int64_t width = std::min(kPanelFloats, n - j0);
    const float* panel = packed + j0 * k;
    for (std::int64_t l = 0; l < k; ++l) {
      std::memcpy(out + l * n + j0, panel + l * width,
                  sizeof(float) * static_cast<std::size_t>(width));
    }
  }
}

bool gemm_simd_active() { return simd_active(); }

const char* width_name(VectorWidth width) {
  switch (width) {
    case VectorWidth::kPortable: return "portable";
    case VectorWidth::kAvx2: return "avx2";
    case VectorWidth::kAvx512: return "avx512";
  }
  return "?";
}

VectorWidth active_width() {
  if (simd512_active()) return VectorWidth::kAvx512;
  return simd_active() ? VectorWidth::kAvx2 : VectorWidth::kPortable;
}

std::span<const RowTile> row_tiles(VectorWidth width) {
  switch (width) {
    case VectorWidth::kAvx512: return kAvx512RowTiles;
    case VectorWidth::kAvx2: return kAvx2RowTiles;
    case VectorWidth::kPortable: break;
  }
  return kPortableRowTiles;
}

bool packed_job_splits(std::int64_t m, std::int64_t n, std::int64_t k) {
  if (active_width() != VectorWidth::kAvx512) {
    return m * n * k >= kPackedSplitFmas;
  }
  return (m + 3) / 4 * 4 * n * k >= kPackedSplitFmas512;
}

int tile_height() {
  static const int height = row_tiles(active_width()).front().rows;
  return height;
}

const char* gemm_width_name() { return width_name(active_width()); }

void gemm_nn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate) {
  // Row groups run B as one panel, column panels one slice of its columns
  // each.
  GemmSplit split =
      gemm_split(m, n, k, ThreadPool::current().worker_count() + 1);
  if (split.by_rows) {
    gemm_run<float>(active_width(), a, m, k, {{b, n, n, nullptr, c, n}},
                    split, accumulate);
    return;
  }
  std::vector<Panel<float>> panels;
  for (std::size_t t = 0; t < split.tiles(); ++t) {
    const std::int64_t j0 = split.cuts[t];
    panels.push_back({b + j0, n, split.cuts[t + 1] - j0, nullptr, c + j0, n});
    split.cuts[t] = static_cast<std::int64_t>(t);
  }
  split.cuts.back() = static_cast<std::int64_t>(panels.size());
  gemm_run(active_width(), a, m, k, panels, split, accumulate);
}

void gemm_packed(const float* a, std::int64_t m, std::int64_t k,
                 WeightFormat format, std::span<const PackedGemm> gemms) {
  gemm_packed_at(active_width(), a, m, k, format, gemms);
}

void gemm_packed_at(VectorWidth width, const float* a, std::int64_t m,
                    std::int64_t k, WeightFormat format,
                    std::span<const PackedGemm> gemms) {
  MGPT_CHECK(static_cast<int>(width) <= static_cast<int>(active_width()),
             "gemm_packed_at: this host cannot run " << width_name(width)
                                                     << " kernels");
  std::int64_t n = 0;
  for (const PackedGemm& g : gemms) n += g.n;
  const std::size_t threads = ThreadPool::current().worker_count() + 1;
  auto run = [&](auto panels) {
    gemm_run(width, a, m, k, panels,
             packed_split(m, n, k, static_cast<std::int64_t>(panels.size()),
                          threads),
             /*accumulate=*/false);
  };
  switch (format) {
    case WeightFormat::kF32:
      run(packed_panels<float>(gemms, k));
      break;
    case WeightFormat::kBf16:
      run(packed_panels<std::uint16_t>(gemms, k));
      break;
    case WeightFormat::kInt8:
      run(packed_panels<std::int8_t>(gemms, k));
      break;
  }
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

namespace {

#ifdef MATGPT_X86_DISPATCH
#pragma GCC push_options
#pragma GCC target("avx2,fma")

// Below this exp underflows to 0 even as a subnormal.
constexpr float kExpZeroBelow = -104.0f;
// From here up exp is a normal float.
constexpr float kExpNormalFrom = -86.5f;

// Cephes' expf: z = n ln2 + r with |r| <= ln2 / 2, then a polynomial for
// exp(r). Returns exp(r) and sets n.
inline __m256 exp_reduce_avx2(__m256 z, __m256* n) {
  *n = _mm256_round_ps(_mm256_mul_ps(z, _mm256_set1_ps(1.44269504088896341f)),
                       _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(*n, _mm256_set1_ps(0.693359375f), z);
  r = _mm256_fnmadd_ps(*n, _mm256_set1_ps(-2.12194440e-4f), r);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(5.0000001201e-1f));
  return _mm256_fmadd_ps(y, _mm256_mul_ps(r, r),
                         _mm256_add_ps(r, _mm256_set1_ps(1.0f)));
}

// 2^n for integer n in [-126, 127].
inline __m256 pow2_avx2(__m256i n) {
  return _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23));
}

// exp(z) for z in [kExpZeroBelow, kExpNormalFrom): 2^n as two normal
// factors, so the subnormal result rounds once. Out of line: producing a
// subnormal costs a microcode assist per lane, so no row pays for it
// unless one of its values lands in this range.
__attribute__((noinline)) __m256 exp_subnormal_avx2(__m256 z) {
  __m256 n;
  const __m256 y =
      exp_reduce_avx2(_mm256_max_ps(_mm256_set1_ps(kExpZeroBelow), z), &n);
  const __m256i ni = _mm256_cvtps_epi32(n);
  const __m256i n1 = _mm256_srai_epi32(ni, 1);
  return _mm256_mul_ps(_mm256_mul_ps(y, pow2_avx2(n1)),
                       pow2_avx2(_mm256_sub_epi32(ni, n1)));
}

// exp(z) for z <= 0, within a few ulp of std::exp: exactly 1 at z = 0 and
// exactly 0 below kExpZeroBelow (-inf included); a NaN stays NaN. Lanes
// below kExpNormalFrom are computed at the clamp, so -inf costs no assist.
inline __m256 exp_nonpos_avx2(__m256 z) {
  const __m256 normal_from = _mm256_set1_ps(kExpNormalFrom);
  __m256 n;
  // max_ps returns its second operand when either is NaN.
  const __m256 y = exp_reduce_avx2(_mm256_max_ps(normal_from, z), &n);
  const __m256 below = _mm256_cmp_ps(z, normal_from, _CMP_LT_OQ);
  __m256 e = _mm256_andnot_ps(
      below, _mm256_mul_ps(y, pow2_avx2(_mm256_cvtps_epi32(n))));
  const __m256 subnormal = _mm256_andnot_ps(
      _mm256_cmp_ps(z, _mm256_set1_ps(kExpZeroBelow), _CMP_LT_OQ), below);
  if (_mm256_movemask_ps(subnormal) != 0) {
    e = _mm256_or_ps(e, _mm256_and_ps(subnormal, exp_subnormal_avx2(z)));
  }
  return e;
}

inline float hmax_avx2(__m256 v) {
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(v),
                        _mm256_extractf128_ps(v, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
  return _mm_cvtss_f32(m);
}

// Lanes [0, count) of an 8-float load; the rest read as -inf.
inline __m256i tail_mask(std::int64_t count) {
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count)), lane);
}

inline __m256 load_or_neg_inf(const float* p, std::int64_t count) {
  if (count >= 8) return _mm256_loadu_ps(p);
  const __m256i mask = tail_mask(count);
  return _mm256_blendv_ps(
      _mm256_set1_ps(-std::numeric_limits<float>::infinity()),
      _mm256_maskload_ps(p, mask), _mm256_castsi256_ps(mask));
}

__attribute__((noinline)) double scaled_exp_row_avx2(const float* x,
                                                     std::int64_t n, float t,
                                                     float* out,
                                                     float* block_max) {
  const __m256 neg_inf =
      _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  __m256 m0 = neg_inf, m1 = neg_inf, m2 = neg_inf, m3 = neg_inf;
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    m0 = _mm256_max_ps(m0, _mm256_loadu_ps(x + i));
    m1 = _mm256_max_ps(m1, _mm256_loadu_ps(x + i + 8));
    m2 = _mm256_max_ps(m2, _mm256_loadu_ps(x + i + 16));
    m3 = _mm256_max_ps(m3, _mm256_loadu_ps(x + i + 24));
  }
  for (; i < n; i += 8) m0 = _mm256_max_ps(m0, load_or_neg_inf(x + i, n - i));
  const __m256 mv =
      _mm256_max_ps(_mm256_max_ps(m0, m1), _mm256_max_ps(m2, m3));
  // Division by t > 0 is monotone, so this is the largest x[i] / t.
  const __m256 mx = _mm256_set1_ps(hmax_avx2(mv) / t);
  const __m256 tv = _mm256_set1_ps(t);
  __m256d sum_lo = _mm256_setzero_pd();
  __m256d sum_hi = _mm256_setzero_pd();
  for (std::int64_t b = 0; b * kExpBlockIds < n; ++b) {
    const std::int64_t end = std::min(n, (b + 1) * kExpBlockIds);
    __m256 bmax = _mm256_setzero_ps();
    for (i = b * kExpBlockIds; i < end; i += 8) {
      const __m256 z =
          _mm256_sub_ps(_mm256_div_ps(load_or_neg_inf(x + i, end - i), tv), mx);
      const __m256 e = exp_nonpos_avx2(z);
      if (end - i >= 8) {
        _mm256_storeu_ps(out + i, e);
      } else {
        _mm256_maskstore_ps(out + i, tail_mask(end - i), e);
      }
      bmax = _mm256_max_ps(bmax, e);
      sum_lo = _mm256_add_pd(sum_lo,
                             _mm256_cvtps_pd(_mm256_castps256_ps128(e)));
      sum_hi = _mm256_add_pd(sum_hi,
                             _mm256_cvtps_pd(_mm256_extractf128_ps(e, 1)));
    }
    block_max[b] = hmax_avx2(bmax);
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, _mm256_add_pd(sum_lo, sum_hi));
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

#pragma GCC pop_options
#endif  // MATGPT_X86_DISPATCH

}  // namespace

double scaled_exp_row(const float* x, std::int64_t n, float t, float* out,
                      float* block_max) {
#ifdef MATGPT_X86_DISPATCH
  if (simd_active()) return scaled_exp_row_avx2(x, n, t, out, block_max);
#endif
  float mx = -std::numeric_limits<float>::infinity();
  for (std::int64_t i = 0; i < n; ++i) mx = x[i] > mx ? x[i] : mx;
  mx /= t;
  double sum = 0.0;
  for (std::int64_t b = 0; b * kExpBlockIds < n; ++b) {
    const std::int64_t end = std::min(n, (b + 1) * kExpBlockIds);
    float bmax = 0.0f;
    for (std::int64_t i = b * kExpBlockIds; i < end; ++i) {
      out[i] = std::exp(x[i] / t - mx);
      bmax = out[i] > bmax ? out[i] : bmax;
      sum += out[i];
    }
    block_max[b] = bmax;
  }
  return sum;
}

double logsumexp_row(const float* row, std::int64_t n) {
  float mx = row[0];
  for (std::int64_t i = 1; i < n; ++i) mx = std::max(mx, row[i]);
  double acc = 0.0;
  for (std::int64_t i = 0; i < n; ++i) acc += std::exp(row[i] - mx);
  return static_cast<double>(mx) + std::log(acc);
}

}  // namespace matgpt::kernels
