#pragma once
// Raw float kernels beneath the autograd layer.
//
// All matmuls are row-major. Loop orders are chosen so the innermost loop
// streams contiguously (i-k-j for NN, l-i-j for TN, dot-rows for NT), which
// is the same cache-blocking reasoning the paper applies at the MI250X
// matrix-core level.
//
// Threading goes through ThreadPool::global(), whose parallel_for runs on
// the caller plus the workers, and degrades to serial on one core. Every NN
// GEMM makes one split decision, gemm_split(m, n, k, threads), from its
// shape alone: C is cut into tiles, either row groups (whole rows of C,
// each group streaming all of B) or column panels (all rows, a slice of B's
// columns), and each tile runs on one thread. A row's result depends only
// on (its A row, B), and every C element keeps its ascending-k FMA chain
// whichever tile computes it, so threading never changes output bytes.
//
// The rule, with the measurements that set it (4-vCPU AVX2 KVM host, the
// serving model's fp32 decode GEMMs, hot weights, medians of 3 alternating
// rounds in us; panels need n >= 2 x kMinPanelColumns):
//
//   m x n x k                  serial   row groups   column panels   runs
//   16 x  704 x 256 (gate, up)    132           55               -   rows
//   16 x  256 x 704 (down)        117           74               -   rows
//   16 x  256 x 256 (q, o)         45           38               -   serial
//    8 x  256 x 256 (q, o)         21           22               -   serial
//   16 x 8192 x 256 (lm_head)    1970          680             554   panels
//    8 x 8192 x 256 (lm_head)    1015          632             300   panels
//
//  * From kParallelRowThreshold rows (prefill, training) rows split into up
//    to four groups per thread, so uneven groups still balance.
//  * Below it (decode, m = batch) a GEMM of at least kParallelPanelFmas
//    multiply-adds splits into one tile per thread. Wide N (room for a
//    column panel of kMinPanelColumns per thread, i.e. lm_head) takes
//    column panels: each thread then streams only its slice of a B too big
//    for cache. Otherwise, given two or more groups of kMinGroupRows rows,
//    rows split: B (the layer weights) is small enough to stay in L2/L3
//    across groups, and each group reads it in long contiguous runs.
//  * Anything smaller runs as one serial tile.
//
// Tensor storage starts on a 64-byte line, and panel cuts fall on multiples
// of 16 floats, so when n is a multiple of 16 no two panels of a Tensor's
// C write one cache line (the kernel re-reads and re-writes its C chunk
// every 4 k terms, and a shared line would bounce between cores). Row
// groups share at most the one line straddling each group boundary, and
// only when n is not a multiple of 16.
//
// On x86 with AVX2+FMA (runtime-dispatched; disabled by -DMATGPT_PORTABLE),
// every NN GEMM — fp32, bf16 and int8 weights alike — runs one streaming
// multi-row microkernel: B is read once per row block in contiguous,
// prefetch-friendly segments while an L1-resident chunk of C accumulates.
// Batch-1 decode is therefore weight-bandwidth-bound and a full serving
// batch rides the same B traffic at FMA throughput. The weight formats
// differ only in how a B vector is loaded (bf16 and int8 are widened to
// fp32, exactly) and in int8's final per-column scale multiply.
//
// The microkernel's tiling is a GemmVariant: `mr` rows of C per block and
// `nc` floats of C per row per column chunk. Rows split into blocks by the
// one rule in row_block(), for every format. gemm_nn always runs the
// default variant; pick_variant chooses a tiling from the shape and weight
// format by a fixed rule, and gemm_nn_variant runs any explicit one. Every
// variant accumulates each C element's k terms in ascending order with
// single-rounding FMAs over the widened B value — identical in the vector
// body, the scalar column tail, and for every mr/nc — so variant choice
// NEVER changes output bytes. That is the property the serving engine's
// batched-vs-batch-1 token identity rests on.
//
// gemm_nn_bf16 / gemm_nn_int8 are the weight-quantized decode GEMMs: B is
// stored as bf16 bit patterns or int8 with per-output-column scales. Their
// portable scalar fallback replays the identical operation sequence, so
// quantized results match across the SIMD and portable builds bit-for-bit.
// The portable fp32 loop is a plain multiply-add, not an FMA chain.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace matgpt::kernels {

/// Rows of C from which a GEMM splits its rows whatever its size (and from
/// which gemm_nt / gemm_tn split at all).
inline constexpr std::int64_t kParallelRowThreshold = 64;

/// Below kParallelRowThreshold rows, the multiply-add count (m * n * k) from
/// which an NN GEMM splits over the thread pool, into row groups or column
/// panels. Set from measurement on a 4-core AVX2 host: it threads the
/// serving model's lm_head (256 x 8192) from batch 1 and its MLP from
/// batch 12. Half of it also splits q and o at batch 16 (45 -> 38 us, see
/// the table above) but moves every 1-2e6 GEMM onto the pool; with both
/// sides of bench_gemm_autotune's int8-vs-fp32 decode ratio (512 -> 2048 at
/// batch 1) split, that ratio read ~0.8-1.1 against ~1.2-1.5.
inline constexpr std::int64_t kParallelPanelFmas = 2'000'000;

/// The narrowest column panel a GEMM splits into (2 KB of each B row).
/// Narrower panels cut B's rows into short strided runs the prefetcher does
/// not follow: on a 4-core AVX2 host, splitting the serving model's MLP
/// (n = 704 and 256) at batch 16 into panels made the decode step ~20%
/// slower, while lm_head's 2048-column panels ran ~3x faster than one
/// thread.
inline constexpr std::int64_t kMinPanelColumns = 512;

/// The fewest C rows a row group gets: below that, streaming all of B per
/// group costs more than the group's FMAs save.
inline constexpr std::int64_t kMinGroupRows = 4;

/// Storage format of a GEMM's B (weight) operand.
enum class WeightFormat : std::uint8_t { kF32 = 0, kBf16 = 1, kInt8 = 2 };

const char* format_name(WeightFormat format);

/// Microkernel tiling: `mr` C rows per block (1/2/4/8/16/32), `nc` floats
/// of C per row per column chunk (>= 8). Never affects output bytes.
struct GemmVariant {
  int mr = 8;
  std::int64_t nc = 512;
  bool operator==(const GemmVariant& o) const {
    return mr == o.mr && nc == o.nc;
  }
};

/// The fixed tiling gemm_nn has always used ({8, 512}).
GemmVariant gemm_default_variant();

/// The tiling to run an [m, k] x [k, n] GEMM with, by a rule fixed from
/// measurement rather than searched at run time. fp32 B always gets
/// gemm_default_variant(): at every serving shape the fp32 kernel is
/// weight-bandwidth-bound and no tiling beats it by more than the noise.
/// Quantized B at m <= 4 gets one column chunk of up to 4096 floats, so
/// each short weight row streams as one long contiguous run (on a 4-core
/// AVX2 host, int8 256 -> 8192 at m = 1 runs ~2x faster than with
/// nc = 512); at larger m the wide chunk stops paying off.
/// With mr = 8 every m <= 8 runs as one row block, so only nc changes.
GemmVariant pick_variant(std::int64_t m, WeightFormat format);

/// The row-block rule every NN GEMM runs and the cost model prices: with
/// `rows_left` C rows still to do at tiling `mr`, the size of the next
/// block. That is mr (taken as 32, 16, or clamped to 1..8) while that many
/// rows remain, then 8 while 8 remain, then one fringe block of the rest,
/// so every row range is covered and B streams once per block.
int row_block(std::int64_t rows_left, int mr);

/// How an NN GEMM splits C over the thread pool: `cuts` bound its tiles,
/// 0 = cuts[0] < cuts[1] < ... < cuts.back(), over rows of C (`by_rows`,
/// back() == m) or over its columns (back() == n). One tile is serial.
struct GemmSplit {
  bool by_rows = true;
  std::vector<std::int64_t> cuts;
  std::size_t tiles() const { return cuts.size() - 1; }
};

/// The split an [m, k] x [k, n] NN GEMM runs with on `threads` threads, by
/// the rule in the header comment. It depends on the shape alone. Row
/// groups hold at least kMinGroupRows rows each (unless serial), and
/// interior panel cuts fall on multiples of 16 floats, near even shares.
GemmSplit gemm_split(std::int64_t m, std::int64_t n, std::int64_t k,
                     std::size_t threads);

/// True when the runtime-dispatched AVX2+FMA path is compiled in AND the
/// host supports it (false in MATGPT_PORTABLE builds).
bool gemm_simd_active();

/// C[m,n] (+)= A[m,k] * B[k,n]
void gemm_nn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate);

/// gemm_nn with an explicit tiling. Bit-identical to gemm_nn for every
/// variant; the portable (non-SIMD) build ignores the variant entirely and
/// runs gemm_nn's scalar loop.
void gemm_nn_variant(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t n, std::int64_t k, bool accumulate,
                     const GemmVariant& variant);

/// C[m,n] = A[m,k] * widen(B[k,n]) where B holds bf16 bit patterns
/// (value = bits << 16). No accumulate mode (the decode forward never
/// accumulates).
void gemm_nn_bf16(const float* a, const std::uint16_t* b, float* c,
                  std::int64_t m, std::int64_t n, std::int64_t k,
                  const GemmVariant& variant);

/// C[m,n] = (A[m,k] * widen(B[k,n])) * scale[col] where B is int8 and
/// `scale` has one fp32 factor per output column (per-output-channel
/// weight-only quantization, fp32 accumulate). No accumulate mode.
void gemm_nn_int8(const float* a, const std::int8_t* b, const float* scale,
                  float* c, std::int64_t m, std::int64_t n, std::int64_t k,
                  const GemmVariant& variant);

/// C[m,n] (+)= A[m,k] * B[n,k]^T
void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate);

/// C[m,n] (+)= A[k,m]^T * B[k,n]
void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate);

/// In-place numerically-stable softmax over a row of length n.
void softmax_row(float* row, std::int64_t n);

/// log(sum(exp(row))) with the max-subtraction trick.
double logsumexp_row(const float* row, std::int64_t n);

}  // namespace matgpt::kernels
