#pragma once
// Raw float kernels beneath the autograd layer.
//
// Matmuls read row-major operands, except that an NN GEMM's B may also be
// packed (below). Loop orders are chosen so the innermost loop streams
// contiguously (i-k-j for NN, l-i-j for TN, dot-rows for NT), which is the
// same cache-blocking reasoning the paper applies at the MI250X
// matrix-core level.
//
// Packed weights. When an inference engine prepares its model, every
// Linear weight [k, n] is re-laid IN PLACE (pack_panels) as contiguous
// k-major panels of kPanelFloats = 64 columns: panel p holds columns
// [64p, 64p + w) as k rows of w floats, w = 64 except for a narrower last
// panel. The bf16/int8 decode sidecars use the same layout. A packed GEMM
// is a list of panels, so a thread that owns a range of panels streams one
// contiguous run, 1/T of B. Over row-major B the same column split would
// read short strided runs the prefetcher does not follow (see
// kMinPanelColumns), which is why the row-major rule below never splits
// the layer GEMMs by columns.
// gemm_packed runs GEMMs that share A (q|k|v, gate|up) as ONE job over the
// union of their panels: one split, one fork-join. The fusion lives in the
// job, not in storage (no concatenated weight exists), so parameter
// names, checkpoints and training are unchanged and nothing exists twice.
//
// Threading goes through ThreadPool::current(), whose parallel_for runs on
// the caller plus the workers, and degrades to serial on one core. Every NN
// GEMM makes one split decision from its shape alone — gemm_split over
// row-major B, packed_split over packed panels: C is cut into tiles, each
// run on one thread, of three kinds: row groups (whole rows of C, each
// group streaming all of B), column panels (all rows, a slice of
// row-major B's columns) or panel ranges (all rows, a run of whole packed
// panels). A row's result depends only on (its A row, B), and every C
// element keeps its ascending-k FMA chain whichever tile computes it, so
// threading and layout never change output bytes.
//
//  * From kParallelRowThreshold rows (prefill, training) rows split into up
//    to four groups per thread, so uneven groups still balance; a row
//    group walks every panel. Packed row groups are cut on multiples of
//    the widest register tile's height (8 rows at 512 bits, 4 at 256), so
//    every group but the last runs whole tiles.
//  * Below it (decode, m = batch), a packed job big enough to pay for the
//    fork-join (packed_job_splits: kPackedSplitFmas multiply-adds at 256
//    bits, kPackedSplitFmas512 at 512 with m rounded up to four rows)
//    splits into contiguous panel ranges, one per thread.
//  * Below it, a row-major GEMM of at least kParallelPanelFmas
//    multiply-adds splits into one tile per thread. Wide N (room for a
//    column panel of kMinPanelColumns per thread, i.e. lm_head) takes
//    column panels; otherwise, given two or more groups of kMinGroupRows
//    rows, rows split.
//  * Anything smaller runs as one serial tile.
//
// The measurements behind the packed rule (4-vCPU AVX2 KVM host shared
// with other guests, the serving model's fp32 decode GEMMs with q|k|v and
// gate|up as one job each, hot weights, median of 3 runs of 3-round
// medians of 41-call medians, in us; run-to-run spread ~10%, up to 30% on
// lm_head): serial = the packed job on one thread; row groups = row-major
// B in min(4, m / 4) groups, one per thread; row-major rule = gemm_split
// over row-major B, what the layers ran before packing; packed =
// packed_split.
//
//     m x    n x   k                serial  row groups  row-major  packed
//     1 x  384 x 256 (q|k|v)             7           -          9       7
//     4 x  384 x 256 (q|k|v)            20           -         20      19
//    16 x  384 x 256 (q|k|v)            84          52         74      42
//     1 x  256 x 256 (o)                 5           -          6       5
//     4 x  256 x 256 (o)                13           -         14      13
//    16 x  256 x 256 (o)                52          47         52      27
//     1 x 1376 x 256 (gate|up)          34           -         37      26
//     4 x 1376 x 256 (gate|up)          99           -         82      40
//    16 x 1376 x 256 (gate|up)         342         125        150     108
//     1 x  256 x 688 (down)             13           -         17      13
//     4 x  256 x 688 (down)             38           -         41      26
//    16 x  256 x 688 (down)            152         124        123      60
//     1 x 8192 x 256 (lm_head)         421           -        128     129
//     4 x 8192 x 256 (lm_head)         798           -        227     249
//    16 x 8192 x 256 (lm_head)        2846         728        738     681
//
// The layer GEMMs of one decode step (four layers) fall from ~0.63 to
// ~0.39 ms at m = 4 and from ~1.6 to ~0.95 ms at m = 16. lm_head, which
// row-major column panels already split, stays level within the noise.
//
// Tensor storage starts on a 64-byte line, and row-major panel cuts fall on
// multiples of 16 floats, so when n is a multiple of 16 no two panels of a
// Tensor's C write one cache line (the streaming kernel re-reads and
// re-writes its C chunk every 4 k terms, and a shared line would bounce
// between cores). A packed panel range writes whole 64-column chunks of C,
// and row groups share at most the one line straddling each group
// boundary, and only when n is not a multiple of 16.
//
// Two NN GEMM paths, by B's layout:
//
//  * fp32 over row-major B (gemm_nn): training, and prefill on a model no
//    engine has prepared;
//  * packed panels (gemm_packed): every served weight, fp32, bf16 or int8.
//    The bf16/int8 decode sidecars exist only in the packed layout.
//
// On x86 with AVX2+FMA (runtime-dispatched; disabled by -DMATGPT_PORTABLE),
// a GEMM walks its tile's panels one at a time (B's row stride is taken
// separately from C's, so row-major B is the one-panel case) with one of
// two microkernels:
//
//  * A panel wider than kPanelFloats (row-major B, or one of its column
//    panels) runs the fp32 streaming kernel: B is read once per block of
//    row_block() rows in contiguous, prefetch-friendly segments while an
//    L1-resident chunk of kStreamChunkFloats columns of C accumulates,
//    re-read and re-written every 4 k terms.
//  * A panel at most kPanelFloats wide (every packed panel, in every
//    format) runs the register kernel: a pass of C rows stays in
//    registers over all k and C is written once. Its passes come from the
//    row-tile table of the host's vector width (gemm_width.h), chosen once
//    per process: with AVX-512F, eight rows x 32 columns (16 zmm
//    accumulators), then four, three or two rows x 64, and a lone row on
//    the 256-bit 8-accumulator strip; with AVX2 only, four or three rows
//    x 16 columns, two x 32, one x 64. One template body serves both
//    widths.
//
// The FMA chain per element is the same in both. The register kernel
// exists because the streaming kernel loses on packed panels at every
// served shape and row count. Packed jobs on the pool, hot weights,
// register vs streaming kernel in us (3 alternating runs, same host):
//
//     fp32      m = 1      m = 4        m = 16         m = 64
//     q|k|v     8 / 11    22 / 28      51 / 123       112 / 162
//     o         4 / 5     11 / 14      27 / 145        69 / 90
//     gate|up  24 / 24    38 / 47     120 / 118       434 / 460
//     down     10 / 12    24 / 112     48 / 407       169 / 238
//     lm_head 124 / 128  225 / 226    623 / 745      3663 / 3544
//
// int8 read the same way, with lm_head 1.2-1.4x slower streaming. The
// streaming kernel ties at best (fp32 lm_head and gate|up, within the
// noise), so there is no row count from which it should take packed
// panels over.
//
// The 512-bit tiles against the 256-bit-only kernel that preceded them,
// fp32 packed jobs at servebench's model shape (ffn 704), hot weights, one
// thread, best of 3 rounds of 41-call medians, in us, on the 4-vCPU
// AVX-512 KVM host (run-to-run spread 10-30%; m = 1 runs the same 256-bit
// strip either way, and alternating the two widths in one process timed
// lm_head at 337 / 333 us):
//
//     fp32        m = 1       m = 4        m = 16        m = 128
//     q|k|v      8 / 7      21 / 11      87 / 41       622 / 211
//     o          4 / 5       8 / 6       40 / 23       334 / 183
//     gate|up   28 / 35     83 / 44     306 / 160     2304 / 1270
//     down      13 / 14     36 / 17     144 / 74      1224 / 584
//     lm_head  442 / 439   744 / 536   2139 / 1238   12480 / 8916
//
// On 3 workers lm_head at m = 16 fell from 561 to 326 us. One decode
// step's layer GEMMs (four layers of q|k|v, o, gate|up, down, plus
// lm_head) against row-major gemm_nn: 0 workers, m = 4 0.97x -> 0.69x,
// m = 16 1.09x -> 0.61x; 3 workers, m = 4 0.58x -> 0.45x, m = 16 0.62x
// -> 0.45x.
//
// Batch-1 decode is therefore weight-bandwidth-bound and a full serving
// batch rides the same B traffic at FMA throughput. The weight formats
// differ only in how a B vector is loaded (bf16 and int8 are widened to
// fp32, exactly) and in int8's final per-column scale multiply.
//
// Every C element accumulates its k terms in ascending order with
// single-rounding FMAs over the widened B value — identical in the vector
// body, the scalar column tail, both microkernels, both vector widths and
// every row block — so neither the row count, the split nor the host's
// width changes output bytes. That is the property the serving engine's
// batched-vs-batch-1 token identity rests on.
//
// The portable scalar fallback for bf16/int8 panels replays the identical
// operation sequence, so quantized results match across the SIMD and
// portable builds bit-for-bit. The portable fp32 loop is a plain
// multiply-add, not an FMA chain.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace matgpt::kernels {

/// Rows of C from which a GEMM splits its rows whatever its size (and from
/// which gemm_nt / gemm_tn split at all).
inline constexpr std::int64_t kParallelRowThreshold = 64;

/// Below kParallelRowThreshold rows, the multiply-add count (m * n * k) from
/// which an NN GEMM over row-major B splits over the thread pool, into row
/// groups or column panels. Set from measurement on a 4-core AVX2 host,
/// before serving packed its weights: it threaded the serving model's
/// lm_head (256 x 8192) from batch 1 and its MLP from batch 12. Half of it
/// also split q and o at batch 16 (45 -> 38 us), but moved every 1-2e6
/// GEMM onto the pool. Row-major B now carries only fp32 training and
/// prefill on a model no engine has prepared.
inline constexpr std::int64_t kParallelPanelFmas = 2'000'000;

/// The narrowest column panel a GEMM over row-major B splits into (2 KB of
/// each B row). Narrower panels cut B's rows into short strided runs the
/// prefetcher does not follow: on a 4-core AVX2 host, splitting the
/// serving model's MLP (n = 688 and 256) at batch 16 into panels made the
/// decode step ~20% slower, while lm_head's 2048-column panels ran ~3x
/// faster than one thread. Packed B has no such floor: its panels are
/// contiguous.
inline constexpr std::int64_t kMinPanelColumns = 512;

/// The fewest C rows a row group gets: below that, streaming all of B per
/// group costs more than the group's FMAs save.
inline constexpr std::int64_t kMinGroupRows = 4;

/// Columns per panel of a packed weight (one 256-byte run of each fp32 B
/// row). Packed B stores its panels one after another, each k-major: panel
/// p holds columns [64p, 64p + w) as k rows of w floats, w = 64 except for
/// a narrower last panel when 64 does not divide n.
inline constexpr std::int64_t kPanelFloats = 64;

/// Below kParallelRowThreshold rows, the multiply-add count (m * n * k,
/// over every GEMM of the job) from which a packed job splits its panels
/// over the thread pool at the 256-bit width (and on portable builds).
/// Measured on a 4-core AVX2 host with hot weights, a split pays from
/// ~3.5e5 (q|k|v at m = 4: 21 -> 19 us; down at m = 3: 22 -> 19 us) and
/// breaks even just below (down at m = 2, gate|up at m = 1); the fork-join
/// costs a few us. Re-measured with the register tiles at 256 bits on the
/// 4-vCPU AVX-512 host (serial vs 3 workers, best of 10 alternating
/// 41-call medians): q|k|v m = 3 16.4 -> 17.6 us, m = 4 21.6 -> 19.3; o
/// m = 5 17.2 -> 17.2; down m = 2 16.0 -> 17.7, m = 3 25.0 -> 20.3;
/// gate|up m = 1 31.2 -> 21.0. The break-even has not moved.
inline constexpr std::int64_t kPackedSplitFmas = 300'000;

/// The same at the 512-bit width, where the job is charged m rounded up to
/// a multiple of four rows: a pass of up to four rows costs about what a
/// four-row pass does (B's loads bound it, not the FMAs), and the split's
/// fork-join (~12 us on that host) pays only once the serial job takes
/// ~18 us. Measured as above at 512 bits: q|k|v m = 4 10.6 -> 16.5 us,
/// m = 8 20.1 -> 20.1, m = 12 32.2 -> 24.1; o m = 8 13.5 -> 17.5, m = 12
/// 22.0 -> 19.0; down m = 1 9.5 -> 15.3, m = 4 18.0 -> 18.3, m = 5 30.8 ->
/// 21.5; gate|up m = 1 34.0 -> 22.1. At kPackedSplitFmas, q|k|v would
/// split from m = 4 and o from m = 5, each 1.3-1.8x slower.
inline constexpr std::int64_t kPackedSplitFmas512 = 800'000;

/// C rows per block of the fp32 streaming kernel.
inline constexpr int kStreamRows = 8;

/// Columns of C per chunk of the fp32 streaming kernel (2 KB of each C
/// row, L1-resident across a block's rows).
inline constexpr std::int64_t kStreamChunkFloats = 512;

/// Storage format of a GEMM's B (weight) operand.
enum class WeightFormat : std::uint8_t { kF32 = 0, kBf16 = 1, kInt8 = 2 };

const char* format_name(WeightFormat format);

/// The row-block rule the streaming kernel runs and the cost model prices:
/// with `rows_left` C rows still to do, the size of the next block, i.e.
/// kStreamRows while that many remain, then one fringe block of the rest,
/// so every row range is covered and B streams once per block.
int row_block(std::int64_t rows_left);

/// How an NN GEMM splits C over the thread pool: `cuts` bound its tiles,
/// 0 = cuts[0] < cuts[1] < ... < cuts.back(), over rows of C (`by_rows`,
/// back() == m) or else over its columns (gemm_split: back() == n) or its
/// packed panels (packed_split: back() == the panel count). One tile is
/// serial.
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

/// The split a packed job of total width `n` (the sum over its GEMMs) and
/// `panels` panels runs with on `threads` threads: from
/// kParallelRowThreshold rows, up to four row groups per thread, each
/// walking every panel, cut on multiples of the widest register tile's
/// height (at least kMinGroupRows; the last group takes the rows left
/// over); below it, when packed_job_splits (gemm_width.h), contiguous
/// panel ranges, one per thread (cuts count panels, not columns); anything
/// smaller one serial tile.
GemmSplit packed_split(std::int64_t m, std::int64_t n, std::int64_t k,
                       std::int64_t panels, std::size_t threads);

/// Where element (l, j) of a [k, n] matrix lives once packed.
std::int64_t packed_index(std::int64_t l, std::int64_t j, std::int64_t k,
                          std::int64_t n);

/// Re-lay a row-major [k, n] matrix as packed panels, in place. The only
/// scratch is the tail columns (k x (n % 64) floats) and a bit per
/// 64-float block, so a weight never exists twice.
void pack_panels(float* w, std::int64_t k, std::int64_t n);

/// Write packed [k, n] `packed` out row-major into `out`.
void unpack_panels(const float* packed, float* out, std::int64_t k,
                   std::int64_t n);

/// True when the runtime-dispatched AVX2+FMA path is compiled in AND the
/// host supports it (false in MATGPT_PORTABLE builds).
bool gemm_simd_active();

/// The vector width the packed register kernel runs at on this host:
/// "avx512", "avx2" or "portable".
const char* gemm_width_name();

/// C[m,n] (+)= A[m,k] * B[k,n]
void gemm_nn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate);

/// One GEMM of a packed job: C[m, n] = A[m, k] * widen(B), B packed (fp32
/// floats, bf16 bit patterns with value = bits << 16, or int8 by the job's
/// format), then for int8 times the per-column `scale` (per-output-channel
/// weight-only quantization, fp32 accumulate). C rows are n floats apart.
struct PackedGemm {
  const void* b = nullptr;
  const float* scale = nullptr;
  float* c = nullptr;
  std::int64_t n = 0;
};

/// Run GEMMs that share A (q|k|v, gate|up, or one alone) as one job over
/// the union of their panels: one split by packed_split, one fork-join.
/// Every C element is the ascending-k FMA chain over its widened B column
/// (then, int8, times its scale), on every pool; fp32 bytes equal
/// gemm_nn's for the same B row-major (accumulate = false).
void gemm_packed(const float* a, std::int64_t m, std::int64_t k,
                 WeightFormat format, std::span<const PackedGemm> gemms);

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

/// Ids per block of scaled_exp_row's block maxima.
inline constexpr std::int64_t kExpBlockIds = 64;

/// The stochastic sampler's row pass: softmax_row's unnormalized exps at
/// temperature `t` > 0 (softmax_row itself stays as it is for attention
/// and the loss). With m = max_i fl(x[i] / t), writes
/// out[i] = exp(fl(x[i] / t) - m), so the largest id gets exactly 1 and a
/// -inf logit exactly 0; block_max[b] = the largest out[i] over ids
/// [b * kExpBlockIds, (b + 1) * kExpBlockIds), ceil(n / kExpBlockIds)
/// entries; and returns
/// the sum of out in double. A NaN or +inf logit, or a row with no finite
/// logit, makes the sum NaN. Vectorized under simd_active(): a polynomial
/// exp within a few ulp of std::exp down to the smallest subnormal, summed
/// in eight double lanes that are combined in one fixed order, so a row
/// always gives the same bytes on one build. The scalar fallback calls
/// std::exp and sums in id order.
double scaled_exp_row(const float* x, std::int64_t n, float t, float* out,
                      float* block_max);

}  // namespace matgpt::kernels
