#pragma once
// The packed GEMM's register tiles, per vector width (private to src/tensor
// and its tests).
//
// A packed panel's C rows go through the register kernel in passes: each
// pass holds `rows` C rows by `vectors` vectors of `lanes` floats in
// registers over all k, loads one B row segment per k step and shares it
// over the pass's rows. A width's table lists its passes widest first; the
// kernel covers a row range greedily (as many passes of the first entry as
// fit, then of the next, ...), and the cost model prices the same passes.
// Every 512-bit entry holds at least 8 independent accumulators, enough
// FMAs in flight to hide their latency (a 1-row x 4-zmm strip ran at
// 0.46-0.93x of the 1-row x 8-ymm strip at m = 1; a 12 x 32 tile spilled
// registers). The 256-bit table is the only one AVX2-only hosts run, and
// keeps their measured tiles (its three-row pass holds 6).
//
// The width is chosen once per process: AVX-512F when the host has it (and
// the OS saves zmm state, which __builtin_cpu_supports also checks), else
// AVX2+FMA, else the portable scalar loops. Every width computes each C
// element as the same ascending-k single-rounding FMA chain from zero (then,
// int8, one multiply by its column scale), so the width never changes
// bf16/int8 bytes, nor fp32 bytes between the two SIMD widths. (The
// portable fp32 loop is a plain multiply-add; see kernels.h.)

#include <cstdint>
#include <span>

#include "tensor/kernels.h"

namespace matgpt::kernels {

enum class VectorWidth : std::uint8_t { kPortable = 0, kAvx2 = 1, kAvx512 = 2 };

const char* width_name(VectorWidth width);

/// One pass of the register kernel: `rows` C rows x `vectors` vectors of
/// `lanes` floats.
struct RowTile {
  int rows;
  int vectors;
  int lanes;
};

/// 256-bit: four rows x 16 columns (8 ymm), three x 16, two x 32, and a
/// lone row x 64.
inline constexpr RowTile kAvx2RowTiles[] = {
    {4, 2, 8}, {3, 2, 8}, {2, 4, 8}, {1, 8, 8}};

/// 512-bit: eight rows x 32 columns (16 zmm), then four, three or two
/// rows x 64; a lone row stays on the 256-bit 8-accumulator strip.
inline constexpr RowTile kAvx512RowTiles[] = {
    {8, 2, 16}, {4, 4, 16}, {3, 4, 16}, {2, 4, 16}, {1, 8, 8}};

/// The portable loops walk one row at a time.
inline constexpr RowTile kPortableRowTiles[] = {{1, 1, 1}};

/// The width every GEMM of this process runs at.
VectorWidth active_width();

std::span<const RowTile> row_tiles(VectorWidth width);

/// Rows of the widest pass at the active width: packed_split's row groups
/// are cut on multiples of it.
int tile_height();

/// Whether a packed job of fewer than kParallelRowThreshold rows is big
/// enough to split its panels over the pool at the active width:
/// m * n * k >= kPackedSplitFmas, or at the 512-bit width, with m rounded
/// up to a multiple of four rows, >= kPackedSplitFmas512.
bool packed_job_splits(std::int64_t m, std::int64_t n, std::int64_t k);

/// Test-only: gemm_packed run at `width` (at most the active width)
/// instead of the active one, with the same split.
void gemm_packed_at(VectorWidth width, const float* a, std::int64_t m,
                    std::int64_t k, WeightFormat format,
                    std::span<const PackedGemm> gemms);

}  // namespace matgpt::kernels
