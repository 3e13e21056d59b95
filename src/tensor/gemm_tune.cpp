#include "tensor/gemm_tune.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>

#include "common/error.h"
#include "parallel/thread_pool.h"
#include "tensor/dtype.h"
#include "tensor/gemm_width.h"

namespace matgpt::gemm_tune {

namespace {

using kernels::WeightFormat;

double elem_bytes(WeightFormat format) {
  switch (format) {
    case WeightFormat::kF32: return 4.0;
    case WeightFormat::kBf16: return 2.0;
    case WeightFormat::kInt8: return 1.0;
  }
  return 4.0;
}

// The row blocks kernels::row_block will run for m rows.
std::vector<int> row_blocks(std::int64_t m) {
  std::vector<int> out;
  for (std::int64_t rem = m; rem > 0; rem -= out.back()) {
    out.push_back(kernels::row_block(rem));
  }
  return out;
}

// Fraction of peak row throughput given the pairing structure: a paired C
// row rides shared B loads at full rate, an unpaired row re-issues every
// B load for itself and runs at roughly half rate (measured: one-row
// decode hits ~0.5x the eight-row hot rate on this kernel).
double pair_efficiency(const std::vector<int>& blocks, std::int64_t m) {
  double weighted = 0.0;
  for (int bs : blocks) {
    weighted += 2.0 * (bs / 2) + 0.5 * (bs % 2);
  }
  return weighted / static_cast<double>(m);
}

// The register kernel's passes over `m` rows at the active width (its
// row-tile table walked greedily, as the kernel walks it), and their rate
// relative to the reference block's (kReferenceRows rows, the anchors'
// shape): a pass that shares each B load over two or more rows runs at its
// lanes' share of the widest pass, a lone row at half that.
constexpr std::int64_t kReferenceRows = 4;

std::vector<kernels::RowTile> packed_passes(std::int64_t m) {
  std::vector<kernels::RowTile> out;
  for (const kernels::RowTile& tile :
       kernels::row_tiles(kernels::active_width())) {
    for (; m >= tile.rows; m -= tile.rows) out.push_back(tile);
  }
  return out;
}

double packed_rate(std::int64_t m) {
  const auto tiles = kernels::row_tiles(kernels::active_width());
  const double widest = static_cast<double>(tiles.front().lanes);
  double rows_per_unit_time = 0.0;
  for (const kernels::RowTile& p : packed_passes(m)) {
    rows_per_unit_time += p.rows * (p.lanes / widest) * (p.rows == 1 ? 0.5 : 1);
  }
  return rows_per_unit_time / static_cast<double>(m);
}

double packed_efficiency(std::int64_t m) {
  return packed_rate(m) / packed_rate(kReferenceRows);
}

// Fraction of peak column throughput: fringe columns (n % 8) run through
// the scalar fmaf tail at ~1/8 the vector rate, paid once per chunk.
double column_efficiency(std::int64_t n, std::int64_t nc) {
  double cost = 0.0;
  for (std::int64_t j0 = 0; j0 < n; j0 += nc) {
    const std::int64_t len = std::min(n, j0 + nc) - j0;
    const std::int64_t vec = (len / 8) * 8;
    cost += static_cast<double>(vec) + 8.0 * static_cast<double>(len - vec);
  }
  return static_cast<double>(n) / cost;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Best-of-N wall time for one call of `gemm`.
template <typename Fn>
double best_seconds(int reps, const Fn& gemm) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    gemm();
    best = std::min(best, now_seconds() - t0);
  }
  return best;
}

// Fill a buffer with a cheap deterministic pseudo-random pattern in
// [-1, 1) — anchor measurements only care about byte traffic, not values.
void fill_pattern(float* p, std::size_t count) {
  std::uint32_t s = 0x9e3779b9u;
  for (std::size_t i = 0; i < count; ++i) {
    s = s * 1664525u + 1013904223u;
    p[i] = static_cast<float>(static_cast<std::int32_t>(s >> 9)) *
           (1.0f / 4194304.0f) / 2.0f;
  }
}

// Best-of-6 rate at which a one-row GEMM streams [k, n] fp32 weights,
// alternating two copies (`b0`, `b1`) so neither survives in cache. The
// effective bytes/s includes whatever compute overlap the kernel achieves —
// which is exactly what the memory term should use.
double stream_anchor_gbs(const float* b0, const float* b1, std::int64_t n,
                         std::int64_t k) {
  std::vector<float> a(static_cast<std::size_t>(k));
  std::vector<float> c(static_cast<std::size_t>(n));
  fill_pattern(a.data(), a.size());
  int r = 0;
  const double best = best_seconds(6, [&] {
    kernels::gemm_nn(a.data(), r++ % 2 == 0 ? b0 : b1, c.data(), 1, n, k,
                     /*accumulate=*/false);
  });
  return static_cast<double>(k * n) * 4.0 / best / 1e9;
}

// One thread's rate on the [m, k] x [k, n] reference block with `b` packed
// (and quantized to `format`), through the packed job every served weight
// runs.
double packed_gflops(const float* a, std::vector<float> b, float* c,
                     std::int64_t m, std::int64_t n, std::int64_t k,
                     WeightFormat format) {
  kernels::pack_panels(b.data(), k, n);
  const QuantWeights qw = quantize_weights(b.data(), k, n, format);
  kernels::PackedGemm g{b.data(), nullptr, c, n};
  if (format == WeightFormat::kBf16) g.b = qw.bf16.data();
  if (format == WeightFormat::kInt8) {
    g.b = qw.q8.data();
    g.scale = qw.scale.data();
  }
  const ScopedThreadPool one_thread(0);
  return 2.0 * static_cast<double>(m * n * k) /
         best_seconds(12,
                      [&] { kernels::gemm_packed(a, m, k, format, {&g, 1}); }) /
         1e9;
}

HostAnchors measure_anchors() {
  HostAnchors anchors;
  anchors.threads = ThreadPool::current().worker_count() + 1;
  // Hot compute peaks: an all-paired 4x512x512 block whose B fits in L2.
  // One row group and one column panel, so it runs on one thread.
  const std::int64_t m = 4, n = 512, k = 512;
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * n));
  fill_pattern(a.data(), a.size());
  fill_pattern(b.data(), b.size());
  const double flops = 2.0 * static_cast<double>(m) * n * k;
  auto f32_seconds = [&](const float* pa, float* pc, std::int64_t rows) {
    return best_seconds(12, [&] {
      kernels::gemm_nn(pa, b.data(), pc, rows, n, k, /*accumulate=*/false);
    });
  };
  anchors.f32_gflops = flops / f32_seconds(a.data(), c.data(), m) / 1e9;
  anchors.packed_f32_gflops =
      packed_gflops(a.data(), b, c.data(), m, n, k, WeightFormat::kF32);
  anchors.bf16_gflops =
      packed_gflops(a.data(), b, c.data(), m, n, k, WeightFormat::kBf16);
  anchors.int8_gflops =
      packed_gflops(a.data(), b, c.data(), m, n, k, WeightFormat::kInt8);
  // The same block once per thread: one row group each, sharing B.
  const auto pm = static_cast<std::int64_t>(m * anchors.threads);
  std::vector<float> pa(static_cast<std::size_t>(pm * k));
  std::vector<float> pc(static_cast<std::size_t>(pm * n));
  fill_pattern(pa.data(), pa.size());
  anchors.pool_f32_gflops = static_cast<double>(anchors.threads) * flops /
                            f32_seconds(pa.data(), pc.data(), pm) / 1e9;

  // Streaming bandwidth over two 32 MB weight matrices, read as 512
  // columns (one panel: one thread) and as 2048 (one panel per thread).
  std::vector<float> b0(std::size_t{8} << 20);
  std::vector<float> b1(b0.size());
  fill_pattern(b0.data(), b0.size());
  fill_pattern(b1.data(), b1.size());
  anchors.stream_gbs = stream_anchor_gbs(b0.data(), b1.data(), 512, 16384);
  anchors.pool_stream_gbs =
      stream_anchor_gbs(b0.data(), b1.data(), 2048, 4096);
  return anchors;
}

}  // namespace

QuantWeights quantize_weights(const float* w, std::int64_t k, std::int64_t n,
                              WeightFormat format) {
  QuantWeights qw;
  qw.format = format;
  qw.k = k;
  qw.n = n;
  const std::size_t count = static_cast<std::size_t>(k * n);
  if (format == WeightFormat::kBf16) {
    qw.bf16.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      qw.bf16[i] = static_cast<std::uint16_t>(
          std::bit_cast<std::uint32_t>(round_bf16(w[i])) >> 16);
    }
  } else if (format == WeightFormat::kInt8) {
    auto at = [&](std::int64_t l, std::int64_t j) {
      return static_cast<std::size_t>(kernels::packed_index(l, j, k, n));
    };
    qw.q8.resize(count);
    qw.scale.resize(static_cast<std::size_t>(n));
    for (std::int64_t j = 0; j < n; ++j) {
      float amax = 0.0f;
      for (std::int64_t l = 0; l < k; ++l) {
        const float x = w[at(l, j)];
        MGPT_CHECK(std::isfinite(x), "quantize_weights: the " << k << "x" << n
                                         << " weight holds " << x
                                         << " at row " << l << ", column "
                                         << j << "; int8 needs finite weights");
        amax = std::max(amax, std::fabs(x));
      }
      const float scale = amax > 0.0f ? amax / 127.0f : 1.0f;
      qw.scale[static_cast<std::size_t>(j)] = scale;
      const float inv = 1.0f / scale;
      // A column below ~3.7e-37 has a subnormal scale whose reciprocal
      // overflows to inf (0 * inf = NaN); divide instead. Other columns
      // keep the multiply: x * inv and x / scale can round differently,
      // and served int8 sidecars must stay byte-stable.
      const bool divide = !std::isfinite(inv);
      for (std::int64_t l = 0; l < k; ++l) {
        const float x = w[at(l, j)];
        const float q = std::nearbyintf(divide ? x / scale : x * inv);
        qw.q8[at(l, j)] =
            static_cast<std::int8_t>(std::clamp(q, -127.0f, 127.0f));
      }
    }
  }
  return qw;
}

const HostAnchors& host_anchors() {
  static const HostAnchors anchors = measure_anchors();
  return anchors;
}

double predict_seconds(std::int64_t m, std::int64_t n, std::int64_t k,
                       WeightFormat format, const HostAnchors& anchors,
                       bool packed) {
  MGPT_CHECK(packed || format == WeightFormat::kF32,
             "predict_seconds: " << kernels::format_name(format)
                                 << " weights are only ever packed");
  // The widest tile of the split prices the GEMM. Concurrent tiles share
  // the pool's aggregate compute rate; a row group reads all of B (shared
  // with the other groups through L3) at one thread's streaming rate, a
  // column panel (row-major) or panel range (packed) its own slice of B at
  // its share of the pool's.
  const std::size_t threads = std::max<std::size_t>(anchors.threads, 1);
  const std::int64_t panels =
      (n + kernels::kPanelFloats - 1) / kernels::kPanelFloats;
  const kernels::GemmSplit split =
      packed ? kernels::packed_split(m, n, k, panels, threads)
             : kernels::gemm_split(m, n, k, threads);
  std::int64_t widest = 0;
  for (std::size_t t = 0; t < split.tiles(); ++t) {
    widest = std::max(widest, split.cuts[t + 1] - split.cuts[t]);
  }
  if (packed && !split.by_rows) {
    widest = std::min(n, widest * kernels::kPanelFloats);
  }
  const std::int64_t tile_m = split.by_rows ? widest : m;
  const std::int64_t tile_n = split.by_rows ? n : widest;
  const auto concurrent =
      static_cast<double>(std::min(split.tiles(), threads));
  // Row groups contend for the one B they share; packed panel ranges
  // compute on disjoint panels, each at a whole thread's rate.
  const double compute_share =
      packed && !split.by_rows
          ? 1.0
          : std::min(1.0, anchors.pool_f32_gflops /
                              (concurrent * anchors.f32_gflops));
  const double stream_gbs = split.by_rows
                                ? anchors.stream_gbs
                                : anchors.pool_stream_gbs / concurrent;
  // Tiles beyond one per thread run in further rounds.
  const double rounds = std::ceil(static_cast<double>(split.tiles()) /
                                  static_cast<double>(threads));

  // Row-major B runs the streaming kernel in row_block() blocks; packed
  // panels run the register kernel, one column chunk per panel, in the
  // passes of the active width's row-tile table.
  const std::size_t passes = packed ? packed_passes(tile_m).size()
                                    : row_blocks(tile_m).size();
  const double efficiency = packed
                                ? packed_efficiency(tile_m)
                                : pair_efficiency(row_blocks(tile_m), tile_m);
  const std::int64_t nc =
      packed ? kernels::kPanelFloats : kernels::kStreamChunkFloats;

  double peak_gflops = packed ? anchors.packed_f32_gflops : anchors.f32_gflops;
  if (format == WeightFormat::kBf16) peak_gflops = anchors.bf16_gflops;
  if (format == WeightFormat::kInt8) peak_gflops = anchors.int8_gflops;
  peak_gflops *= compute_share;

  const double flops = 2.0 * static_cast<double>(tile_m) * tile_n * k;
  const double t_compute = flops / (peak_gflops * 1e9 * efficiency *
                                    column_efficiency(tile_n, nc));
  // Each row block or pass streams the tile's weights once; a packed
  // tile's panels are one contiguous run.
  const double bytes_per_pass =
      static_cast<double>(k) * static_cast<double>(tile_n) *
      elem_bytes(format);
  const double t_mem = static_cast<double>(passes) * bytes_per_pass /
                       (stream_gbs * 1e9);

  // Imperfect overlap between the FMA chain and the weight stream.
  return rounds *
         (std::max(t_compute, t_mem) + 0.3 * std::min(t_compute, t_mem));
}

}  // namespace matgpt::gemm_tune
