#pragma once
// Weight-quantized decode storage + the analytic GEMM cost model.
//
// QuantWeights is the bf16/int8 sidecar a Linear layer keeps for its
// decode forwards. It is built from a packed weight and read only by
// kernels::gemm_packed. The weight FORMAT is a whole-engine config mode
// (EngineConfig::decode_quant), never a per-shape decision: per-shape
// format switching would break batched-vs-batch-1 token identity.
//
// The cost model prices one GEMM of a given shape, format and layout in
// the streaming (cold-weights) regime the serving engine lives in: FLOP
// throughput with pairing/fringe efficiency terms vs weight-streaming
// traffic, anchored to this host: measure a reference shape, scale the
// model so it predicts that shape exactly, and extrapolate to every other
// shape from there. It prices the split that will run —
// kernels::gemm_split's over row-major B, kernels::packed_split's over
// packed panels — by its widest tile, once per round of tiles over the
// pool, and, within a tile, the row blocks the kernel will run
// (kernels::row_block's over row-major B, the passes of the active width's
// row-tile table over packed panels, see gemm_width.h). It predicts; it
// does not choose.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/kernels.h"

namespace matgpt::gemm_tune {

/// A weight matrix [k, n] re-encoded for the quantized decode GEMMs.
/// bf16: raw bit patterns (value = bits << 16). int8: per-output-column
/// symmetric scales, q = round(w / scale) clamped to [-127, 127]. The
/// elements sit in kernels::pack_panels' layout, like the weight they were
/// built from.
struct QuantWeights {
  kernels::WeightFormat format = kernels::WeightFormat::kF32;
  std::int64_t k = 0;
  std::int64_t n = 0;
  std::vector<std::uint16_t> bf16;  // [k * n] when format == kBf16
  std::vector<std::int8_t> q8;      // [k * n] when format == kInt8
  std::vector<float> scale;         // [n] when format == kInt8
};

/// Build the quantized sidecar for a [k, n] fp32 weight matrix packed by
/// kernels::pack_panels. int8 throws on a weight that is not finite,
/// naming its row and column: an inf would give its column an inf scale
/// and quantize every element of it to 0, and a NaN has no int8 value.
/// bf16 rounds every weight by round_bf16, keeping an inf as it is and a
/// NaN as a NaN of its sign.
QuantWeights quantize_weights(const float* w, std::int64_t k, std::int64_t n,
                              kernels::WeightFormat format);

/// Measured host anchors for the cost model: rates measured on reference
/// shapes, which calibrate the model so its prediction matches there and
/// extrapolates everywhere else. Peaks are one thread's hot-L2
/// compute rates on the reference shape (f32_gflops over row-major B;
/// packed_f32_gflops, bf16_gflops and int8_gflops through gemm_packed, the
/// register kernel every served weight runs), and pool_f32_gflops
/// the fp32 aggregate when every thread of the pool (`threads` of them)
/// computes its own row group. stream_gbs is the effective rate at which one
/// thread's single-row GEMM streams a RAM-resident weight matrix, and
/// pool_stream_gbs the aggregate when every thread streams its own column
/// panel of one.
struct HostAnchors {
  double f32_gflops = 0.0;
  double packed_f32_gflops = 0.0;
  double bf16_gflops = 0.0;
  double int8_gflops = 0.0;
  double pool_f32_gflops = 0.0;
  double stream_gbs = 0.0;
  double pool_stream_gbs = 0.0;
  std::size_t threads = 1;
};

/// Measure (and memoize) this host's anchors. First call costs ~100 ms.
const HostAnchors& host_anchors();

/// Analytic time for one gemm of the given shape and format in the
/// streaming (cold-weights) regime the serving engine lives in, run with
/// the split kernels::gemm_split picks on anchors.threads threads, or with
/// `packed` B (what a prepared model's layers run) kernels::packed_split's:
/// below kParallelRowThreshold rows each tile streams only its own panels,
/// 1/T of B in one contiguous run, at its share of the pool's rate. Throws
/// for bf16/int8 over row-major B, a GEMM that never runs.
double predict_seconds(std::int64_t m, std::int64_t n, std::int64_t k,
                       kernels::WeightFormat format,
                       const HostAnchors& anchors, bool packed);

}  // namespace matgpt::gemm_tune
