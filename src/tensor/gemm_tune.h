#pragma once
// Weight-quantized decode storage + the analytic GEMM cost model.
//
// QuantWeights is the bf16/int8 sidecar a Linear layer keeps for its
// decode forwards; run_gemm is the one place a weight format picks its
// kernel, for ops::matmul and the cost model's measurements alike. The
// weight FORMAT is a whole-engine config mode (EngineConfig::decode_quant),
// never a per-shape decision: per-shape format switching would break
// batched-vs-batch-1 token identity.
//
// The cost model prices one GEMM of a given shape, format and tiling in the
// streaming (cold-weights) regime the serving engine lives in: FLOP
// throughput with pairing/fringe efficiency terms vs weight-streaming
// traffic with a segment-length term, anchored to this host: measure a
// reference shape, scale the model so it predicts that shape exactly, and
// extrapolate to every other shape from there. It prices the
// split that will run — kernels::gemm_split's over row-major B,
// kernels::packed_split's over packed panels — by its widest tile, once
// per round of tiles over the pool, and, within a tile, the row blocks
// kernels::row_block says will run, for every format. It predicts;
// it does not choose. The tiling that runs comes from the fixed rule in
// kernels::pick_variant, and every tiling writes identical bytes (see
// kernels.h).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/kernels.h"

namespace matgpt::gemm_tune {

/// A weight matrix [k, n] re-encoded for the quantized decode GEMMs.
/// bf16: raw bit patterns (value = bits << 16). int8: per-output-column
/// symmetric scales, q = round(w / scale) clamped to [-127, 127]. The
/// elements sit in the layout of the weight they were built from.
struct QuantWeights {
  kernels::WeightFormat format = kernels::WeightFormat::kF32;
  std::int64_t k = 0;
  std::int64_t n = 0;
  std::vector<std::uint16_t> bf16;  // [k * n] when format == kBf16
  std::vector<std::int8_t> q8;      // [k * n] when format == kInt8
  std::vector<float> scale;         // [n] when format == kInt8
};

/// Build the quantized sidecar for a [k, n] fp32 weight matrix, in the
/// layout `w` has: row-major, or packed panels when `packed`. Every element
/// and scale is the same either way; only its position differs.
QuantWeights quantize_weights(const float* w, std::int64_t k, std::int64_t n,
                              kernels::WeightFormat format,
                              bool packed = false);

/// C[m,n] = A[m,k] * W[k,n] at the given tiling. W is read from `qw` in
/// its format when `qw` is non-null and not fp32, else from the fp32 `b`.
void run_gemm(const float* a, const float* b, const QuantWeights* qw,
              float* c, std::int64_t m, std::int64_t n, std::int64_t k,
              const kernels::GemmVariant& variant);

/// Measured host anchors for the cost model: rates measured on reference
/// shapes, which calibrate the model so its prediction matches there and
/// extrapolates everywhere else. Peaks are one thread's hot-L2
/// compute rates at the reference tiling, and pool_f32_gflops the fp32
/// aggregate when every thread of the pool (`threads` of them) computes
/// its own row group. stream_gbs is the effective rate at which one
/// thread's single-row GEMM streams a RAM-resident weight matrix, and
/// pool_stream_gbs the aggregate when every thread streams its own column
/// panel of one.
struct HostAnchors {
  double f32_gflops = 0.0;
  double bf16_gflops = 0.0;
  double int8_gflops = 0.0;
  double pool_f32_gflops = 0.0;
  double stream_gbs = 0.0;
  double pool_stream_gbs = 0.0;
  std::size_t threads = 1;
};

/// Measure (and memoize) this host's anchors. First call costs ~100 ms.
const HostAnchors& host_anchors();

/// Analytic time for one gemm of the given shape/format/tiling in the
/// streaming (cold-weights) regime the serving engine lives in, run with
/// the split kernels::gemm_split picks on anchors.threads threads, or with
/// `packed` B (what a prepared model's layers run) kernels::packed_split's:
/// below kParallelRowThreshold rows each tile streams only its own panels,
/// 1/T of B in one contiguous run, at its share of the pool's rate.
double predict_seconds(std::int64_t m, std::int64_t n, std::int64_t k,
                       kernels::WeightFormat format,
                       const kernels::GemmVariant& variant,
                       const HostAnchors& anchors, bool packed = false);

/// Candidate tilings for a shape, deduplicated by effective row-block
/// decomposition (mr > m collapses onto the remainder path) and effective
/// column chunk (nc >= n collapses onto one chunk). Always contains the
/// default variant. Every format shares one row-block rule, so the space
/// does not depend on `format` (nor on `k`).
std::vector<kernels::GemmVariant> candidate_space(std::int64_t m,
                                                  std::int64_t n,
                                                  std::int64_t k,
                                                  kernels::WeightFormat format);

}  // namespace matgpt::gemm_tune
