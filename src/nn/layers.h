#pragma once
// Building-block layers: Linear, LayerNorm, RMSNorm, and the two MLP
// variants the paper contrasts (Fig. 2): GPT-NeoX's 2-linear GELU MLP and
// LLaMA's 3-linear SwiGLU MLP. For matched hidden sizes the SwiGLU inner
// width is scaled by 2/3 so both MLPs have approximately equal parameter
// counts — the "same spec, different parameterization" property the paper's
// architecture comparison relies on.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "nn/module.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace matgpt::gemm_tune {
struct QuantWeights;
}  // namespace matgpt::gemm_tune

namespace matgpt::nn {

/// Which serving phase a forward belongs to. Decode/verify forwards may use
/// a Linear's quantized decode weights; prefill forwards always run fp32 so
/// prefill identities (chunked ≡ whole, cache-hit ≡ cold) are preserved no
/// matter how the scheduler slices a prompt. The classification is made by
/// the CALL SITE, never inferred from row counts — a one-token prefill
/// chunk must still be a prefill.
enum class FwdPath : std::uint8_t { kPrefill, kDecode };

/// y = x W (+ b); weight stored [in, out] so forward is a plain NN GEMM.
///
/// Serving packs the weight: set_decode_weights re-lays it IN PLACE as
/// kernels::pack_panels' contiguous 64-column panels, flagged on the
/// weight itself (VarNode::packed), so every GEMM thread streams its own
/// contiguous slice and no weight exists twice. Packing is one-way and
/// changes no parameter name, shape or logit byte. The layout stays inside
/// this class and the kernels: forward runs packed weights through
/// kernels::gemm_packed (ops::matmul refuses them), and any other reader of
/// a parameter's bytes goes through Linear::row_major (nn::save) or, after
/// writing row-major bytes into it, Linear::repack (nn::load). A
/// gradient-recording forward through packed weights throws: train before
/// serving, or load into a fresh model.
class Linear : public Module {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, bool bias,
         Rng& rng, float init_scale = 1.0f);

  /// x: [N, in] -> [N, out]; kDecode uses the quantized decode weights
  /// when set_decode_weights installed them.
  Var forward(Tape& tape, const Var& x,
              FwdPath path = FwdPath::kPrefill) const;

  /// forward() of every Linear in `group` (all [in, *], all prepared alike)
  /// on the same x: separate ops::matmul products, or once packed one
  /// kernels::gemm_packed job over the union of their panels (q|k|v,
  /// gate|up). Same bytes either way.
  static std::vector<Var> forward_many(Tape& tape, const Var& x,
                                       std::span<const Linear* const> group,
                                       FwdPath path);

  /// A parameter's value row-major: the value itself, or an unpacked copy
  /// of a weight set_decode_weights packed.
  static Tensor row_major(const Var& param);
  /// Re-lay a packed parameter whose value was just overwritten with
  /// row-major bytes; anything else is left as it is.
  static void repack(const Var& param);

  /// Pack the weight in place (once) and build (or with kF32: drop) the
  /// quantized decode sidecar in the same layout. Not thread-safe against
  /// concurrent forwards — call before serving starts. Prefill stays fp32.
  void set_decode_weights(kernels::WeightFormat format) const;
  kernels::WeightFormat decode_format() const;

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }

 private:
  static std::vector<Var> forward_packed(Tape& tape, const Var& x,
                                         std::span<const Linear* const> group,
                                         FwdPath path);

  std::int64_t in_;
  std::int64_t out_;
  Var weight_;
  Var bias_;  // undefined when bias == false
  // Decode-only weight re-encoding; shared_ptr so a forward that grabbed it
  // stays valid if a later set_decode_weights swaps the sidecar.
  mutable std::shared_ptr<const gemm_tune::QuantWeights> quant_;
};

/// LayerNorm over the last dim with affine parameters (NeoX style).
class LayerNorm : public Module {
 public:
  explicit LayerNorm(std::int64_t features, float eps = 1e-5f);
  Var forward(Tape& tape, const Var& x) const;

 private:
  Var gamma_;
  Var beta_;
  float eps_;
};

/// RMSNorm over the last dim (LLaMA style; no mean subtraction, no bias).
class RMSNorm : public Module {
 public:
  explicit RMSNorm(std::int64_t features, float eps = 1e-6f);
  Var forward(Tape& tape, const Var& x) const;

 private:
  Var gamma_;
  float eps_;
};

/// GPT-NeoX MLP: Linear(h -> 4h), GELU, Linear(4h -> h). With biases.
class GeluMlp : public Module {
 public:
  GeluMlp(std::int64_t hidden, Rng& rng, float out_init_scale);
  Var forward(Tape& tape, const Var& x,
              FwdPath path = FwdPath::kPrefill) const;
  void set_decode_weights(kernels::WeightFormat format) const;
  std::int64_t inner_dim() const { return up_.out_features(); }

 private:
  Linear up_;
  Linear down_;
};

/// LLaMA MLP: down( silu(gate(x)) * up(x) ) with inner dim 2/3 * 4h rounded
/// to a multiple of `round_multiple` (LLaMA rounds to 256; we default to 8
/// for small models). No biases.
class SwiGluMlp : public Module {
 public:
  SwiGluMlp(std::int64_t hidden, Rng& rng, float out_init_scale,
            std::int64_t round_multiple = 8);
  Var forward(Tape& tape, const Var& x,
              FwdPath path = FwdPath::kPrefill) const;
  void set_decode_weights(kernels::WeightFormat format) const;
  std::int64_t inner_dim() const { return gate_.out_features(); }

  /// The inner width used for a given hidden size (shared with the
  /// simulator's FLOP model so analytic and real parameter counts agree).
  static std::int64_t inner_dim_for(std::int64_t hidden,
                                    std::int64_t round_multiple = 8);

 private:
  Linear gate_;
  Linear up_;
  Linear down_;
};

}  // namespace matgpt::nn
