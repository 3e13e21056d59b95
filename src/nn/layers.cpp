#include "nn/layers.h"

#include <cmath>

#include "common/error.h"
#include "tensor/gemm_tune.h"

namespace matgpt::nn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, bool bias,
               Rng& rng, float init_scale)
    : in_(in_features), out_(out_features) {
  MGPT_CHECK(in_ > 0 && out_ > 0, "Linear dimensions must be positive");
  // GPT-style init: N(0, 0.02), optionally rescaled for residual-output
  // projections (1/sqrt(2 * n_layers)) to keep the residual stream bounded.
  const float stddev = 0.02f * init_scale;
  weight_ = register_param("weight",
                           Tensor::randn({in_, out_}, rng, 0.0f, stddev));
  if (bias) {
    bias_ = register_param("bias", Tensor::zeros({out_}));
  }
}

Var Linear::forward(Tape& tape, const Var& x, FwdPath path) const {
  MGPT_CHECK(x.value().dim(-1) == in_,
             "Linear expects feature dim " << in_ << ", got "
                                           << x.value().shape_str());
  Var flat = x.value().ndim() == 2
                 ? x
                 : ops::reshape(tape, x, {-1, in_});
  const gemm_tune::QuantWeights* qw =
      path == FwdPath::kDecode ? quant_.get() : nullptr;
  Var y = ops::matmul(tape, flat, weight_, qw);
  if (bias_.defined()) y = ops::add_bias(tape, y, bias_);
  return y;
}

void Linear::set_decode_weights(kernels::WeightFormat format) const {
  if (format == kernels::WeightFormat::kF32) {
    quant_.reset();
    return;
  }
  quant_ = std::make_shared<const gemm_tune::QuantWeights>(
      gemm_tune::quantize_weights(weight_.value().data(), in_, out_, format));
}

kernels::WeightFormat Linear::decode_format() const {
  return quant_ ? quant_->format : kernels::WeightFormat::kF32;
}

LayerNorm::LayerNorm(std::int64_t features, float eps) : eps_(eps) {
  MGPT_CHECK(features > 0, "LayerNorm features must be positive");
  gamma_ = register_param("gamma", Tensor::full({features}, 1.0f));
  beta_ = register_param("beta", Tensor::zeros({features}));
}

Var LayerNorm::forward(Tape& tape, const Var& x) const {
  return ops::layer_norm(tape, x, gamma_, beta_, eps_);
}

RMSNorm::RMSNorm(std::int64_t features, float eps) : eps_(eps) {
  MGPT_CHECK(features > 0, "RMSNorm features must be positive");
  gamma_ = register_param("gamma", Tensor::full({features}, 1.0f));
}

Var RMSNorm::forward(Tape& tape, const Var& x) const {
  return ops::rms_norm(tape, x, gamma_, eps_);
}

GeluMlp::GeluMlp(std::int64_t hidden, Rng& rng, float out_init_scale)
    : up_(hidden, 4 * hidden, /*bias=*/true, rng),
      down_(4 * hidden, hidden, /*bias=*/true, rng, out_init_scale) {
  register_submodule("up", up_);
  register_submodule("down", down_);
}

Var GeluMlp::forward(Tape& tape, const Var& x, FwdPath path) const {
  return down_.forward(tape, ops::gelu(tape, up_.forward(tape, x, path)),
                       path);
}

void GeluMlp::set_decode_weights(kernels::WeightFormat format) const {
  up_.set_decode_weights(format);
  down_.set_decode_weights(format);
}

std::int64_t SwiGluMlp::inner_dim_for(std::int64_t hidden,
                                      std::int64_t round_multiple) {
  // 2/3 of 4h, rounded up to the requested multiple (LLaMA convention),
  // giving 3 * (8h/3) * h ≈ 8h^2 parameters — the same as GELU's 2 * 4h * h.
  const std::int64_t raw = (8 * hidden + 2) / 3;
  return ((raw + round_multiple - 1) / round_multiple) * round_multiple;
}

SwiGluMlp::SwiGluMlp(std::int64_t hidden, Rng& rng, float out_init_scale,
                     std::int64_t round_multiple)
    : gate_(hidden, inner_dim_for(hidden, round_multiple), /*bias=*/false,
            rng),
      up_(hidden, inner_dim_for(hidden, round_multiple), /*bias=*/false, rng),
      down_(inner_dim_for(hidden, round_multiple), hidden, /*bias=*/false,
            rng, out_init_scale) {
  register_submodule("gate", gate_);
  register_submodule("up", up_);
  register_submodule("down", down_);
}

Var SwiGluMlp::forward(Tape& tape, const Var& x, FwdPath path) const {
  Var g = ops::silu(tape, gate_.forward(tape, x, path));
  Var u = up_.forward(tape, x, path);
  return down_.forward(tape, ops::mul(tape, g, u), path);
}

void SwiGluMlp::set_decode_weights(kernels::WeightFormat format) const {
  gate_.set_decode_weights(format);
  up_.set_decode_weights(format);
  down_.set_decode_weights(format);
}

}  // namespace matgpt::nn
