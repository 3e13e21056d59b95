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
  const Linear* self = this;
  return forward_many(tape, x, {&self, 1}, path)[0];
}

std::vector<Var> Linear::forward_many(Tape& tape, const Var& x,
                                      std::span<const Linear* const> group,
                                      FwdPath path) {
  const std::int64_t in = group[0]->in_;
  MGPT_CHECK(x.value().dim(-1) == in,
             "Linear expects feature dim " << in << ", got "
                                           << x.value().shape_str());
  Var flat = x.value().ndim() == 2 ? x : ops::reshape(tape, x, {-1, in});
  std::vector<Var> ys;
  if (group[0]->weight_.node()->packed) {
    ys = forward_packed(tape, flat, group, path);
  } else {
    for (const Linear* lin : group) {
      ys.push_back(ops::matmul(tape, flat, lin->weight_));
    }
  }
  for (std::size_t i = 0; i < ys.size(); ++i) {
    if (group[i]->bias_.defined()) {
      ys[i] = ops::add_bias(tape, ys[i], group[i]->bias_);
    }
  }
  return ys;
}

// The packed products of `group` as one job. A prefill (or a forward with
// no sidecar) reads the fp32 weights, a decode the bf16/int8 sidecars
// when set_decode_weights built them. There is no backward.
std::vector<Var> Linear::forward_packed(Tape& tape, const Var& x,
                                        std::span<const Linear* const> group,
                                        FwdPath path) {
  bool needs_grad = x.requires_grad();
  for (const Linear* lin : group) {
    needs_grad = needs_grad || lin->weight_.requires_grad();
  }
  MGPT_CHECK(!(tape.recording() && needs_grad),
             "Linear: the weights are packed into decode panels (an inference "
             "engine prepared this model), and a gradient needs them "
             "row-major; train a model no engine has prepared, or load its "
             "checkpoint into a fresh one");
  const std::int64_t m = x.value().dim(0);
  const std::int64_t k = x.value().dim(1);
  // Holding the sidecars keeps them alive if set_decode_weights swaps them.
  std::vector<std::shared_ptr<const gemm_tune::QuantWeights>> quants;
  for (const Linear* lin : group) {
    quants.push_back(path == FwdPath::kDecode ? lin->quant_ : nullptr);
  }
  const kernels::WeightFormat format =
      quants[0] ? quants[0]->format : kernels::WeightFormat::kF32;
  std::vector<Tensor> outs;
  std::vector<kernels::PackedGemm> gemms;
  outs.reserve(group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    const Linear& lin = *group[i];
    const gemm_tune::QuantWeights* qw = quants[i].get();
    MGPT_CHECK(lin.in_ == k && lin.weight_.node()->packed &&
                   (qw ? qw->format : kernels::WeightFormat::kF32) == format,
               "a packed Linear group shares its input, layout and format");
    outs.emplace_back(std::vector<std::int64_t>{m, lin.out_});
    kernels::PackedGemm g{lin.weight_.value().data(), nullptr,
                          outs.back().data(), lin.out_};
    if (format == kernels::WeightFormat::kBf16) g.b = qw->bf16.data();
    if (format == kernels::WeightFormat::kInt8) {
      g.b = qw->q8.data();
      g.scale = qw->scale.data();
    }
    gemms.push_back(g);
  }
  kernels::gemm_packed(x.value().data(), m, k, format, gemms);
  ops::count_matmuls(format, group.size());
  std::vector<Var> ys;
  for (Tensor& out : outs) {
    ys.push_back(tape.intermediate(std::move(out), /*requires_grad=*/false));
  }
  return ys;
}

Tensor Linear::row_major(const Var& param) {
  if (!param.node()->packed) return param.value();
  const Tensor& packed = param.value();
  Tensor out(packed.shape());
  kernels::unpack_panels(packed.data(), out.data(), packed.dim(0),
                         packed.dim(1));
  return out;
}

void Linear::repack(const Var& param) {
  if (!param.node()->packed) return;
  Tensor& value = param.node()->value;
  kernels::pack_panels(value.data(), value.dim(0), value.dim(1));
}

void Linear::set_decode_weights(kernels::WeightFormat format) const {
  VarNode& w = *weight_.node();
  if (!w.packed) {
    kernels::pack_panels(w.value.data(), in_, out_);
    w.packed = true;
  }
  if (format == kernels::WeightFormat::kF32) {
    quant_.reset();
    return;
  }
  quant_ = std::make_shared<const gemm_tune::QuantWeights>(
      gemm_tune::quantize_weights(w.value.data(), in_, out_, format));
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
  const Linear* gate_up[] = {&gate_, &up_};
  std::vector<Var> gu = Linear::forward_many(tape, x, gate_up, path);
  Var g = ops::silu(tape, gu[0]);
  return down_.forward(tape, ops::mul(tape, g, gu[1]), path);
}

void SwiGluMlp::set_decode_weights(kernels::WeightFormat format) const {
  gate_.set_decode_weights(format);
  up_.set_decode_weights(format);
  down_.set_decode_weights(format);
}

}  // namespace matgpt::nn
