#include "tensor/ops.h"

#include <array>
#include <atomic>
#include <cmath>

#include "common/error.h"
#include "tensor/kernels.h"

namespace matgpt::ops {

namespace {

using kernels::WeightFormat;

/// matmul forwards by weight format (indexed by WeightFormat).
std::array<std::atomic<std::uint64_t>, 3> g_matmul_calls{};

/// Number of rows when treating the last dim as features.
std::int64_t leading_rows(const Tensor& t) {
  MGPT_CHECK(t.ndim() >= 1, "op requires at least rank-1 input");
  return t.dim(-1) == 0 ? 0 : t.numel() / t.dim(-1);
}

bool any_requires_grad(std::initializer_list<const Var*> vars) {
  for (const Var* v : vars) {
    if (v->requires_grad()) return true;
  }
  return false;
}

}  // namespace

Var add(Tape& tape, const Var& a, const Var& b) {
  MGPT_CHECK(a.value().numel() == b.value().numel(),
             "add: shape mismatch " << a.value().shape_str() << " vs "
                                    << b.value().shape_str());
  Tensor out = a.value().clone();
  out.add_(b.value());
  Var result = tape.intermediate(std::move(out), any_requires_grad({&a, &b}));
  if (result.requires_grad()) {
    tape.record([an = a.node(), bn = b.node(), rn = result.node()] {
      an->accumulate(rn->grad);
      bn->accumulate(rn->grad);
    });
  }
  return result;
}

Var add_bias(Tape& tape, const Var& x, const Var& bias) {
  const std::int64_t cols = x.value().dim(-1);
  MGPT_CHECK(bias.value().numel() == cols,
             "add_bias: bias length " << bias.value().numel()
                                      << " != feature dim " << cols);
  const std::int64_t rows = leading_rows(x.value());
  Tensor out = x.value().clone();
  float* o = out.data();
  const float* b = bias.value().data();
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) o[r * cols + c] += b[c];
  }
  Var result = tape.intermediate(std::move(out), any_requires_grad({&x, &bias}));
  if (result.requires_grad()) {
    tape.record([xn = x.node(), bn = bias.node(), rn = result.node(), rows,
                 cols] {
      xn->accumulate(rn->grad);
      if (bn->requires_grad) {
        Tensor& bg = bn->ensure_grad();
        const float* g = rn->grad.data();
        float* bgd = bg.data();
        for (std::int64_t r = 0; r < rows; ++r) {
          for (std::int64_t c = 0; c < cols; ++c) bgd[c] += g[r * cols + c];
        }
      }
    });
  }
  return result;
}

Var mul(Tape& tape, const Var& a, const Var& b) {
  MGPT_CHECK(a.value().numel() == b.value().numel(),
             "mul: shape mismatch " << a.value().shape_str() << " vs "
                                    << b.value().shape_str());
  Tensor out = a.value().clone();
  {
    float* o = out.data();
    const float* pb = b.value().data();
    for (std::int64_t i = 0; i < out.numel(); ++i) o[i] *= pb[i];
  }
  Var result = tape.intermediate(std::move(out), any_requires_grad({&a, &b}));
  if (result.requires_grad()) {
    tape.record([an = a.node(), bn = b.node(), rn = result.node()] {
      const float* g = rn->grad.data();
      const std::int64_t n = rn->grad.numel();
      if (an->requires_grad) {
        Tensor& ag = an->ensure_grad();
        const float* pb = bn->value.data();
        float* pa = ag.data();
        for (std::int64_t i = 0; i < n; ++i) pa[i] += g[i] * pb[i];
      }
      if (bn->requires_grad) {
        Tensor& bg = bn->ensure_grad();
        const float* pa = an->value.data();
        float* pb = bg.data();
        for (std::int64_t i = 0; i < n; ++i) pb[i] += g[i] * pa[i];
      }
    });
  }
  return result;
}

Var scale(Tape& tape, const Var& a, float s) {
  Tensor out = a.value().clone();
  out.scale_(s);
  Var result = tape.intermediate(std::move(out), a.requires_grad());
  if (result.requires_grad()) {
    tape.record([an = a.node(), rn = result.node(), s] {
      Tensor g = rn->grad.clone();
      g.scale_(s);
      an->accumulate(g);
    });
  }
  return result;
}

Var matmul(Tape& tape, const Var& a, const Var& b) {
  MGPT_CHECK(a.value().ndim() == 2 && b.value().ndim() == 2,
             "matmul requires rank-2 operands");
  const std::int64_t m = a.value().dim(0);
  const std::int64_t k = a.value().dim(1);
  const std::int64_t n = b.value().dim(1);
  MGPT_CHECK(b.value().dim(0) == k,
             "matmul inner-dim mismatch: " << a.value().shape_str() << " x "
                                           << b.value().shape_str());
  MGPT_CHECK(!b.node()->packed,
             "matmul: the " << k << "x" << n
                            << " weight is packed into decode panels; only "
                               "nn::Linear multiplies by it");
  const bool needs_grad = any_requires_grad({&a, &b});
  count_matmuls(WeightFormat::kF32, 1);
  Tensor out({m, n});
  kernels::gemm_nn(a.value().data(), b.value().data(), out.data(), m, n, k,
                   /*accumulate=*/false);
  Var result = tape.intermediate(std::move(out), needs_grad);
  if (result.requires_grad()) {
    tape.record([an = a.node(), bn = b.node(), rn = result.node(), m, n, k] {
      const float* g = rn->grad.data();
      if (an->requires_grad) {
        Tensor& ag = an->ensure_grad();
        // dA = g * B^T : [m,n] x [k,n]^T
        kernels::gemm_nt(g, bn->value.data(), ag.data(), m, k, n,
                         /*accumulate=*/true);
      }
      if (bn->requires_grad) {
        Tensor& bg = bn->ensure_grad();
        // dB = A^T * g : [m,k]^T x [m,n]
        kernels::gemm_tn(an->value.data(), g, bg.data(), k, n, m,
                         /*accumulate=*/true);
      }
    });
  }
  return result;
}

void count_matmuls(WeightFormat format, std::uint64_t calls) {
  g_matmul_calls[static_cast<std::size_t>(format)].fetch_add(
      calls, std::memory_order_relaxed);
}

std::uint64_t matmul_calls(WeightFormat format) {
  return g_matmul_calls[static_cast<std::size_t>(format)].load(
      std::memory_order_relaxed);
}

Var reshape(Tape& tape, const Var& x, std::vector<std::int64_t> shape) {
  Tensor out = x.value().reshape(std::move(shape));
  Var result = tape.intermediate(std::move(out), x.requires_grad());
  if (result.requires_grad()) {
    tape.record([xn = x.node(), rn = result.node()] {
      xn->accumulate(rn->grad.reshape(xn->value.shape()));
    });
  }
  return result;
}

Var embedding(Tape& tape, const Var& weight,
              std::span<const std::int32_t> ids) {
  MGPT_CHECK(weight.value().ndim() == 2, "embedding weight must be [V, C]");
  const std::int64_t vocab = weight.value().dim(0);
  const std::int64_t cols = weight.value().dim(1);
  const auto n = static_cast<std::int64_t>(ids.size());
  Tensor out({n, cols});
  const float* w = weight.value().data();
  float* o = out.data();
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int32_t id = ids[static_cast<std::size_t>(i)];
    MGPT_CHECK(id >= 0 && id < vocab,
               "embedding id " << id << " out of range [0, " << vocab << ")");
    const float* row = w + static_cast<std::size_t>(id) * cols;
    std::copy(row, row + cols, o + i * cols);
  }
  Var result = tape.intermediate(std::move(out), weight.requires_grad());
  if (result.requires_grad()) {
    std::vector<std::int32_t> ids_copy(ids.begin(), ids.end());
    tape.record([wn = weight.node(), rn = result.node(),
                 ids_copy = std::move(ids_copy), cols] {
      Tensor& wg = wn->ensure_grad();
      const float* g = rn->grad.data();
      float* wgd = wg.data();
      for (std::size_t i = 0; i < ids_copy.size(); ++i) {
        float* row = wgd + static_cast<std::size_t>(ids_copy[i]) * cols;
        const float* grow = g + i * static_cast<std::size_t>(cols);
        for (std::int64_t c = 0; c < cols; ++c) row[c] += grow[c];
      }
    });
  }
  return result;
}

Var gather_rows(Tape& tape, const Var& x, std::vector<std::int64_t> idx) {
  MGPT_CHECK(x.value().ndim() == 2, "gather_rows requires a 2D tensor");
  const std::int64_t rows = x.value().dim(0);
  const std::int64_t cols = x.value().dim(1);
  const auto n = static_cast<std::int64_t>(idx.size());
  Tensor out({n, cols});
  const float* src = x.value().data();
  float* o = out.data();
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t r = idx[static_cast<std::size_t>(i)];
    MGPT_CHECK(r >= 0 && r < rows, "gather_rows index out of range");
    std::copy(src + r * cols, src + (r + 1) * cols, o + i * cols);
  }
  Var result = tape.intermediate(std::move(out), x.requires_grad());
  if (result.requires_grad()) {
    tape.record([xn = x.node(), rn = result.node(), idx = std::move(idx),
                 cols] {
      Tensor& xg = xn->ensure_grad();
      const float* g = rn->grad.data();
      float* xgd = xg.data();
      for (std::size_t i = 0; i < idx.size(); ++i) {
        float* row = xgd + static_cast<std::size_t>(idx[i]) * cols;
        const float* grow = g + i * static_cast<std::size_t>(cols);
        for (std::int64_t c = 0; c < cols; ++c) row[c] += grow[c];
      }
    });
  }
  return result;
}

Var scatter_add_rows(Tape& tape, const Var& messages,
                     std::vector<std::int64_t> dst, std::int64_t n_rows) {
  MGPT_CHECK(messages.value().ndim() == 2,
             "scatter_add_rows requires 2D messages");
  const std::int64_t e = messages.value().dim(0);
  const std::int64_t cols = messages.value().dim(1);
  MGPT_CHECK(static_cast<std::int64_t>(dst.size()) == e,
             "scatter_add_rows: dst length must equal message count");
  Tensor out({n_rows, cols});
  const float* src = messages.value().data();
  float* o = out.data();
  for (std::int64_t i = 0; i < e; ++i) {
    const std::int64_t r = dst[static_cast<std::size_t>(i)];
    MGPT_CHECK(r >= 0 && r < n_rows, "scatter_add_rows index out of range");
    const float* mrow = src + i * cols;
    float* orow = o + r * cols;
    for (std::int64_t c = 0; c < cols; ++c) orow[c] += mrow[c];
  }
  Var result = tape.intermediate(std::move(out), messages.requires_grad());
  if (result.requires_grad()) {
    tape.record([mn = messages.node(), rn = result.node(),
                 dst = std::move(dst), cols] {
      Tensor& mg = mn->ensure_grad();
      const float* g = rn->grad.data();
      float* mgd = mg.data();
      for (std::size_t i = 0; i < dst.size(); ++i) {
        const float* grow = g + static_cast<std::size_t>(dst[i]) *
                                    static_cast<std::size_t>(cols);
        float* mrow = mgd + i * static_cast<std::size_t>(cols);
        for (std::int64_t c = 0; c < cols; ++c) mrow[c] += grow[c];
      }
    });
  }
  return result;
}

Var slice_rows(Tape& tape, const Var& x, std::int64_t begin,
               std::int64_t end) {
  MGPT_CHECK(x.value().ndim() == 2, "slice_rows requires a 2D tensor");
  const std::int64_t rows = x.value().dim(0);
  const std::int64_t cols = x.value().dim(1);
  MGPT_CHECK(begin >= 0 && begin <= end && end <= rows,
             "slice_rows range [" << begin << ", " << end
                                  << ") out of bounds for " << rows
                                  << " rows");
  Tensor out({end - begin, cols});
  const float* src = x.value().data();
  std::copy(src + begin * cols, src + end * cols, out.data());
  Var result = tape.intermediate(std::move(out), x.requires_grad());
  if (result.requires_grad()) {
    tape.record([xn = x.node(), rn = result.node(), begin, cols] {
      Tensor& xg = xn->ensure_grad();
      const float* g = rn->grad.data();
      float* dst = xg.data() + begin * cols;
      for (std::int64_t i = 0; i < rn->grad.numel(); ++i) dst[i] += g[i];
    });
  }
  return result;
}

Var concat_cols(Tape& tape, const Var& a, const Var& b) {
  MGPT_CHECK(a.value().ndim() == 2 && b.value().ndim() == 2,
             "concat_cols requires 2D tensors");
  const std::int64_t rows = a.value().dim(0);
  MGPT_CHECK(b.value().dim(0) == rows, "concat_cols row-count mismatch");
  const std::int64_t ca = a.value().dim(1);
  const std::int64_t cb = b.value().dim(1);
  Tensor out({rows, ca + cb});
  const float* pa = a.value().data();
  const float* pb = b.value().data();
  float* o = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    std::copy(pa + r * ca, pa + (r + 1) * ca, o + r * (ca + cb));
    std::copy(pb + r * cb, pb + (r + 1) * cb, o + r * (ca + cb) + ca);
  }
  Var result = tape.intermediate(std::move(out), any_requires_grad({&a, &b}));
  if (result.requires_grad()) {
    tape.record([an = a.node(), bn = b.node(), rn = result.node(), rows, ca,
                 cb] {
      const float* g = rn->grad.data();
      if (an->requires_grad) {
        Tensor& ag = an->ensure_grad();
        float* pa = ag.data();
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* grow = g + r * (ca + cb);
          for (std::int64_t c = 0; c < ca; ++c) pa[r * ca + c] += grow[c];
        }
      }
      if (bn->requires_grad) {
        Tensor& bg = bn->ensure_grad();
        float* pb = bg.data();
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* grow = g + r * (ca + cb) + ca;
          for (std::int64_t c = 0; c < cb; ++c) pb[r * cb + c] += grow[c];
        }
      }
    });
  }
  return result;
}

Var mean_rows(Tape& tape, const Var& x) {
  MGPT_CHECK(x.value().ndim() == 2, "mean_rows requires a 2D tensor");
  const std::int64_t rows = x.value().dim(0);
  const std::int64_t cols = x.value().dim(1);
  MGPT_CHECK(rows > 0, "mean_rows of an empty tensor");
  Tensor out({1, cols});
  const float* src = x.value().data();
  float* o = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) o[c] += src[r * cols + c];
  }
  out.scale_(1.0f / static_cast<float>(rows));
  Var result = tape.intermediate(std::move(out), x.requires_grad());
  if (result.requires_grad()) {
    tape.record([xn = x.node(), rn = result.node(), rows, cols] {
      Tensor& xg = xn->ensure_grad();
      const float* g = rn->grad.data();
      float* dst = xg.data();
      const float inv = 1.0f / static_cast<float>(rows);
      for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int64_t c = 0; c < cols; ++c) dst[r * cols + c] += g[c] * inv;
      }
    });
  }
  return result;
}

Var sum_all(Tape& tape, const Var& x) {
  Tensor out = Tensor::from_data({1}, {static_cast<float>(x.value().sum())});
  Var result = tape.intermediate(std::move(out), x.requires_grad());
  if (result.requires_grad()) {
    tape.record([xn = x.node(), rn = result.node()] {
      Tensor& xg = xn->ensure_grad();
      const float g = rn->grad[0];
      float* xgd = xg.data();
      for (std::int64_t i = 0; i < xg.numel(); ++i) xgd[i] += g;
    });
  }
  return result;
}

Var layer_norm(Tape& tape, const Var& x, const Var& gamma, const Var& beta,
               float eps) {
  const std::int64_t cols = x.value().dim(-1);
  MGPT_CHECK(gamma.value().numel() == cols && beta.value().numel() == cols,
             "layer_norm parameter length must equal the feature dim");
  const std::int64_t rows = leading_rows(x.value());
  Tensor out(x.value().shape());
  Tensor xhat({rows, cols});
  Tensor inv_std({rows});
  const float* src = x.value().data();
  const float* gm = gamma.value().data();
  const float* bt = beta.value().data();
  float* o = out.data();
  float* xh = xhat.data();
  float* is = inv_std.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = src + r * cols;
    double mu = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) mu += row[c];
    mu /= static_cast<double>(cols);
    double var = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) {
      const double d = row[c] - mu;
      var += d * d;
    }
    var /= static_cast<double>(cols);
    const auto inv = static_cast<float>(1.0 / std::sqrt(var + eps));
    is[r] = inv;
    for (std::int64_t c = 0; c < cols; ++c) {
      const float h = (row[c] - static_cast<float>(mu)) * inv;
      xh[r * cols + c] = h;
      o[r * cols + c] = gm[c] * h + bt[c];
    }
  }
  Var result = tape.intermediate(std::move(out),
                                 any_requires_grad({&x, &gamma, &beta}));
  if (result.requires_grad()) {
    tape.record([xn = x.node(), gn = gamma.node(), bn = beta.node(),
                 rn = result.node(), xhat = std::move(xhat),
                 inv_std = std::move(inv_std), rows, cols] {
      const float* g = rn->grad.data();
      const float* xh = xhat.data();
      const float* is = inv_std.data();
      const float* gm = gn->value.data();
      if (gn->requires_grad || bn->requires_grad) {
        Tensor& gg = gn->ensure_grad();
        Tensor& bg = bn->ensure_grad();
        float* ggd = gg.data();
        float* bgd = bg.data();
        for (std::int64_t r = 0; r < rows; ++r) {
          for (std::int64_t c = 0; c < cols; ++c) {
            ggd[c] += g[r * cols + c] * xh[r * cols + c];
            bgd[c] += g[r * cols + c];
          }
        }
      }
      if (xn->requires_grad) {
        Tensor& xg = xn->ensure_grad();
        float* xgd = xg.data();
        for (std::int64_t r = 0; r < rows; ++r) {
          double mean_dxhat = 0.0;
          double mean_dxhat_xhat = 0.0;
          for (std::int64_t c = 0; c < cols; ++c) {
            const double dxh =
                static_cast<double>(g[r * cols + c]) * gm[c];
            mean_dxhat += dxh;
            mean_dxhat_xhat += dxh * xh[r * cols + c];
          }
          mean_dxhat /= static_cast<double>(cols);
          mean_dxhat_xhat /= static_cast<double>(cols);
          for (std::int64_t c = 0; c < cols; ++c) {
            const double dxh =
                static_cast<double>(g[r * cols + c]) * gm[c];
            xgd[r * cols + c] += static_cast<float>(
                is[r] * (dxh - mean_dxhat -
                         xh[r * cols + c] * mean_dxhat_xhat));
          }
        }
      }
    });
  }
  return result;
}

Var rms_norm(Tape& tape, const Var& x, const Var& gamma, float eps) {
  const std::int64_t cols = x.value().dim(-1);
  MGPT_CHECK(gamma.value().numel() == cols,
             "rms_norm parameter length must equal the feature dim");
  const std::int64_t rows = leading_rows(x.value());
  Tensor out(x.value().shape());
  Tensor inv_rms({rows});
  const float* src = x.value().data();
  const float* gm = gamma.value().data();
  float* o = out.data();
  float* ir = inv_rms.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = src + r * cols;
    double ms = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) {
      ms += static_cast<double>(row[c]) * row[c];
    }
    ms = ms / static_cast<double>(cols) + eps;
    const auto inv = static_cast<float>(1.0 / std::sqrt(ms));
    ir[r] = inv;
    for (std::int64_t c = 0; c < cols; ++c) {
      o[r * cols + c] = gm[c] * row[c] * inv;
    }
  }
  Var result =
      tape.intermediate(std::move(out), any_requires_grad({&x, &gamma}));
  if (result.requires_grad()) {
    tape.record([xn = x.node(), gn = gamma.node(), rn = result.node(),
                 inv_rms = std::move(inv_rms), rows, cols] {
      const float* g = rn->grad.data();
      const float* src = xn->value.data();
      const float* gm = gn->value.data();
      const float* ir = inv_rms.data();
      if (gn->requires_grad) {
        Tensor& gg = gn->ensure_grad();
        float* ggd = gg.data();
        for (std::int64_t r = 0; r < rows; ++r) {
          for (std::int64_t c = 0; c < cols; ++c) {
            ggd[c] += g[r * cols + c] * src[r * cols + c] * ir[r];
          }
        }
      }
      if (xn->requires_grad) {
        Tensor& xg = xn->ensure_grad();
        float* xgd = xg.data();
        for (std::int64_t r = 0; r < rows; ++r) {
          double dot_dxhat_x = 0.0;
          for (std::int64_t c = 0; c < cols; ++c) {
            dot_dxhat_x += static_cast<double>(g[r * cols + c]) * gm[c] *
                           src[r * cols + c];
          }
          const double coeff = dot_dxhat_x * ir[r] * ir[r] /
                               static_cast<double>(cols);
          for (std::int64_t c = 0; c < cols; ++c) {
            const double dxh =
                static_cast<double>(g[r * cols + c]) * gm[c];
            xgd[r * cols + c] += static_cast<float>(
                ir[r] * (dxh - src[r * cols + c] * coeff));
          }
        }
      }
    });
  }
  return result;
}

namespace {

/// Shared scaffolding for elementwise activations: forward maps every value,
/// backward multiplies the upstream grad by a derivative computed from the
/// saved input (and, for cheapness, the saved output).
template <typename Fwd, typename Bwd>
Var unary_elementwise(Tape& tape, const Var& x, Fwd fwd, Bwd bwd_factor) {
  Tensor out(x.value().shape());
  const float* src = x.value().data();
  float* o = out.data();
  const std::int64_t n = out.numel();
  for (std::int64_t i = 0; i < n; ++i) o[i] = fwd(src[i]);
  Var result = tape.intermediate(std::move(out), x.requires_grad());
  if (result.requires_grad()) {
    tape.record([xn = x.node(), rn = result.node(), bwd_factor, n] {
      Tensor& xg = xn->ensure_grad();
      const float* g = rn->grad.data();
      const float* src = xn->value.data();
      const float* out = rn->value.data();
      float* xgd = xg.data();
      for (std::int64_t i = 0; i < n; ++i) {
        xgd[i] += g[i] * bwd_factor(src[i], out[i]);
      }
    });
  }
  return result;
}

}  // namespace

Var gelu(Tape& tape, const Var& x) {
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  constexpr float kA = 0.044715f;
  return unary_elementwise(
      tape, x,
      [](float v) {
        const float inner = kC * (v + kA * v * v * v);
        return 0.5f * v * (1.0f + std::tanh(inner));
      },
      [](float v, float /*y*/) {
        const float inner = kC * (v + kA * v * v * v);
        const float t = std::tanh(inner);
        const float sech2 = 1.0f - t * t;
        return 0.5f * (1.0f + t) +
               0.5f * v * sech2 * kC * (1.0f + 3.0f * kA * v * v);
      });
}

Var silu(Tape& tape, const Var& x) {
  return unary_elementwise(
      tape, x,
      [](float v) { return v / (1.0f + std::exp(-v)); },
      [](float v, float /*y*/) {
        const float s = 1.0f / (1.0f + std::exp(-v));
        return s * (1.0f + v * (1.0f - s));
      });
}

Var relu(Tape& tape, const Var& x) {
  return unary_elementwise(
      tape, x, [](float v) { return v > 0.0f ? v : 0.0f; },
      [](float v, float /*y*/) { return v > 0.0f ? 1.0f : 0.0f; });
}

Var sigmoid(Tape& tape, const Var& x) {
  return unary_elementwise(
      tape, x, [](float v) { return 1.0f / (1.0f + std::exp(-v)); },
      [](float /*v*/, float y) { return y * (1.0f - y); });
}

Var tanh_act(Tape& tape, const Var& x) {
  return unary_elementwise(
      tape, x, [](float v) { return std::tanh(v); },
      [](float /*v*/, float y) { return 1.0f - y * y; });
}

Var dropout(Tape& tape, const Var& x, float p, Rng& rng, bool training) {
  MGPT_CHECK(p >= 0.0f && p < 1.0f, "dropout p must be in [0, 1)");
  if (!training || p == 0.0f) return x;
  const float keep = 1.0f - p;
  Tensor mask(x.value().shape());
  Tensor out(x.value().shape());
  const float* src = x.value().data();
  float* m = mask.data();
  float* o = out.data();
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    m[i] = rng.bernoulli(keep) ? 1.0f / keep : 0.0f;
    o[i] = src[i] * m[i];
  }
  Var result = tape.intermediate(std::move(out), x.requires_grad());
  if (result.requires_grad()) {
    tape.record([xn = x.node(), rn = result.node(), mask = std::move(mask)] {
      Tensor& xg = xn->ensure_grad();
      const float* g = rn->grad.data();
      const float* m = mask.data();
      float* xgd = xg.data();
      for (std::int64_t i = 0; i < rn->grad.numel(); ++i) {
        xgd[i] += g[i] * m[i];
      }
    });
  }
  return result;
}

Var cross_entropy(Tape& tape, const Var& logits,
                  std::span<const std::int32_t> targets,
                  std::int32_t ignore_index) {
  MGPT_CHECK(logits.value().ndim() == 2, "cross_entropy expects [N, V] logits");
  const std::int64_t n = logits.value().dim(0);
  const std::int64_t v = logits.value().dim(1);
  MGPT_CHECK(static_cast<std::int64_t>(targets.size()) == n,
             "cross_entropy target count mismatch");
  Tensor probs({n, v});
  const float* z = logits.value().data();
  float* p = probs.data();
  double loss = 0.0;
  std::int64_t valid = 0;
  for (std::int64_t r = 0; r < n; ++r) {
    const std::int32_t t = targets[static_cast<std::size_t>(r)];
    std::copy(z + r * v, z + (r + 1) * v, p + r * v);
    kernels::softmax_row(p + r * v, v);
    if (t == ignore_index) continue;
    MGPT_CHECK(t >= 0 && t < v, "cross_entropy target out of range");
    loss -= std::log(std::max(1e-30, static_cast<double>(p[r * v + t])));
    ++valid;
  }
  MGPT_CHECK(valid > 0, "cross_entropy: no valid (non-ignored) targets");
  loss /= static_cast<double>(valid);
  Tensor out = Tensor::from_data({1}, {static_cast<float>(loss)});
  Var result = tape.intermediate(std::move(out), logits.requires_grad());
  if (result.requires_grad()) {
    std::vector<std::int32_t> tgt(targets.begin(), targets.end());
    tape.record([ln = logits.node(), rn = result.node(),
                 probs = std::move(probs), tgt = std::move(tgt), n, v, valid,
                 ignore_index] {
      Tensor& lg = ln->ensure_grad();
      const float gscale = rn->grad[0] / static_cast<float>(valid);
      const float* p = probs.data();
      float* lgd = lg.data();
      for (std::int64_t r = 0; r < n; ++r) {
        const std::int32_t t = tgt[static_cast<std::size_t>(r)];
        if (t == ignore_index) continue;
        for (std::int64_t c = 0; c < v; ++c) {
          const float delta = (c == t) ? 1.0f : 0.0f;
          lgd[r * v + c] += gscale * (p[r * v + c] - delta);
        }
      }
    });
  }
  return result;
}

Var mse_loss(Tape& tape, const Var& pred, std::span<const float> targets) {
  const std::int64_t n = pred.value().numel();
  MGPT_CHECK(static_cast<std::int64_t>(targets.size()) == n,
             "mse_loss target count mismatch");
  MGPT_CHECK(n > 0, "mse_loss of empty prediction");
  const float* p = pred.value().data();
  double loss = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(p[i]) -
                     targets[static_cast<std::size_t>(i)];
    loss += d * d;
  }
  loss /= static_cast<double>(n);
  Tensor out = Tensor::from_data({1}, {static_cast<float>(loss)});
  Var result = tape.intermediate(std::move(out), pred.requires_grad());
  if (result.requires_grad()) {
    std::vector<float> tgt(targets.begin(), targets.end());
    tape.record([pn = pred.node(), rn = result.node(), tgt = std::move(tgt),
                 n] {
      Tensor& pg = pn->ensure_grad();
      const float gscale = rn->grad[0] * 2.0f / static_cast<float>(n);
      const float* p = pn->value.data();
      float* pgd = pg.data();
      for (std::int64_t i = 0; i < n; ++i) {
        pgd[i] += gscale * (p[i] - tgt[static_cast<std::size_t>(i)]);
      }
    });
  }
  return result;
}

std::vector<double> token_log_probs(const Tensor& logits,
                                    std::span<const std::int32_t> targets) {
  MGPT_CHECK(logits.ndim() == 2, "token_log_probs expects [N, V] logits");
  const std::int64_t n = logits.dim(0);
  const std::int64_t v = logits.dim(1);
  MGPT_CHECK(static_cast<std::int64_t>(targets.size()) == n,
             "token_log_probs target count mismatch");
  std::vector<double> out(static_cast<std::size_t>(n));
  const float* z = logits.data();
  for (std::int64_t r = 0; r < n; ++r) {
    const std::int32_t t = targets[static_cast<std::size_t>(r)];
    MGPT_CHECK(t >= 0 && t < v, "token_log_probs target out of range");
    const double lse = kernels::logsumexp_row(z + r * v, v);
    out[static_cast<std::size_t>(r)] =
        static_cast<double>(z[r * v + t]) - lse;
  }
  return out;
}

}  // namespace matgpt::ops
