// Fused attention ops: rotary position embedding and scaled dot-product
// attention in two variants.
//
//  * Materialized ("v0"): stores the full [B, H, T, T] probability tensor for
//    backward — quadratic activation memory in sequence length, the
//    pre-flash-attention behaviour the paper's Fig. 5 shows running OOM.
//  * Flash: streaming online-softmax forward that keeps only the per-row
//    logsumexp, recomputing probabilities in backward — linear activation
//    memory, the FlashAttention algorithm (Dao et al.) on CPU.
//
// Both produce bit-comparable outputs (up to float summation order), which a
// property test asserts.
//
// There is one flash and one materialized per-query-row forward kernel. They
// read K/V through a block table, so the ragged paged-KV decode op runs them
// directly and the full [B, T, H, D] forwards run them over a one-block view
// of contiguous K/V: attention over paged storage is bit-identical to
// attention() over the same rows.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.h"
#include "parallel/thread_pool.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

namespace matgpt::ops {

namespace {

// The query-key multiply-adds (history rows x query heads x head dim) from
// which decode_attention splits its (row, head) pairs over the thread pool.
// Set from measurement on a 4-core AVX2 host at the serving geometry (8
// query heads of 32): the split lost at 4 Ki (one 16-token row, ~5 -> ~8 us)
// and won from 16 Ki (one 64-token row ~17 -> ~14 us, four 16-token rows
// ~21 -> ~13 us), so 32 Ki keeps a 2x margin over the crossover.
constexpr std::int64_t kParallelAttentionFmas = 32 * 1024;

struct AttnShape {
  std::int64_t b, t, h, d;
};

AttnShape check_bthd(const Tensor& x, const char* what) {
  MGPT_CHECK(x.ndim() == 4, what << " must be [B, T, H, D]");
  return {x.dim(0), x.dim(1), x.dim(2), x.dim(3)};
}

/// Flat offset of (b, t, h, 0) in a [B, T, H, D] tensor.
inline std::size_t bthd_off(const AttnShape& s, std::int64_t b,
                            std::int64_t t, std::int64_t h) {
  return static_cast<std::size_t>(((b * s.t + t) * s.h + h) * s.d);
}

#ifdef MATGPT_X86_DISPATCH
#pragma GCC push_options
#pragma GCC target("avx2,fma")

__attribute__((noinline)) float dot_d_avx2(const float* a, const float* b,
                                           std::int64_t d) {
  __m256 acc = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= d; i += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc);
  }
  __m128 lo = _mm256_castps256_ps128(acc);
  lo = _mm_add_ps(lo, _mm256_extractf128_ps(acc, 1));
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  float out = _mm_cvtss_f32(lo);
  for (; i < d; ++i) out = std::fmaf(a[i], b[i], out);
  return out;
}

__attribute__((noinline)) void axpy_d_avx2(float* out, float w, const float* v,
                                           std::int64_t d) {
  const __m256 wv = _mm256_set1_ps(w);
  std::int64_t i = 0;
  for (; i + 8 <= d; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_fmadd_ps(wv, _mm256_loadu_ps(v + i),
                                              _mm256_loadu_ps(out + i)));
  }
  for (; i < d; ++i) out[i] = std::fmaf(w, v[i], out[i]);
}

#pragma GCC pop_options
#endif  // MATGPT_X86_DISPATCH

// Every attention path — full forwards, ragged decode, flash and
// materialized alike — funnels its dot products and weighted accumulations
// through these two helpers, so the dispatch decision (made once per
// process) can never make two paths disagree bitwise.
inline float dot_d(const float* a, const float* b, std::int64_t d) {
#ifdef MATGPT_X86_DISPATCH
  if (kernels::simd_active()) return dot_d_avx2(a, b, d);
#endif
  float acc = 0.0f;
  for (std::int64_t i = 0; i < d; ++i) acc += a[i] * b[i];
  return acc;
}

/// out[0..d) += w * v[0..d)
inline void axpy_d(float* out, float w, const float* v, std::int64_t d) {
#ifdef MATGPT_X86_DISPATCH
  if (kernels::simd_active()) {
    axpy_d_avx2(out, w, v, d);
    return;
  }
#endif
  for (std::int64_t i = 0; i < d; ++i) out[i] = std::fmaf(w, v[i], out[i]);
}

// One query row's causal KV history: `len` rows held in blocks of `bt`
// rows, row tk of K at k[tk / bt] + off + (tk % bt) * stride (V likewise).
// Contiguous K/V is the one-block view {&k0, &v0, len, len, 0, stride}.
struct KvRows {
  const float* const* k;
  const float* const* v;
  std::int64_t len, bt, off, stride;
};

/// Calls fn(k_row, v_row) for rows 0..len-1 in ascending order, walking the
/// block table one block at a time.
template <typename Fn>
inline void for_each_kv_row(const KvRows& kv, Fn&& fn) {
  for (std::int64_t blk = 0, t0 = 0; t0 < kv.len; ++blk, t0 += kv.bt) {
    const std::int64_t rows = std::min(kv.bt, kv.len - t0);
    const float* kr = kv.k[blk] + kv.off;
    const float* vr = kv.v[blk] + kv.off;
    for (std::int64_t r = 0; r < rows; ++r, kr += kv.stride, vr += kv.stride) {
      fn(kr, vr);
    }
  }
}

// The two per-query-row attention kernels. The full [B, T, H, D] forwards
// below and the ragged-batch decode_attention op run these exact routines,
// so batched serving decode is bit-identical to the batch-1 path and paged
// KV storage is bit-identical to contiguous K/V.

/// Flash variant: online softmax over the history. Writes the attended
/// output to `out` and returns the row's logsumexp. `acc` is caller scratch
/// of length d.
inline float flash_attend_row(const float* qv, const KvRows& kv,
                              std::int64_t d, float scl, float* out,
                              float* acc) {
  float m = -std::numeric_limits<float>::infinity();
  double l = 0.0;
  std::fill(acc, acc + d, 0.0f);
  for_each_kv_row(kv, [&](const float* kr, const float* vr) {
    const float sc = scl * dot_d(qv, kr, d);
    if (sc > m) {
      const float rescale = std::exp(m - sc);
      for (std::int64_t i = 0; i < d; ++i) acc[i] *= rescale;
      l *= rescale;
      m = sc;
    }
    const float w = std::exp(sc - m);
    l += w;
    axpy_d(acc, w, vr, d);
  });
  const auto inv = static_cast<float>(1.0 / l);
  for (std::int64_t i = 0; i < d; ++i) out[i] = acc[i] * inv;
  return m + static_cast<float>(std::log(l));
}

/// Materialized variant: scores into `prow` (softmaxed in place, length >=
/// len), attended output accumulated into `out` (caller provides zeros).
inline void materialized_attend_row(const float* qv, const KvRows& kv,
                                    std::int64_t d, float scl, float* out,
                                    float* prow) {
  std::int64_t tk = 0;
  for_each_kv_row(kv, [&](const float* kr, const float*) {
    prow[tk++] = scl * dot_d(qv, kr, d);
  });
  kernels::softmax_row(prow, kv.len);
  tk = 0;
  for_each_kv_row(kv, [&](const float*, const float* vr) {
    axpy_d(out, prow[tk++], vr, d);
  });
}

}  // namespace

Var rope(Tape& tape, const Var& x, float theta, float rotary_fraction) {
  const AttnShape s = check_bthd(x.value(), "rope input");
  MGPT_CHECK(rotary_fraction > 0.0f && rotary_fraction <= 1.0f,
             "rope rotary_fraction must be in (0, 1]");
  auto rot = static_cast<std::int64_t>(
      std::lround(static_cast<double>(s.d) * rotary_fraction));
  rot -= rot % 2;  // rotary dims must pair up
  MGPT_CHECK(rot >= 2, "rope needs at least one rotated pair");
  const std::int64_t half = rot / 2;

  // Precompute cos/sin per (t, pair).
  std::vector<float> cos_tbl(static_cast<std::size_t>(s.t * half));
  std::vector<float> sin_tbl(static_cast<std::size_t>(s.t * half));
  for (std::int64_t t = 0; t < s.t; ++t) {
    for (std::int64_t i = 0; i < half; ++i) {
      const double freq =
          std::pow(static_cast<double>(theta),
                   -2.0 * static_cast<double>(i) / static_cast<double>(rot));
      const double angle = static_cast<double>(t) * freq;
      cos_tbl[static_cast<std::size_t>(t * half + i)] =
          static_cast<float>(std::cos(angle));
      sin_tbl[static_cast<std::size_t>(t * half + i)] =
          static_cast<float>(std::sin(angle));
    }
  }

  Tensor out = x.value().clone();
  float* o = out.data();
  for (std::int64_t b = 0; b < s.b; ++b) {
    for (std::int64_t t = 0; t < s.t; ++t) {
      for (std::int64_t h = 0; h < s.h; ++h) {
        float* vec = o + bthd_off(s, b, t, h);
        for (std::int64_t i = 0; i < half; ++i) {
          const float c = cos_tbl[static_cast<std::size_t>(t * half + i)];
          const float sn = sin_tbl[static_cast<std::size_t>(t * half + i)];
          const float x0 = vec[i];
          const float x1 = vec[i + half];
          vec[i] = x0 * c - x1 * sn;
          vec[i + half] = x0 * sn + x1 * c;
        }
      }
    }
  }
  Var result = tape.intermediate(std::move(out), x.requires_grad());
  if (result.requires_grad()) {
    tape.record([xn = x.node(), rn = result.node(), s, half,
                 cos_tbl = std::move(cos_tbl), sin_tbl = std::move(sin_tbl)] {
      Tensor& xg = xn->ensure_grad();
      const float* g = rn->grad.data();
      float* xgd = xg.data();
      for (std::int64_t b = 0; b < s.b; ++b) {
        for (std::int64_t t = 0; t < s.t; ++t) {
          for (std::int64_t h = 0; h < s.h; ++h) {
            const std::size_t off = bthd_off(s, b, t, h);
            const float* gv = g + off;
            float* xv = xgd + off;
            for (std::int64_t i = 0; i < half; ++i) {
              const float c = cos_tbl[static_cast<std::size_t>(t * half + i)];
              const float sn = sin_tbl[static_cast<std::size_t>(t * half + i)];
              // Inverse rotation of the upstream gradient pair.
              xv[i] += gv[i] * c + gv[i + half] * sn;
              xv[i + half] += -gv[i] * sn + gv[i + half] * c;
            }
            // Pass-through for the non-rotated tail of each head.
            for (std::int64_t i = 2 * half; i < s.d; ++i) xv[i] += gv[i];
          }
        }
      }
    });
  }
  return result;
}

namespace {

/// Materialized-probabilities attention (quadratic memory).
Var attention_materialized(Tape& tape, const Var& q, const Var& k,
                           const Var& v, bool causal, const AttnShape& s,
                           const AttnShape& skv) {
  const std::int64_t group = s.h / skv.h;  // query heads per kv head
  const float scl = 1.0f / std::sqrt(static_cast<float>(s.d));
  Tensor out({s.b, s.t, s.h, s.d});
  Tensor probs({s.b, s.h, s.t, skv.t});
  const float* qp = q.value().data();
  const float* kp = k.value().data();
  const float* vp = v.value().data();
  float* op = out.data();
  float* pp = probs.data();
  const std::int64_t kv_stride = skv.h * skv.d;
  for (std::int64_t b = 0; b < s.b; ++b) {
    for (std::int64_t h = 0; h < s.h; ++h) {
      const std::int64_t hkv = h / group;
      const float* k0 = kp + bthd_off(skv, b, 0, hkv);
      const float* v0 = vp + bthd_off(skv, b, 0, hkv);
      for (std::int64_t tq = 0; tq < s.t; ++tq) {
        const std::int64_t limit = causal ? tq + 1 : skv.t;
        float* prow = pp + static_cast<std::size_t>(
                                 ((b * s.h + h) * s.t + tq) * skv.t);
        materialized_attend_row(qp + bthd_off(s, b, tq, h),
                                {&k0, &v0, limit, limit, 0, kv_stride}, s.d,
                                scl, op + bthd_off(s, b, tq, h), prow);
      }
    }
  }
  Var result = tape.intermediate(
      std::move(out),
      q.requires_grad() || k.requires_grad() || v.requires_grad());
  if (result.requires_grad()) {
    tape.record([qn = q.node(), kn = k.node(), vn = v.node(),
                 rn = result.node(), probs = std::move(probs), s, skv,
                 group, causal, scl] {
      Tensor& qg = qn->ensure_grad();
      Tensor& kg = kn->ensure_grad();
      Tensor& vg = vn->ensure_grad();
      const float* g = rn->grad.data();
      const float* qp = qn->value.data();
      const float* kp = kn->value.data();
      const float* vp = vn->value.data();
      const float* pp = probs.data();
      std::vector<float> dprow(static_cast<std::size_t>(skv.t));
      for (std::int64_t b = 0; b < s.b; ++b) {
        for (std::int64_t h = 0; h < s.h; ++h) {
          const std::int64_t hkv = h / group;
          for (std::int64_t tq = 0; tq < s.t; ++tq) {
            const std::int64_t limit = causal ? tq + 1 : skv.t;
            const float* prow = pp + static_cast<std::size_t>(
                                         ((b * s.h + h) * s.t + tq) * skv.t);
            const float* gv = g + bthd_off(s, b, tq, h);
            double row_dot = 0.0;
            for (std::int64_t tk = 0; tk < limit; ++tk) {
              const float dp =
                  dot_d(gv, vp + bthd_off(skv, b, tk, hkv), s.d);
              dprow[static_cast<std::size_t>(tk)] = dp;
              row_dot += static_cast<double>(prow[tk]) * dp;
            }
            float* qgv = qg.data() + bthd_off(s, b, tq, h);
            const float* qv = qp + bthd_off(s, b, tq, h);
            for (std::int64_t tk = 0; tk < limit; ++tk) {
              const float ds =
                  prow[tk] * (dprow[static_cast<std::size_t>(tk)] -
                              static_cast<float>(row_dot));
              const float* kv = kp + bthd_off(skv, b, tk, hkv);
              float* kgv = kg.data() + bthd_off(skv, b, tk, hkv);
              float* vgv = vg.data() + bthd_off(skv, b, tk, hkv);
              for (std::int64_t i = 0; i < s.d; ++i) {
                qgv[i] += scl * ds * kv[i];
                kgv[i] += scl * ds * qv[i];
                vgv[i] += prow[tk] * gv[i];
              }
            }
          }
        }
      }
    });
  }
  return result;
}

/// Flash attention: online softmax forward, recomputation backward.
Var attention_flash(Tape& tape, const Var& q, const Var& k, const Var& v,
                    bool causal, const AttnShape& s, const AttnShape& skv) {
  const std::int64_t group = s.h / skv.h;  // query heads per kv head
  const float scl = 1.0f / std::sqrt(static_cast<float>(s.d));
  Tensor out({s.b, s.t, s.h, s.d});
  Tensor lse({s.b, s.h, s.t});  // per-row logsumexp — the only saved state
  const float* qp = q.value().data();
  const float* kp = k.value().data();
  const float* vp = v.value().data();
  float* op = out.data();
  float* lp = lse.data();
  std::vector<float> acc(static_cast<std::size_t>(s.d));
  const std::int64_t kv_stride = skv.h * skv.d;
  for (std::int64_t b = 0; b < s.b; ++b) {
    for (std::int64_t h = 0; h < s.h; ++h) {
      const std::int64_t hkv = h / group;
      const float* k0 = kp + bthd_off(skv, b, 0, hkv);
      const float* v0 = vp + bthd_off(skv, b, 0, hkv);
      for (std::int64_t tq = 0; tq < s.t; ++tq) {
        const std::int64_t limit = causal ? tq + 1 : skv.t;
        lp[(b * s.h + h) * s.t + tq] = flash_attend_row(
            qp + bthd_off(s, b, tq, h), {&k0, &v0, limit, limit, 0, kv_stride},
            s.d, scl, op + bthd_off(s, b, tq, h), acc.data());
      }
    }
  }
  Var result = tape.intermediate(
      std::move(out),
      q.requires_grad() || k.requires_grad() || v.requires_grad());
  if (result.requires_grad()) {
    tape.record([qn = q.node(), kn = k.node(), vn = v.node(),
                 rn = result.node(), lse = std::move(lse), s, skv, group,
                 causal, scl] {
      Tensor& qg = qn->ensure_grad();
      Tensor& kg = kn->ensure_grad();
      Tensor& vg = vn->ensure_grad();
      const float* g = rn->grad.data();
      const float* o = rn->value.data();
      const float* qp = qn->value.data();
      const float* kp = kn->value.data();
      const float* vp = vn->value.data();
      const float* lp = lse.data();
      for (std::int64_t b = 0; b < s.b; ++b) {
        for (std::int64_t h = 0; h < s.h; ++h) {
          const std::int64_t hkv = h / group;
          for (std::int64_t tq = 0; tq < s.t; ++tq) {
            const std::int64_t limit = causal ? tq + 1 : skv.t;
            const float* qv = qp + bthd_off(s, b, tq, h);
            const float* gv = g + bthd_off(s, b, tq, h);
            const float* ov = o + bthd_off(s, b, tq, h);
            const float row_lse = lp[(b * s.h + h) * s.t + tq];
            // D = sum_k P_k dP_k collapses to dO·O (flash backward trick).
            const float row_dot = dot_d(gv, ov, s.d);
            float* qgv = qg.data() + bthd_off(s, b, tq, h);
            for (std::int64_t tk = 0; tk < limit; ++tk) {
              const float* kv = kp + bthd_off(skv, b, tk, hkv);
              const float* vv = vp + bthd_off(skv, b, tk, hkv);
              const float p =
                  std::exp(scl * dot_d(qv, kv, s.d) - row_lse);
              const float dp = dot_d(gv, vv, s.d);
              const float ds = p * (dp - row_dot);
              float* kgv = kg.data() + bthd_off(skv, b, tk, hkv);
              float* vgv = vg.data() + bthd_off(skv, b, tk, hkv);
              for (std::int64_t i = 0; i < s.d; ++i) {
                qgv[i] += scl * ds * kv[i];
                kgv[i] += scl * ds * qv[i];
                vgv[i] += p * gv[i];
              }
            }
          }
        }
      }
    });
  }
  return result;
}

}  // namespace

Var attention(Tape& tape, const Var& q, const Var& k, const Var& v,
              bool causal, bool flash) {
  const AttnShape s = check_bthd(q.value(), "attention q");
  const AttnShape sk = check_bthd(k.value(), "attention k");
  const AttnShape sv = check_bthd(v.value(), "attention v");
  MGPT_CHECK(s.b == sk.b && s.d == sk.d && sk.b == sv.b && sk.t == sv.t &&
                 sk.h == sv.h && sk.d == sv.d,
             "attention q/k/v shape mismatch");
  MGPT_CHECK(s.t == sk.t || !causal,
             "causal attention requires matching q/kv lengths; incremental "
             "decode uses causal=false with the full kv history");
  MGPT_CHECK(sk.h >= 1 && s.h % sk.h == 0,
             "GQA requires kv heads (" << sk.h
                                       << ") to divide query heads (" << s.h
                                       << ")");
  return flash ? attention_flash(tape, q, k, v, causal, s, sk)
               : attention_materialized(tape, q, k, v, causal, s, sk);
}

Var rope_rows(Tape& tape, const Var& x,
              std::span<const std::int64_t> positions, float theta,
              float rotary_fraction) {
  const Tensor& xv = x.value();
  MGPT_CHECK(xv.ndim() == 3, "rope_rows input must be [N, H, D]");
  const std::int64_t n = xv.dim(0);
  const std::int64_t heads = xv.dim(1);
  const std::int64_t d = xv.dim(2);
  MGPT_CHECK(static_cast<std::int64_t>(positions.size()) == n,
             "rope_rows needs one position per row");
  MGPT_CHECK(!(tape.recording() && x.requires_grad()),
             "rope_rows is inference-only");
  MGPT_CHECK(rotary_fraction > 0.0f && rotary_fraction <= 1.0f,
             "rope rotary_fraction must be in (0, 1]");
  auto rot = static_cast<std::int64_t>(
      std::lround(static_cast<double>(d) * rotary_fraction));
  rot -= rot % 2;
  MGPT_CHECK(rot >= 2, "rope needs at least one rotated pair");
  const std::int64_t half = rot / 2;

  // Same frequency/angle arithmetic as rope() so a ragged decode batch
  // rotates each row exactly as the batch-1 path would at that position.
  std::vector<double> freqs(static_cast<std::size_t>(half));
  for (std::int64_t i = 0; i < half; ++i) {
    freqs[static_cast<std::size_t>(i)] =
        std::pow(static_cast<double>(theta),
                 -2.0 * static_cast<double>(i) / static_cast<double>(rot));
  }
  Tensor out = xv.clone();
  float* o = out.data();
  std::vector<float> cos_row(static_cast<std::size_t>(half));
  std::vector<float> sin_row(static_cast<std::size_t>(half));
  for (std::int64_t row = 0; row < n; ++row) {
    MGPT_CHECK(positions[static_cast<std::size_t>(row)] >= 0,
               "rope_rows positions must be non-negative");
    const auto pos =
        static_cast<double>(positions[static_cast<std::size_t>(row)]);
    // One angle table per row, shared by all of its heads.
    for (std::int64_t i = 0; i < half; ++i) {
      const double angle = pos * freqs[static_cast<std::size_t>(i)];
      cos_row[static_cast<std::size_t>(i)] = static_cast<float>(std::cos(angle));
      sin_row[static_cast<std::size_t>(i)] = static_cast<float>(std::sin(angle));
    }
    for (std::int64_t h = 0; h < heads; ++h) {
      float* vec = o + (row * heads + h) * d;
      for (std::int64_t i = 0; i < half; ++i) {
        const float c = cos_row[static_cast<std::size_t>(i)];
        const float sn = sin_row[static_cast<std::size_t>(i)];
        const float x0 = vec[i];
        const float x1 = vec[i + half];
        vec[i] = x0 * c - x1 * sn;
        vec[i + half] = x0 * sn + x1 * c;
      }
    }
  }
  return tape.intermediate(std::move(out), false);
}

Var decode_attention(Tape& tape, const Var& q, std::span<const RaggedKv> kv,
                     std::int64_t n_kv_heads, bool flash) {
  const Tensor& qv = q.value();
  MGPT_CHECK(qv.ndim() == 3, "decode_attention q must be [N, Hq, D]");
  const std::int64_t n = qv.dim(0);
  const std::int64_t hq = qv.dim(1);
  const std::int64_t d = qv.dim(2);
  MGPT_CHECK(static_cast<std::int64_t>(kv.size()) == n,
             "decode_attention needs one KV history per row");
  MGPT_CHECK(n_kv_heads >= 1 && hq % n_kv_heads == 0,
             "GQA requires kv heads (" << n_kv_heads
                                       << ") to divide query heads (" << hq
                                       << ")");
  MGPT_CHECK(!(tape.recording() && q.requires_grad()),
             "decode_attention is inference-only");
  const std::int64_t group = hq / n_kv_heads;
  const float scl = 1.0f / std::sqrt(static_cast<float>(d));
  std::int64_t max_len = 0;
  std::int64_t total_len = 0;
  for (const RaggedKv& s : kv) {
    MGPT_CHECK(s.len > 0 && s.k_blocks != nullptr && s.v_blocks != nullptr &&
                   s.block_tokens > 0,
               "decode_attention needs a primed paged history per row");
    max_len = std::max(max_len, s.len);
    total_len += s.len;
  }
  Tensor out({n, hq * d});  // 2D, ready for the output projection
  float* op = out.data();
  const float* qp = qv.data();
  const std::int64_t stride = n_kv_heads * d;
  // Each (row, head) pair is independent and writes its own output slice,
  // so pairs split over the pool without changing a byte.
  const auto attend = [&](std::size_t lo, std::size_t hi) {
    std::vector<float> scratch(static_cast<std::size_t>(flash ? d : max_len));
    for (auto pair = static_cast<std::int64_t>(lo);
         pair < static_cast<std::int64_t>(hi); ++pair) {
      const std::int64_t row = pair / hq;
      const std::int64_t h = pair % hq;
      const RaggedKv& s = kv[static_cast<std::size_t>(row)];
      const KvRows rows{s.k_blocks, s.v_blocks, s.len, s.block_tokens,
                        h / group * d, stride};
      const float* qrow = qp + pair * d;
      float* orow = op + pair * d;
      if (flash) {
        flash_attend_row(qrow, rows, d, scl, orow, scratch.data());
      } else {
        materialized_attend_row(qrow, rows, d, scl, orow, scratch.data());
      }
    }
  };
  const auto pairs = static_cast<std::size_t>(n * hq);
  if (total_len * hq * d >= kParallelAttentionFmas) {
    ThreadPool::current().parallel_for(0, pairs, attend);
  } else {
    attend(0, pairs);
  }
  return tape.intermediate(std::move(out), false);
}

}  // namespace matgpt::ops
