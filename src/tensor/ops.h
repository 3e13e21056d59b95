#pragma once
// Differentiable ops over Var. Each op computes its output eagerly and, when
// the tape is recording, appends a backward closure.
//
// Shape conventions: activations are [N, C] (rows, features) or
// [B, T, H, D] for attention (batch, time, heads, head-dim). Ops that work
// "over the last dim" accept any rank and flatten leading dims internally.

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "tensor/autograd.h"
#include "tensor/kernels.h"

namespace matgpt::ops {

// ---- arithmetic -----------------------------------------------------------

/// Elementwise a + b (identical shapes).
Var add(Tape& tape, const Var& a, const Var& b);
/// x + bias where bias has the length of x's last dimension.
Var add_bias(Tape& tape, const Var& x, const Var& bias);
/// Elementwise a * b (identical shapes).
Var mul(Tape& tape, const Var& a, const Var& b);
/// a * s.
Var scale(Tape& tape, const Var& a, float s);
/// Row-major [m,k] x [k,n] fp32 matrix product (kernels::gemm_nn). `b`
/// must not be packed (VarNode::packed): nn::Linear runs its packed
/// weights, and their bf16/int8 decode sidecars, itself.
Var matmul(Tape& tape, const Var& a, const Var& b);
/// Process-lifetime count of matmul forwards that ran with `format`:
/// ops::matmul's, plus those count_matmuls records for products run
/// outside it (nn::Linear's packed jobs).
std::uint64_t matmul_calls(kernels::WeightFormat format);
void count_matmuls(kernels::WeightFormat format, std::uint64_t calls);
/// Zero-copy view with a new shape (one -1 dimension may be inferred).
Var reshape(Tape& tape, const Var& x, std::vector<std::int64_t> shape);

// ---- lookup / indexing ----------------------------------------------------

/// Row lookup: weight [V, C], ids (any length N) -> [N, C].
Var embedding(Tape& tape, const Var& weight,
              std::span<const std::int32_t> ids);
/// x [N, C], idx [E] -> [E, C]; rows may repeat.
Var gather_rows(Tape& tape, const Var& x, std::vector<std::int64_t> idx);
/// messages [E, C] scattered by dst [E] into [n_rows, C] with summation.
Var scatter_add_rows(Tape& tape, const Var& messages,
                     std::vector<std::int64_t> dst, std::int64_t n_rows);
/// Contiguous row slice [begin, end) of a 2D tensor.
Var slice_rows(Tape& tape, const Var& x, std::int64_t begin, std::int64_t end);
/// Column concatenation of two 2D tensors with equal row counts.
Var concat_cols(Tape& tape, const Var& a, const Var& b);
/// Column-mean over rows: [N, C] -> [1, C].
Var mean_rows(Tape& tape, const Var& x);
/// Sum of every element -> scalar [1].
Var sum_all(Tape& tape, const Var& x);

// ---- normalization / activations ------------------------------------------

/// LayerNorm over the last dimension (GPT-NeoX style, with bias).
Var layer_norm(Tape& tape, const Var& x, const Var& gamma, const Var& beta,
               float eps = 1e-5f);
/// RMSNorm over the last dimension (LLaMA style, no mean subtraction).
Var rms_norm(Tape& tape, const Var& x, const Var& gamma, float eps = 1e-6f);
/// GELU, tanh approximation (as used by GPT-NeoX MLPs).
Var gelu(Tape& tape, const Var& x);
/// SiLU / swish (as used inside LLaMA's SwiGLU MLP).
Var silu(Tape& tape, const Var& x);
Var relu(Tape& tape, const Var& x);
Var sigmoid(Tape& tape, const Var& x);
Var tanh_act(Tape& tape, const Var& x);
/// Inverted dropout; identity when !training or p == 0.
Var dropout(Tape& tape, const Var& x, float p, Rng& rng, bool training);

// ---- attention -------------------------------------------------------------

/// Rotary positional embedding applied over [B, T, H, D] (pairs rotated
/// within each head, GPT-NeoX/LLaMA convention). `rotary_fraction` rotates
/// only the first fraction of each head dimension (NeoX supports partial
/// rotary; 1.0 = full rotation). Token t sits at position t.
Var rope(Tape& tape, const Var& x, float theta = 10000.0f,
         float rotary_fraction = 1.0f);

/// Scaled dot-product attention. q is [B, T, Hq, D]; k and v are
/// [B, T, Hkv, D] where Hkv divides Hq — grouped-query attention (GQA, the
/// LLaMA-2 inference optimization) shares each key/value head across
/// Hq/Hkv query heads; Hkv == Hq is standard multi-head attention.
///
/// `flash == false` materializes the [B, Hq, T, T] probability tensor and
/// keeps it for backward (the pre-flash-attention memory behaviour).
/// `flash == true` runs a streaming-softmax forward that stores only the
/// per-row logsumexp and recomputes probabilities in backward — the
/// FlashAttention algorithm's memory profile on CPU.
Var attention(Tape& tape, const Var& q, const Var& k, const Var& v,
              bool causal = true, bool flash = true);

/// RoPE over [N, H, D] where row i is rotated at absolute position
/// positions[i] — the ragged-batch inference counterpart of rope(). Row i
/// is bit-identical to rope()'s row at the same position.
/// Inference-only (no backward is recorded).
Var rope_rows(Tape& tape, const Var& x,
              std::span<const std::int64_t> positions, float theta = 10000.0f,
              float rotary_fraction = 1.0f);

/// One query row's KV history in a block-paged cache: `len` time steps,
/// row tk living at k_blocks[tk / block_tokens] + (tk % block_tokens) *
/// n_kv_heads * head_dim, same for v_blocks — a gather over possibly
/// non-contiguous blocks. attention() runs the same row kernels over a
/// one-block view of contiguous K/V, so outputs are bit-identical.
struct RaggedKv {
  std::int64_t len = 0;
  const float* const* k_blocks = nullptr;
  const float* const* v_blocks = nullptr;
  std::int64_t block_tokens = 0;
};

/// Ragged-batch attention for inference: q is [N, Hq, D], one query row per
/// fed token, and kv[i] is row i's causal history (its own K/V last).
/// Returns [N, Hq*D]. Runs the same per-row flash/materialized kernels as
/// attention(), so every row is bit-identical to a batch-1 call.
/// Inference-only (no backward is recorded).
Var decode_attention(Tape& tape, const Var& q, std::span<const RaggedKv> kv,
                     std::int64_t n_kv_heads, bool flash = true);

// ---- losses ----------------------------------------------------------------

/// Mean token cross-entropy. logits [N, V]; targets length N; positions
/// equal to ignore_index contribute nothing.
Var cross_entropy(Tape& tape, const Var& logits,
                  std::span<const std::int32_t> targets,
                  std::int32_t ignore_index = -1);

/// Mean squared error between prediction [N, 1] (or [N]) and targets.
Var mse_loss(Tape& tape, const Var& pred, std::span<const float> targets);

// ---- inference-only helpers -------------------------------------------------

/// log p(target_i | row_i) for each row of logits; no autograd involvement.
std::vector<double> token_log_probs(const Tensor& logits,
                                    std::span<const std::int32_t> targets);

}  // namespace matgpt::ops
