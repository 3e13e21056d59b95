#pragma once
// GPT model with the two architecture variants the paper compares.
//
//   GPT-NeoX:  LayerNorm pre-norm, parallel residual
//              (x + Attn(LN1(x)) + MLP(LN2(x))), GELU MLP, biases.
//   LLaMA:     RMSNorm pre-norm, sequential residual, SwiGLU MLP, no biases.
//
// Both share the identical multi-head attention with rotary position
// embeddings — exactly the controlled contrast of the paper's Fig. 2.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/paged_kv.h"
#include "nn/sampling.h"

namespace matgpt::nn {

enum class ArchFamily { kNeoX, kLLaMA };

const char* arch_name(ArchFamily arch);

struct GptConfig {
  ArchFamily arch = ArchFamily::kNeoX;
  std::int64_t vocab_size = 512;
  std::int64_t hidden = 64;
  std::int64_t n_layers = 2;
  std::int64_t n_heads = 2;
  std::int64_t max_seq = 64;
  float dropout = 0.0f;
  bool flash_attention = true;
  float rope_theta = 10000.0f;
  /// Fraction of each head's dims rotated by RoPE (1.0 = full rotation).
  float rotary_fraction = 1.0f;
  /// Key/value heads for grouped-query attention (the LLaMA-2 inference
  /// tweak the paper notes); 0 means n_heads (standard MHA). Must divide
  /// n_heads; shrinks the K/V projections and the inference KV cache by
  /// n_heads / n_kv_heads.
  std::int64_t n_kv_heads = 0;
  std::uint64_t seed = 1234;

  std::int64_t head_dim() const { return hidden / n_heads; }
  std::int64_t kv_heads() const {
    return n_kv_heads == 0 ? n_heads : n_kv_heads;
  }
  void validate() const;
};

/// Which logits rows a ragged forward returns.
enum class LogitRows : std::uint8_t {
  /// One row per sequence, for its last fed token (prefill and decode).
  kLast,
  /// One row per fed token (speculative verify).
  kAll,
};

/// The single inference forward's input: sequence i feeds `counts[i]` new
/// tokens (stored sequence-major in `tokens`) after the caches[i]->length()
/// rows it already holds. A decode step is counts[i] = 1, a speculative
/// verify counts[i] = k + 1, a prefill chunk counts[i] = chunk — and any mix
/// of them shares one set of projection GEMMs. Every query row attends over
/// its own causal history in ascending key order with single-rounding FMAs,
/// so row t of sequence i is bit-identical however the batch is composed:
/// batched == batch-1, chunked == whole, verify row == decode step.
struct RaggedBatch {
  std::vector<std::int32_t> tokens;
  std::vector<std::int64_t> counts;
  std::vector<KvCache*> caches;
  /// Weight format selector (see FwdPath); never changes attention.
  FwdPath path = FwdPath::kPrefill;
  LogitRows logits = LogitRows::kLast;
  /// Run only the first n transformer layers before the final norm and
  /// lm_head (the self-speculative layer-skip draft); 0 = every layer.
  /// Caches must hold exactly the layers the forward runs.
  std::int64_t n_layers = 0;

  /// Append sequence `cache` feeding `seq_tokens`.
  void add(std::span<const std::int32_t> seq_tokens, KvCache& cache);
  std::int64_t size() const {
    return static_cast<std::int64_t>(counts.size());
  }

  // Bookkeeping of the ragged forward.
  /// Check the batch against `config` (binding unbound caches to private
  /// arenas of the forward's layer count) and return each fed row's
  /// absolute position.
  std::vector<std::int64_t> prepare(const GptConfig& config) const;
  /// Row index of each sequence's last fed token — the kLast logits rows.
  std::vector<std::int64_t> last_rows() const;
  /// Commit every cache's appended rows, once all layers appended.
  void commit() const;
};

/// Multi-head causal self-attention with RoPE. Identical for both
/// architectures (biases follow the family convention).
class SelfAttention : public Module {
 public:
  SelfAttention(const GptConfig& config, bool causal, Rng& rng);

  /// x: [B*T, C]; returns [B*T, C].
  Var forward(Tape& tape, const Var& x, std::int64_t batch,
              std::int64_t seq) const;

  /// Inference over a ragged batch: x is [rows, C] for the batch's fed
  /// tokens; row r sits at absolute position `positions[r]`. Appends every
  /// row's K/V to layer `layer` of its sequence's cache, then attends each
  /// query row over that sequence's history up to and including itself.
  Var forward(Tape& tape, const Var& x, const RaggedBatch& batch,
              std::span<const std::int64_t> positions,
              std::int64_t layer) const;

  /// Pack all four projections and install (kF32: drop) their quantized
  /// decode sidecars (see GptModel::prepare_decode_quant). Call before
  /// serving; not thread-safe vs. forwards. The ragged forward runs q|k|v
  /// as one packed job.
  void prepare_decode_quant(kernels::WeightFormat format) const;

 private:
  std::int64_t hidden_;
  std::int64_t n_heads_;
  std::int64_t n_kv_heads_;
  bool causal_;
  bool flash_;
  float rope_theta_;
  float rotary_fraction_;
  Linear q_proj_;
  Linear k_proj_;
  Linear v_proj_;
  Linear o_proj_;
};

/// One transformer layer in either family's topology.
class TransformerBlock : public Module {
 public:
  TransformerBlock(const GptConfig& config, Rng& rng);

  Var forward(Tape& tape, const Var& x, std::int64_t batch, std::int64_t seq,
              bool training, Rng& dropout_rng) const;

  /// Inference counterpart of forward over a ragged batch (no dropout;
  /// see SelfAttention's ragged forward).
  Var forward(Tape& tape, const Var& x, const RaggedBatch& batch,
              std::span<const std::int64_t> positions,
              std::int64_t layer) const;

  /// Quantized-decode sidecars for the block's attention + MLP linears.
  void prepare_decode_quant(kernels::WeightFormat format) const;

 private:
  ArchFamily arch_;
  float dropout_;
  SelfAttention attn_;
  // NeoX normalization (LayerNorm) — engaged when arch_ == kNeoX.
  std::unique_ptr<LayerNorm> ln1_;
  std::unique_ptr<LayerNorm> ln2_;
  std::unique_ptr<GeluMlp> gelu_mlp_;
  // LLaMA normalization (RMSNorm) — engaged when arch_ == kLLaMA.
  std::unique_ptr<RMSNorm> rms1_;
  std::unique_ptr<RMSNorm> rms2_;
  std::unique_ptr<SwiGluMlp> swiglu_mlp_;
};

class GptModel : public Module {
 public:
  explicit GptModel(GptConfig config);

  const GptConfig& config() const { return config_; }

  /// tokens: length batch*seq, row-major. Returns logits [batch*seq, V].
  Var forward(Tape& tape, std::span<const std::int32_t> tokens,
              std::int64_t batch, std::int64_t seq,
              bool training = false) const;

  /// Next-token cross-entropy: targets[i] is the token following tokens[i]
  /// (callers shift; -1 positions are ignored).
  Var loss(Tape& tape, std::span<const std::int32_t> tokens,
           std::span<const std::int32_t> targets, std::int64_t batch,
           std::int64_t seq, bool training = true) const;

  /// Final-norm hidden states [batch*seq, C] (for embedding extraction).
  Var hidden_states(Tape& tape, std::span<const std::int32_t> tokens,
                    std::int64_t batch, std::int64_t seq) const;

  /// Continuation of a prompt, re-running the full forward pass every step
  /// (the no-KV-cache baseline). Supports greedy/temperature/top-k/top-p
  /// through SamplingParams.
  std::vector<std::int32_t> generate(std::span<const std::int32_t> prompt,
                                     std::int64_t max_new_tokens,
                                     const SamplingParams& sampling,
                                     Rng& rng) const;
  /// Temperature-only convenience overload.
  std::vector<std::int32_t> generate(std::span<const std::int32_t> prompt,
                                     std::int64_t max_new_tokens,
                                     float temperature, Rng& rng) const;

  /// The inference forward: every sequence of `batch` advances by its
  /// count and its cache by as many rows (see RaggedBatch). Returns logits
  /// [batch.size(), V] (LogitRows::kLast) or [total tokens, V] (kAll).
  /// kLast skips the final norm and lm_head for every other row — at
  /// serving vocab sizes the projection is the bulk of a prompt pass, and
  /// both ops are row-wise, so surviving rows are unchanged.
  Var forward(Tape& tape, const RaggedBatch& batch) const;

  /// Batch-1 convenience: logits [1, V] for the last of `tokens` fed after
  /// cache.length() cached rows. The two-argument form infers kDecode for a
  /// single token on a primed cache and kPrefill otherwise; pass `path`
  /// when the call site knows better (a one-token prefill chunk must stay
  /// kPrefill so chunked == whole prefill holds under quantized decode).
  Var forward_incremental(Tape& tape, std::span<const std::int32_t> tokens,
                          KvCache& cache) const;
  Var forward_incremental(Tape& tape, std::span<const std::int32_t> tokens,
                          KvCache& cache, FwdPath path) const;

  /// Decode convenience: one token per primed cache, logits [N, V].
  Var decode_batch(Tape& tape, std::span<const std::int32_t> tokens,
                   std::span<KvCache* const> caches) const;

  /// KV-cache decoding over a private paged arena sized to the request:
  /// one prefill plus one single-token step per output — O(T) attention
  /// per step instead of the O(T^2) re-forward of generate(). Produces
  /// exactly generate()'s output for the same sampling stream.
  std::vector<std::int32_t> generate_cached(
      std::span<const std::int32_t> prompt, std::int64_t max_new_tokens,
      const SamplingParams& sampling, Rng& rng) const;
  std::vector<std::int32_t> generate_cached(
      std::span<const std::int32_t> prompt, std::int64_t max_new_tokens,
      float temperature, Rng& rng) const;

  /// Prepare the model for serving (every InferenceEngine constructor
  /// calls this): pack every attention and MLP projection and the lm_head
  /// in place into kernels::pack_panels' panels (once; see Linear), and
  /// install (kF32: drop) bf16/int8 decode sidecars in the same layout
  /// (token embedding stays fp32 and row-major). Decode, ragged-batch
  /// decode, and speculative verify then run the quantized kernels;
  /// prefill stays fp32. Every logit byte is unchanged by the packing.
  /// A packed model no longer takes gradients: train before serving, or
  /// load a checkpoint (nn::save writes row-major) into a fresh model.
  /// Call before serving traffic — not thread-safe against running
  /// forwards.
  void prepare_decode_quant(kernels::WeightFormat format) const;
  kernels::WeightFormat decode_quant_format() const { return decode_quant_; }

 private:
  GptConfig config_;
  Var tok_emb_;
  std::vector<std::unique_ptr<TransformerBlock>> blocks_;
  std::unique_ptr<LayerNorm> final_ln_;
  std::unique_ptr<RMSNorm> final_rms_;
  std::unique_ptr<Linear> lm_head_;
  mutable Rng dropout_rng_;
  mutable kernels::WeightFormat decode_quant_ = kernels::WeightFormat::kF32;
};

}  // namespace matgpt::nn
