#include "nn/gpt.h"

#include <cmath>

#include "common/error.h"
#include "tensor/kernels.h"

namespace matgpt::nn {

const char* arch_name(ArchFamily arch) {
  return arch == ArchFamily::kNeoX ? "GPT-NeoX" : "LLaMA";
}

void GptConfig::validate() const {
  MGPT_CHECK(vocab_size > 0, "vocab_size must be positive");
  MGPT_CHECK(hidden > 0 && n_layers > 0 && n_heads > 0 && max_seq > 0,
             "model dimensions must be positive");
  // Constraint (1) of the paper's architecture search: N_h % N_a == 0.
  MGPT_CHECK(hidden % n_heads == 0,
             "hidden (" << hidden << ") must divide evenly into n_heads ("
                        << n_heads << ")");
  MGPT_CHECK(head_dim() % 2 == 0, "head dim must be even for RoPE");
  MGPT_CHECK(dropout >= 0.0f && dropout < 1.0f, "dropout must be in [0, 1)");
  MGPT_CHECK(n_kv_heads >= 0 &&
                 (n_kv_heads == 0 || n_heads % n_kv_heads == 0),
             "n_kv_heads (" << n_kv_heads << ") must divide n_heads ("
                            << n_heads << ")");
}

SelfAttention::SelfAttention(const GptConfig& config, bool causal, Rng& rng)
    : hidden_(config.hidden),
      n_heads_(config.n_heads),
      n_kv_heads_(config.kv_heads()),
      causal_(causal),
      flash_(config.flash_attention),
      rope_theta_(config.rope_theta),
      rotary_fraction_(config.rotary_fraction),
      q_proj_(config.hidden, config.hidden,
              config.arch == ArchFamily::kNeoX, rng),
      k_proj_(config.hidden, config.kv_heads() * config.head_dim(),
              config.arch == ArchFamily::kNeoX, rng),
      v_proj_(config.hidden, config.kv_heads() * config.head_dim(),
              config.arch == ArchFamily::kNeoX, rng),
      o_proj_(config.hidden, config.hidden,
              config.arch == ArchFamily::kNeoX, rng,
              1.0f / std::sqrt(2.0f * static_cast<float>(config.n_layers))) {
  register_submodule("q", q_proj_);
  register_submodule("k", k_proj_);
  register_submodule("v", v_proj_);
  register_submodule("o", o_proj_);
}

void RaggedBatch::add(std::span<const std::int32_t> seq_tokens,
                      KvCache& cache) {
  tokens.insert(tokens.end(), seq_tokens.begin(), seq_tokens.end());
  counts.push_back(static_cast<std::int64_t>(seq_tokens.size()));
  caches.push_back(&cache);
}

std::vector<std::int64_t> RaggedBatch::prepare(const GptConfig& config) const {
  const std::int64_t n_used = n_layers > 0 ? n_layers : config.n_layers;
  MGPT_CHECK(n_used >= 1 && n_used <= config.n_layers,
             "ragged forward n_layers " << n_used << " outside [1, "
                                        << config.n_layers << "]");
  MGPT_CHECK(!counts.empty() && caches.size() == counts.size(),
             "ragged forward needs one KV cache per sequence");
  std::vector<std::int64_t> positions;
  positions.reserve(tokens.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    KvCache& cache = *caches[i];
    MGPT_CHECK(counts[i] > 0, "ragged forward sequence " << i
                                                         << " feeds no tokens");
    MGPT_CHECK(cache.length() + counts[i] <= config.max_seq,
               "kv cache would exceed max_seq");
    if (cache.arena() == nullptr) {
      GptConfig used = config;
      used.n_layers = n_used;
      cache.reserve(used);
    }
    const PagedKvLayout& layout = cache.arena()->layout();
    MGPT_CHECK(layout.n_layers == n_used &&
                   layout.kv_heads == config.kv_heads() &&
                   layout.head_dim == config.head_dim(),
               "kv cache geometry (" << layout.n_layers << " layers, "
                                     << layout.kv_heads << "x"
                                     << layout.head_dim
                                     << ") does not fit the forward");
    for (std::int64_t t = 0; t < counts[i]; ++t) {
      positions.push_back(cache.length() + t);
    }
  }
  MGPT_CHECK(positions.size() == tokens.size(),
             "ragged forward has " << tokens.size() << " tokens for "
                                   << positions.size() << " counted rows");
  return positions;
}

std::vector<std::int64_t> RaggedBatch::last_rows() const {
  std::vector<std::int64_t> rows(counts.size());
  std::int64_t end = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    end += counts[i];
    rows[i] = end - 1;
  }
  return rows;
}

void RaggedBatch::commit() const {
  for (std::size_t i = 0; i < counts.size(); ++i) {
    caches[i]->commit(counts[i]);
  }
}

Var SelfAttention::forward(Tape& tape, const Var& x, const RaggedBatch& batch,
                           std::span<const std::int64_t> positions,
                           std::int64_t layer) const {
  const std::int64_t rows = x.value().dim(0);
  const std::int64_t head_dim = hidden_ / n_heads_;
  const Linear* qkv_proj[] = {&q_proj_, &k_proj_, &v_proj_};
  const std::vector<Var> qkv =
      Linear::forward_many(tape, x, qkv_proj, batch.path);
  auto heads = [&](const Var& proj, std::int64_t n_heads) {
    return ops::reshape(tape, proj, {rows, n_heads, head_dim});
  };
  Var q = ops::rope_rows(tape, heads(qkv[0], n_heads_), positions,
                         rope_theta_, rotary_fraction_);
  Var k = ops::rope_rows(tape, heads(qkv[1], n_kv_heads_), positions,
                         rope_theta_, rotary_fraction_);
  Var v = heads(qkv[2], n_kv_heads_);
  // Append every sequence's rows before taking block pointers: an append
  // may allocate or copy-on-write-fork the blocks the histories read.
  const std::int64_t row = n_kv_heads_ * head_dim;
  std::int64_t r = 0;
  for (std::size_t i = 0; i < batch.caches.size(); ++i) {
    batch.caches[i]->append(layer, k.value().data() + r * row,
                            v.value().data() + r * row, batch.counts[i]);
    r += batch.counts[i];
  }
  // Causal masking by construction: the row at position p sees the first
  // p + 1 rows of its own sequence's table (its own K/V is the last).
  std::vector<ops::RaggedKv> histories(static_cast<std::size_t>(rows));
  r = 0;
  for (std::size_t i = 0; i < batch.caches.size(); ++i) {
    const KvCache& s = *batch.caches[i];
    for (std::int64_t t = 0; t < batch.counts[i]; ++t, ++r) {
      ops::RaggedKv& h = histories[static_cast<std::size_t>(r)];
      h.len = positions[static_cast<std::size_t>(r)] + 1;
      h.k_blocks = s.k_blocks(layer);
      h.v_blocks = s.v_blocks(layer);
      h.block_tokens = s.block_tokens();
    }
  }
  Var attn = ops::decode_attention(tape, q, histories, n_kv_heads_, flash_);
  return o_proj_.forward(tape, attn, batch.path);
}

void SelfAttention::prepare_decode_quant(kernels::WeightFormat format) const {
  q_proj_.set_decode_weights(format);
  k_proj_.set_decode_weights(format);
  v_proj_.set_decode_weights(format);
  o_proj_.set_decode_weights(format);
}

Var SelfAttention::forward(Tape& tape, const Var& x, std::int64_t batch,
                           std::int64_t seq) const {
  const std::int64_t head_dim = hidden_ / n_heads_;
  auto heads = [&](const Linear& proj, std::int64_t n_heads, bool rotary) {
    Var h = proj.forward(tape, x);
    h = ops::reshape(tape, h, {batch, seq, n_heads, head_dim});
    if (rotary) h = ops::rope(tape, h, rope_theta_, rotary_fraction_);
    return h;
  };
  Var q = heads(q_proj_, n_heads_, /*rotary=*/true);
  Var k = heads(k_proj_, n_kv_heads_, /*rotary=*/true);
  Var v = heads(v_proj_, n_kv_heads_, /*rotary=*/false);
  Var attn = ops::attention(tape, q, k, v, causal_, flash_);
  return o_proj_.forward(tape,
                         ops::reshape(tape, attn, {batch * seq, hidden_}));
}

TransformerBlock::TransformerBlock(const GptConfig& config, Rng& rng)
    : arch_(config.arch),
      dropout_(config.dropout),
      attn_(config, /*causal=*/true, rng) {
  register_submodule("attn", attn_);
  const float out_scale =
      1.0f / std::sqrt(2.0f * static_cast<float>(config.n_layers));
  if (arch_ == ArchFamily::kNeoX) {
    ln1_ = std::make_unique<LayerNorm>(config.hidden);
    ln2_ = std::make_unique<LayerNorm>(config.hidden);
    gelu_mlp_ = std::make_unique<GeluMlp>(config.hidden, rng, out_scale);
    register_submodule("ln1", *ln1_);
    register_submodule("ln2", *ln2_);
    register_submodule("mlp", *gelu_mlp_);
  } else {
    rms1_ = std::make_unique<RMSNorm>(config.hidden);
    rms2_ = std::make_unique<RMSNorm>(config.hidden);
    swiglu_mlp_ = std::make_unique<SwiGluMlp>(config.hidden, rng, out_scale);
    register_submodule("rms1", *rms1_);
    register_submodule("rms2", *rms2_);
    register_submodule("mlp", *swiglu_mlp_);
  }
}

Var TransformerBlock::forward(Tape& tape, const Var& x, std::int64_t batch,
                              std::int64_t seq, bool training,
                              Rng& dropout_rng) const {
  auto maybe_dropout = [&](Var h) {
    return ops::dropout(tape, h, dropout_, dropout_rng, training);
  };
  if (arch_ == ArchFamily::kNeoX) {
    // Parallel residual: one residual add for attention and MLP together.
    Var attn_out =
        maybe_dropout(attn_.forward(tape, ln1_->forward(tape, x), batch, seq));
    Var mlp_out =
        maybe_dropout(gelu_mlp_->forward(tape, ln2_->forward(tape, x)));
    return ops::add(tape, x, ops::add(tape, attn_out, mlp_out));
  }
  // LLaMA: sequential pre-norm residuals.
  Var h = ops::add(tape, x,
                   maybe_dropout(attn_.forward(
                       tape, rms1_->forward(tape, x), batch, seq)));
  return ops::add(
      tape, h, maybe_dropout(swiglu_mlp_->forward(tape, rms2_->forward(tape, h))));
}

Var TransformerBlock::forward(Tape& tape, const Var& x,
                              const RaggedBatch& batch,
                              std::span<const std::int64_t> positions,
                              std::int64_t layer) const {
  if (arch_ == ArchFamily::kNeoX) {
    Var attn_out = attn_.forward(tape, ln1_->forward(tape, x), batch,
                                 positions, layer);
    Var mlp_out = gelu_mlp_->forward(tape, ln2_->forward(tape, x), batch.path);
    return ops::add(tape, x, ops::add(tape, attn_out, mlp_out));
  }
  Var h = ops::add(tape, x,
                   attn_.forward(tape, rms1_->forward(tape, x), batch,
                                 positions, layer));
  return ops::add(
      tape, h, swiglu_mlp_->forward(tape, rms2_->forward(tape, h), batch.path));
}

void TransformerBlock::prepare_decode_quant(
    kernels::WeightFormat format) const {
  attn_.prepare_decode_quant(format);
  if (gelu_mlp_) gelu_mlp_->set_decode_weights(format);
  if (swiglu_mlp_) swiglu_mlp_->set_decode_weights(format);
}

GptModel::GptModel(GptConfig config)
    : config_(config), dropout_rng_(config.seed ^ 0xd70906e5ULL) {
  config_.validate();
  Rng rng(config_.seed);
  tok_emb_ = register_param(
      "tok_emb", Tensor::randn({config_.vocab_size, config_.hidden}, rng,
                               0.0f, 0.02f));
  for (std::int64_t i = 0; i < config_.n_layers; ++i) {
    blocks_.push_back(std::make_unique<TransformerBlock>(config_, rng));
    register_submodule("blocks." + std::to_string(i), *blocks_.back());
  }
  if (config_.arch == ArchFamily::kNeoX) {
    final_ln_ = std::make_unique<LayerNorm>(config_.hidden);
    register_submodule("final_norm", *final_ln_);
  } else {
    final_rms_ = std::make_unique<RMSNorm>(config_.hidden);
    register_submodule("final_norm", *final_rms_);
  }
  lm_head_ = std::make_unique<Linear>(config_.hidden, config_.vocab_size,
                                      /*bias=*/false, rng);
  register_submodule("lm_head", *lm_head_);
}

namespace {
void check_token_count(std::span<const std::int32_t> tokens,
                       std::int64_t batch, std::int64_t seq) {
  MGPT_CHECK(static_cast<std::int64_t>(tokens.size()) == batch * seq,
             "token count " << tokens.size() << " != batch*seq "
                            << batch * seq);
}
}  // namespace

Var GptModel::forward(Tape& tape, std::span<const std::int32_t> tokens,
                      std::int64_t batch, std::int64_t seq,
                      bool training) const {
  check_token_count(tokens, batch, seq);
  MGPT_CHECK(seq <= config_.max_seq,
             "sequence length " << seq << " exceeds max_seq "
                                << config_.max_seq);
  Var h = ops::embedding(tape, tok_emb_, tokens);
  h = ops::dropout(tape, h, config_.dropout, dropout_rng_, training);
  for (const auto& block : blocks_) {
    h = block->forward(tape, h, batch, seq, training, dropout_rng_);
  }
  h = final_ln_ ? final_ln_->forward(tape, h) : final_rms_->forward(tape, h);
  return lm_head_->forward(tape, h);
}

Var GptModel::loss(Tape& tape, std::span<const std::int32_t> tokens,
                   std::span<const std::int32_t> targets, std::int64_t batch,
                   std::int64_t seq, bool training) const {
  MGPT_CHECK(targets.size() == tokens.size(),
             "loss: targets must align with tokens");
  Var logits = forward(tape, tokens, batch, seq, training);
  return ops::cross_entropy(tape, logits, targets, /*ignore_index=*/-1);
}

Var GptModel::hidden_states(Tape& tape,
                            std::span<const std::int32_t> tokens,
                            std::int64_t batch, std::int64_t seq) const {
  check_token_count(tokens, batch, seq);
  NoGradGuard guard(tape);
  Var h = ops::embedding(tape, tok_emb_, tokens);
  for (const auto& block : blocks_) {
    h = block->forward(tape, h, batch, seq, /*training=*/false, dropout_rng_);
  }
  return final_ln_ ? final_ln_->forward(tape, h) : final_rms_->forward(tape, h);
}

Var GptModel::forward(Tape& tape, const RaggedBatch& batch) const {
  const std::vector<std::int64_t> positions = batch.prepare(config_);
  const std::int64_t n_used =
      batch.n_layers > 0 ? batch.n_layers : config_.n_layers;
  NoGradGuard guard(tape);
  Var h = ops::embedding(tape, tok_emb_, batch.tokens);
  for (std::int64_t l = 0; l < n_used; ++l) {
    h = blocks_[static_cast<std::size_t>(l)]->forward(tape, h, batch,
                                                      positions, l);
  }
  batch.commit();
  if (batch.logits == LogitRows::kLast &&
      static_cast<std::int64_t>(batch.tokens.size()) > batch.size()) {
    h = ops::gather_rows(tape, h, batch.last_rows());
  }
  h = final_ln_ ? final_ln_->forward(tape, h) : final_rms_->forward(tape, h);
  return lm_head_->forward(tape, h, batch.path);
}

Var GptModel::forward_incremental(Tape& tape,
                                  std::span<const std::int32_t> tokens,
                                  KvCache& cache) const {
  // A single token against a primed cache is a decode step; everything else
  // (cold prefill, partial prefill) is prompt processing.
  const FwdPath path = (cache.length() > 0 && tokens.size() == 1)
                           ? FwdPath::kDecode
                           : FwdPath::kPrefill;
  return forward_incremental(tape, tokens, cache, path);
}

Var GptModel::forward_incremental(Tape& tape,
                                  std::span<const std::int32_t> tokens,
                                  KvCache& cache, FwdPath path) const {
  RaggedBatch batch;
  batch.path = path;
  batch.add(tokens, cache);
  return forward(tape, batch);
}

Var GptModel::decode_batch(Tape& tape, std::span<const std::int32_t> tokens,
                           std::span<KvCache* const> caches) const {
  MGPT_CHECK(caches.size() == tokens.size(),
             "decode_batch needs one KV cache per token");
  RaggedBatch batch;
  batch.path = FwdPath::kDecode;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    MGPT_CHECK(caches[i]->length() > 0,
               "decode_batch requires prefilled caches (prime each sequence "
               "with forward_incremental)");
    batch.add(tokens.subspan(i, 1), *caches[i]);
  }
  return forward(tape, batch);
}

void GptModel::prepare_decode_quant(kernels::WeightFormat format) const {
  for (const auto& block : blocks_) block->prepare_decode_quant(format);
  lm_head_->set_decode_weights(format);
  decode_quant_ = format;
}

std::vector<std::int32_t> GptModel::generate_cached(
    std::span<const std::int32_t> prompt, std::int64_t max_new_tokens,
    float temperature, Rng& rng) const {
  SamplingParams sampling;
  sampling.temperature = temperature;
  return generate_cached(prompt, max_new_tokens, sampling, rng);
}

std::vector<std::int32_t> GptModel::generate_cached(
    std::span<const std::int32_t> prompt, std::int64_t max_new_tokens,
    const SamplingParams& sampling, Rng& rng) const {
  MGPT_CHECK(!prompt.empty(), "generate requires a non-empty prompt");
  MGPT_CHECK(static_cast<std::int64_t>(prompt.size()) + max_new_tokens <=
                 config_.max_seq,
             "generate_cached cannot slide the window; shorten the request");
  std::vector<std::int32_t> tokens(prompt.begin(), prompt.end());
  // A private arena holding exactly this request's rows.
  KvCache cache;
  cache.reserve(config_,
                static_cast<std::int64_t>(prompt.size()) + max_new_tokens);
  const std::int64_t v = config_.vocab_size;
  auto sample_from = [&](const Var& logits, std::int64_t row) {
    return sample_token(
        std::span<const float>(logits.value().data() + row * v,
                               static_cast<std::size_t>(v)),
        sampling, rng);
  };
  Tape prefill;
  Var logits = forward_incremental(prefill, prompt, cache);
  std::int32_t next = sample_from(logits, 0);
  for (std::int64_t step = 0; step < max_new_tokens; ++step) {
    tokens.push_back(next);
    if (step + 1 == max_new_tokens) break;
    Tape tape;
    const std::int32_t last_token = tokens.back();
    Var step_logits = forward_incremental(
        tape, std::span<const std::int32_t>(&last_token, 1), cache);
    next = sample_from(step_logits, 0);
  }
  return tokens;
}

std::vector<std::int32_t> GptModel::generate(
    std::span<const std::int32_t> prompt, std::int64_t max_new_tokens,
    float temperature, Rng& rng) const {
  SamplingParams sampling;
  sampling.temperature = temperature;
  return generate(prompt, max_new_tokens, sampling, rng);
}

std::vector<std::int32_t> GptModel::generate(
    std::span<const std::int32_t> prompt, std::int64_t max_new_tokens,
    const SamplingParams& sampling, Rng& rng) const {
  MGPT_CHECK(!prompt.empty(), "generate requires a non-empty prompt");
  std::vector<std::int32_t> tokens(prompt.begin(), prompt.end());
  for (std::int64_t step = 0; step < max_new_tokens; ++step) {
    // Keep the context within max_seq by sliding the window.
    const std::int64_t start =
        std::max<std::int64_t>(0, static_cast<std::int64_t>(tokens.size()) -
                                      config_.max_seq);
    std::span<const std::int32_t> ctx(tokens.data() + start,
                                      tokens.size() - start);
    Tape tape;
    NoGradGuard guard(tape);
    Var logits = forward(tape, ctx, 1, static_cast<std::int64_t>(ctx.size()),
                         /*training=*/false);
    const std::int64_t v = config_.vocab_size;
    const float* row = logits.value().data() +
                       (static_cast<std::int64_t>(ctx.size()) - 1) * v;
    tokens.push_back(sample_token(
        std::span<const float>(row, static_cast<std::size_t>(v)), sampling,
        rng));
  }
  return tokens;
}

}  // namespace matgpt::nn
