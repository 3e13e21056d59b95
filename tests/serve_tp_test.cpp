// Unit tests for src/serve/tp: shard/unshard round-trips, byte-identity of
// TP=N forwards to TP=1 (prefill, batched decode, speculative verify, paged
// and reserved caches, GQA), deterministic row-allreduce layout, rank
// failure at construction, and engine-level trace identity under TP —
// including seeded-stochastic sampling, speculative decoding, and
// mid-preemption resume.

#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <vector>

#include "common/error.h"
#include "nn/gpt.h"
#include "nn/paged_kv.h"
#include "serve/engine.h"
#include "serve/spec/proposer.h"
#include "serve/tp/tp_model.h"
#include "serve/trace.h"

namespace matgpt {
namespace {

// TP-friendly geometry: 4 heads (and 4 kv heads under LLaMA) so head and
// inner dims split evenly across 2 and 4 ranks; vocab 50 is deliberately
// NOT divisible by either, exercising the uneven lm_head split.
nn::GptConfig tp_config(nn::ArchFamily arch, std::int64_t kv_heads = 4) {
  nn::GptConfig c;
  c.arch = arch;
  c.vocab_size = 50;
  c.hidden = 64;
  c.n_layers = 2;
  c.n_heads = 4;
  c.n_kv_heads = arch == nn::ArchFamily::kLLaMA ? kv_heads : 0;
  c.max_seq = 64;
  return c;
}

void expect_logits_bytes_equal(const Var& tp, const Var& ref,
                               const char* what) {
  ASSERT_EQ(tp.value().numel(), ref.value().numel()) << what;
  EXPECT_EQ(std::memcmp(tp.value().data(), ref.value().data(),
                        static_cast<std::size_t>(tp.value().numel()) *
                            sizeof(float)),
            0)
      << what << ": TP logits differ from TP=1 bytes";
}

void expect_cache_equal(const nn::KvCache& a, const nn::KvCache& b) {
  ASSERT_EQ(a.length, b.length);
  std::vector<float> rows_a, rows_b;
  a.seq()->swap_out(rows_a);
  b.seq()->swap_out(rows_b);
  ASSERT_EQ(rows_a.size(), rows_b.size());
  EXPECT_EQ(std::memcmp(rows_a.data(), rows_b.data(),
                        rows_a.size() * sizeof(float)),
            0)
      << "cached K/V rows differ";
}

// One sequence's ragged batch: a prefill (kLast) or a verify (kAll).
nn::RaggedBatch one_seq(std::span<const std::int32_t> tokens,
                        nn::KvCache& cache,
                        nn::LogitRows rows = nn::LogitRows::kLast) {
  nn::RaggedBatch batch;
  batch.logits = rows;
  batch.add(tokens, cache);
  return batch;
}

// ---------------------------------------------------------------------------
// Shard/unshard round-trip
// ---------------------------------------------------------------------------

TEST(TpSlices, ShardUnshardRoundTrip) {
  nn::GptModel model(tp_config(nn::ArchFamily::kNeoX));
  const auto params = model.parameters();
  const Tensor* w = nullptr;
  const Tensor* b = nullptr;
  for (const auto& p : params) {
    if (p.name == "blocks.0.attn.q.weight") w = &p.var.value();
    if (p.name == "blocks.0.attn.q.bias") b = &p.var.value();
  }
  ASSERT_NE(w, nullptr);
  ASSERT_NE(b, nullptr);

  // Column shards reassemble to the source weight, byte for byte.
  for (int n : {2, 4}) {
    const std::int64_t cols = w->dim(1);
    ASSERT_EQ(cols % n, 0);
    const std::int64_t w_loc = cols / n;
    Tensor rebuilt({w->dim(0), cols});
    for (int r = 0; r < n; ++r) {
      const Tensor shard =
          serve::tp::column_slice(*w, r * w_loc, (r + 1) * w_loc);
      ASSERT_EQ(shard.dim(0), w->dim(0));
      ASSERT_EQ(shard.dim(1), w_loc);
      for (std::int64_t i = 0; i < shard.dim(0); ++i) {
        std::memcpy(rebuilt.data() + i * cols + r * w_loc,
                    shard.data() + i * w_loc,
                    static_cast<std::size_t>(w_loc) * sizeof(float));
      }
    }
    EXPECT_EQ(std::memcmp(rebuilt.data(), w->data(),
                          static_cast<std::size_t>(w->numel()) *
                              sizeof(float)),
              0)
        << "column round-trip at n=" << n;
  }

  // Row shards reassemble likewise (the kRowAllreduce o/down layout).
  {
    const std::int64_t rows = w->dim(0);
    Tensor rebuilt({rows, w->dim(1)});
    const std::int64_t r_loc = rows / 2;
    for (int r = 0; r < 2; ++r) {
      const Tensor shard = serve::tp::row_slice(*w, r * r_loc, (r + 1) * r_loc);
      std::memcpy(rebuilt.data() + r * r_loc * w->dim(1), shard.data(),
                  static_cast<std::size_t>(shard.numel()) * sizeof(float));
    }
    EXPECT_EQ(std::memcmp(rebuilt.data(), w->data(),
                          static_cast<std::size_t>(w->numel()) *
                              sizeof(float)),
              0);
  }

  // 1-D bias shards.
  {
    Tensor rebuilt({b->dim(0)});
    const std::int64_t n_loc = b->dim(0) / 4;
    for (int r = 0; r < 4; ++r) {
      const Tensor shard =
          serve::tp::slice_1d(*b, r * n_loc, (r + 1) * n_loc);
      std::memcpy(rebuilt.data() + r * n_loc, shard.data(),
                  static_cast<std::size_t>(n_loc) * sizeof(float));
    }
    EXPECT_EQ(std::memcmp(rebuilt.data(), b->data(),
                          static_cast<std::size_t>(b->numel()) *
                              sizeof(float)),
              0);
  }
}

// ---------------------------------------------------------------------------
// Forward byte-identity: prefill, batched decode, speculative verify
// ---------------------------------------------------------------------------

TEST(TpForward, ColumnGatherByteIdenticalToTp1) {
  for (auto arch : {nn::ArchFamily::kNeoX, nn::ArchFamily::kLLaMA}) {
    const nn::GptConfig c = tp_config(arch);
    nn::GptModel model(c);
    for (int tp : {2, 4}) {
      serve::tp::TpConfig tc;
      tc.ranks = tp;
      serve::tp::TpModel sharded(model, tc);

      const std::vector<std::int32_t> prompt0{3, 14, 15, 9, 2, 6, 5};
      const std::vector<std::int32_t> prompt1{35, 8, 41};
      nn::KvCache ref0, ref1, tp0, tp1;
      for (nn::KvCache* cache : {&ref0, &ref1, &tp0, &tp1}) {
        cache->reserve(c);
      }

      // Prefill (multi-token sequence, last row only).
      {
        Tape t1, t2, t3, t4;
        Var r0 = model.forward(t1, one_seq(prompt0, ref0));
        Var s0 = sharded.forward(t2, one_seq(prompt0, tp0));
        expect_logits_bytes_equal(s0, r0, "prefill seq0");
        Var r1 = model.forward(t3, one_seq(prompt1, ref1));
        Var s1 = sharded.forward(t4, one_seq(prompt1, tp1));
        expect_logits_bytes_equal(s1, r1, "prefill seq1");
      }

      // Batched decode over both sequences for a few steps.
      std::vector<std::int32_t> fed{7, 21};
      for (int step = 0; step < 4; ++step) {
        std::vector<nn::KvCache*> ref_caches{&ref0, &ref1};
        std::vector<nn::KvCache*> tp_caches{&tp0, &tp1};
        nn::RaggedBatch ref_batch, tp_batch;
        for (std::size_t i = 0; i < fed.size(); ++i) {
          ref_batch.add(std::span(fed).subspan(i, 1), *ref_caches[i]);
          tp_batch.add(std::span(fed).subspan(i, 1), *tp_caches[i]);
        }
        Tape t1, t2;
        Var r = model.forward(t1, ref_batch);
        Var s = sharded.forward(t2, tp_batch);
        expect_logits_bytes_equal(s, r, "decode step");
        fed[0] = static_cast<std::int32_t>((fed[0] * 7 + step) % c.vocab_size);
        fed[1] = static_cast<std::int32_t>((fed[1] * 5 + step) % c.vocab_size);
      }

      // Speculative verify (multi-token, all rows) on one sequence.
      const std::vector<std::int32_t> draft{6, 5, 35, 8};
      {
        Tape t1, t2;
        Var r = model.forward(t1, one_seq(draft, ref0, nn::LogitRows::kAll));
        Var s = sharded.forward(t2, one_seq(draft, tp0, nn::LogitRows::kAll));
        expect_logits_bytes_equal(s, r, "verify");
      }

      // Mixed ragged batch: a 3-token verify and a 1-token decode share
      // one forward.
      {
        const std::vector<std::int32_t> verify{9, 1, 44};
        const std::int32_t step = 12;
        nn::RaggedBatch ref_batch, tp_batch;
        ref_batch.logits = tp_batch.logits = nn::LogitRows::kAll;
        ref_batch.add(verify, ref0);
        ref_batch.add(std::span(&step, 1), ref1);
        tp_batch.add(verify, tp0);
        tp_batch.add(std::span(&step, 1), tp1);
        Tape t1, t2;
        Var r = model.forward(t1, ref_batch);
        Var s = sharded.forward(t2, tp_batch);
        expect_logits_bytes_equal(s, r, "mixed verify + decode");
      }

      // The shared KV the ranks wrote head-by-head must be byte-identical
      // to the TP=1 append — the property prefix caching and preemption
      // swap rest on.
      expect_cache_equal(tp0, ref0);
      expect_cache_equal(tp1, ref1);

      const serve::tp::TpStats stats = sharded.stats();
      EXPECT_GT(stats.jobs, 0u);
      EXPECT_GT(stats.bytes_gathered, 0u);
      EXPECT_EQ(stats.bytes_reduced, 0u);  // column-gather never reduces
    }
  }
}

// Grouped-query attention: 4 query heads over 2 kv heads, TP=2 gives each
// rank 2 query heads and 1 kv head.
TEST(TpForward, GqaColumnGatherByteIdentical) {
  const nn::GptConfig c = tp_config(nn::ArchFamily::kLLaMA, /*kv_heads=*/2);
  nn::GptModel model(c);
  serve::tp::TpConfig tc;
  tc.ranks = 2;
  serve::tp::TpModel sharded(model, tc);

  const std::vector<std::int32_t> prompt{11, 4, 30, 2, 19};
  nn::KvCache ref, tpc;
  ref.reserve(c);
  tpc.reserve(c);
  {
    Tape t1, t2;
    Var r = model.forward_incremental(t1, prompt, ref);
    Var s = sharded.forward(t2, one_seq(prompt, tpc));
    expect_logits_bytes_equal(s, r, "gqa prefill");
  }
  for (std::int32_t tok : {9, 17, 42}) {
    Tape t1, t2;
    std::span<const std::int32_t> one(&tok, 1);
    Var r = model.forward_incremental(t1, one, ref);
    Var s = sharded.forward(t2, one_seq(one, tpc));
    expect_logits_bytes_equal(s, r, "gqa decode");
  }
  expect_cache_equal(tpc, ref);
}

// Paged KV: the ranks write disjoint head columns into block-table rows.
TEST(TpForward, PagedCacheByteIdentical) {
  const nn::GptConfig c = tp_config(nn::ArchFamily::kLLaMA);
  nn::GptModel model(c);
  serve::tp::TpConfig tc;
  tc.ranks = 2;
  serve::tp::TpModel sharded(model, tc);

  nn::PagedKvLayout layout;
  layout.block_tokens = 8;
  layout.n_layers = c.n_layers;
  layout.kv_heads = c.kv_heads();
  layout.head_dim = c.head_dim();
  nn::PagedKvArena arena(layout, 16);
  nn::PagedKvSeq ref_seq(&arena), tp_seq(&arena);
  nn::KvCache ref, tpc;
  ref.attach_paged(&ref_seq);
  tpc.attach_paged(&tp_seq);

  const std::vector<std::int32_t> prompt{3, 14, 15, 9, 2, 6, 5, 35, 8, 41};
  {
    Tape t1, t2;
    Var r = model.forward_incremental(t1, prompt, ref);
    Var s = sharded.forward(t2, one_seq(prompt, tpc));
    expect_logits_bytes_equal(s, r, "paged prefill");
  }
  for (std::int32_t tok : {7, 21, 33, 2}) {
    Tape t1, t2;
    std::span<const std::int32_t> one(&tok, 1);
    Var r = model.forward_incremental(t1, one, ref);
    Var s = sharded.forward(t2, one_seq(one, tpc));
    expect_logits_bytes_equal(s, r, "paged decode");
  }
  // Block contents must match row for row (the prefix-cache contract).
  ASSERT_EQ(ref_seq.length(0), tp_seq.length(0));
  const std::size_t row = static_cast<std::size_t>(layout.row());
  for (std::int64_t l = 0; l < c.n_layers; ++l) {
    const std::int64_t len = ref_seq.length(l);
    std::vector<float> rk(static_cast<std::size_t>(len) * row);
    std::vector<float> rv(rk.size()), tk(rk.size()), tv(rk.size());
    ref_seq.copy_rows(l, 0, len, rk.data(), rv.data());
    tp_seq.copy_rows(l, 0, len, tk.data(), tv.data());
    EXPECT_EQ(std::memcmp(rk.data(), tk.data(), rk.size() * sizeof(float)), 0)
        << "paged keys layer " << l;
    EXPECT_EQ(std::memcmp(rv.data(), tv.data(), rv.size() * sizeof(float)), 0)
        << "paged values layer " << l;
  }
}

// ---------------------------------------------------------------------------
// Row-allreduce layout: deterministic run-to-run, close to TP=1
// ---------------------------------------------------------------------------

TEST(TpForward, RowAllreduceDeterministicAndCloseToTp1) {
  const nn::GptConfig c = tp_config(nn::ArchFamily::kLLaMA);
  nn::GptModel model(c);
  serve::tp::TpConfig tc;
  tc.ranks = 2;
  tc.layout = serve::tp::TpLayout::kRowAllreduce;

  const std::vector<std::int32_t> prompt{3, 14, 15, 9, 2};
  std::vector<float> first;
  for (int run = 0; run < 3; ++run) {
    serve::tp::TpModel sharded(model, tc);
    nn::KvCache cache;
    cache.reserve(c);
    Tape tape;
    Var logits = sharded.forward(tape, one_seq(prompt, cache));
    if (run == 0) {
      first.assign(logits.value().data(),
                   logits.value().data() + logits.value().numel());
      // Accuracy vs TP=1: same values to tolerance (the reduction reorders
      // the k-dimension sum, so bytes are not guaranteed).
      nn::KvCache ref;
      ref.reserve(c);
      Tape rt;
      Var r = model.forward_incremental(rt, prompt, ref);
      for (std::int64_t v = 0; v < c.vocab_size; ++v) {
        EXPECT_NEAR(logits.value().data()[v], r.value().data()[v], 1e-3)
            << "vocab " << v;
      }
      const serve::tp::TpStats stats = sharded.stats();
      EXPECT_GT(stats.bytes_reduced, 0u);
    } else {
      // Bitwise run-to-run determinism: arrival order must not matter.
      ASSERT_EQ(first.size(),
                static_cast<std::size_t>(logits.value().numel()));
      EXPECT_EQ(std::memcmp(first.data(), logits.value().data(),
                            first.size() * sizeof(float)),
                0)
          << "run " << run << " differs from run 0";
    }
  }
}

// ---------------------------------------------------------------------------
// Construction failure paths
// ---------------------------------------------------------------------------

TEST(TpErrors, IndivisibleGeometryThrowsAtConstruction) {
  // 2 kv heads cannot split across 4 ranks.
  nn::GptModel gqa(tp_config(nn::ArchFamily::kLLaMA, /*kv_heads=*/2));
  {
    serve::tp::TpConfig tc;
    tc.ranks = 4;
    EXPECT_THROW(serve::tp::TpModel(gqa, tc), Error);
  }
  // 4 query heads cannot split across 3 ranks.
  nn::GptModel mha(tp_config(nn::ArchFamily::kNeoX));
  {
    serve::tp::TpConfig tc;
    tc.ranks = 3;
    EXPECT_THROW(serve::tp::TpModel(mha, tc), Error);
  }
  // Config validation.
  {
    serve::tp::TpConfig tc;
    tc.ranks = 0;
    EXPECT_THROW(tc.validate(), Error);
  }
  // The same failure surfaces through the engine constructor.
  {
    serve::EngineConfig ec;
    ec.tensor_parallel = 4;
    EXPECT_THROW(serve::InferenceEngine(gqa, ec), Error);
  }
}

// ---------------------------------------------------------------------------
// Engine-level identity under TP
// ---------------------------------------------------------------------------

serve::TraceSpec tp_trace_spec(const nn::GptConfig& c) {
  serve::TraceSpec spec;
  spec.n_requests = 8;
  spec.vocab_size = c.vocab_size;
  spec.prompt_len_min = 4;
  spec.prompt_len_max = 12;
  spec.max_new_min = 4;
  spec.max_new_max = 10;
  spec.greedy_fraction = 0.5;  // the rest sample stochastically, seeded
  return spec;
}

TEST(TpEngine, RunTraceTokensIdenticalToTp1) {
  const nn::GptConfig c = tp_config(nn::ArchFamily::kLLaMA);
  nn::GptModel model(c);

  serve::EngineConfig base;
  base.max_batch = 3;
  base.kv_slots = 3;
  serve::EngineConfig tp = base;
  tp.tensor_parallel = 2;

  serve::InferenceEngine ref(model, base), sharded(model, tp);
  EXPECT_EQ(sharded.stats().tp_degree(), 2);
  EXPECT_EQ(sharded.stats().tp_layout(), "column_gather");
  EXPECT_EQ(ref.stats().tp_degree(), 1);

  const auto spec = tp_trace_spec(c);
  const auto ra = ref.run_trace(serve::synth_trace(spec));
  const auto rb = sharded.run_trace(serve::synth_trace(spec));
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].tokens, rb[i].tokens) << "request " << i;
  }
  EXPECT_GT(sharded.stats().tp_jobs(), 0u);
}

TEST(TpEngine, BuiltOnAPackedModelTokensIdenticalToTp1) {
  // An earlier engine packed the model's weights in place; the TP = 2
  // engine shards them from their row-major reading, for both families.
  for (auto arch : {nn::ArchFamily::kNeoX, nn::ArchFamily::kLLaMA}) {
    const nn::GptConfig c = tp_config(arch);
    nn::GptModel model(c);
    serve::EngineConfig base;
    base.max_batch = 3;
    base.kv_slots = 3;
    auto first = std::make_unique<serve::InferenceEngine>(model, base);
    first.reset();
    bool packed = false;
    for (const auto& p : model.parameters()) {
      if (p.name == "blocks.0.attn.q.weight") packed = p.var.node()->packed;
    }
    ASSERT_TRUE(packed) << nn::arch_name(arch);

    serve::EngineConfig tp = base;
    tp.tensor_parallel = 2;
    serve::InferenceEngine sharded(model, tp);
    const auto spec = tp_trace_spec(c);
    const auto trace = serve::synth_trace(spec);
    const auto results = sharded.run_trace(serve::synth_trace(spec));
    ASSERT_EQ(results.size(), trace.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      Rng rng(trace[i].sampling.seed);
      EXPECT_EQ(results[i].tokens,
                model.generate_cached(trace[i].prompt,
                                      trace[i].max_new_tokens,
                                      trace[i].sampling, rng))
          << nn::arch_name(arch) << " request " << i;
    }
    EXPECT_GT(sharded.stats().tp_jobs(), 0u);
  }
}

TEST(TpForward, ShardsOfAPackedModelMatchTheUnpackedModelsBytes) {
  // Hidden 96 spans two packed panels, so every weight either layout
  // shards (column slices of q|k|v, gate|up, lm_head; row slices of o and
  // down) reads differently packed than row-major.
  for (auto layout : {serve::tp::TpLayout::kColumnGather,
                      serve::tp::TpLayout::kRowAllreduce}) {
    nn::GptConfig c = tp_config(nn::ArchFamily::kLLaMA);
    c.hidden = 96;
    nn::GptModel row_major(c), packed(c);  // same seed: same weights
    packed.prepare_decode_quant(kernels::WeightFormat::kF32);
    serve::tp::TpConfig tc;
    tc.ranks = 2;
    tc.layout = layout;
    const std::vector<std::int32_t> prompt{3, 14, 15, 9, 2};
    auto logits = [&](const nn::GptModel& model) {
      serve::tp::TpModel sharded(model, tc);
      nn::KvCache cache;
      cache.reserve(c);
      Tape tape;
      const Var out = sharded.forward(tape, one_seq(prompt, cache));
      return std::vector<float>(out.value().data(),
                                out.value().data() + out.value().numel());
    };
    const std::vector<float> a = logits(row_major);
    const std::vector<float> b = logits(packed);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
        << serve::tp::layout_name(layout);
  }
}

TEST(TpEngine, SpeculativeTokensIdenticalToTp1) {
  const nn::GptConfig c = tp_config(nn::ArchFamily::kLLaMA);
  nn::GptModel model(c);
  auto make_requests = [&] {
    std::vector<serve::Request> reqs;
    for (std::uint64_t id = 0; id < 4; ++id) {
      serve::Request req;
      req.id = id;
      for (std::int64_t t = 0; t < 6; ++t) {
        req.prompt.push_back(
            static_cast<std::int32_t>((id * 7 + t * 3) % c.vocab_size));
      }
      req.max_new_tokens = 10;
      req.spec_k = 2;
      if (id % 2 == 1) {  // seeded-stochastic speculative requests
        req.sampling.temperature = 0.8f;
        req.sampling.top_k = 20;
        req.sampling.top_p = 0.9f;
      } else {
        req.sampling.temperature = 0.0f;
      }
      req.sampling.seed = 0xabc0 + id;
      reqs.push_back(std::move(req));
    }
    return reqs;
  };

  serve::EngineConfig base;
  base.max_batch = 2;
  base.proposer = std::make_shared<serve::spec::LayerSkipDraft>(model, 1);
  serve::EngineConfig tp = base;
  tp.tensor_parallel = 2;

  serve::InferenceEngine ref(model, base), sharded(model, tp);
  const auto ra = ref.run_trace(make_requests());
  const auto rb = sharded.run_trace(make_requests());
  ASSERT_EQ(ra.size(), rb.size());
  bool speculated = false;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].tokens, rb[i].tokens) << "request " << i;
    speculated = speculated || rb[i].drafts_proposed > 0;
  }
  EXPECT_TRUE(speculated) << "trace never exercised the sharded verify path";
}

// A TP=2 engine under KV pressure must preempt, resume, and still emit the
// same tokens a roomy TP=1 engine does.
TEST(TpEngine, PreemptResumeTokensIdenticalToTp1) {
  const nn::GptConfig c = tp_config(nn::ArchFamily::kLLaMA, /*kv_heads=*/2);
  nn::GptModel model(c);

  serve::EngineConfig tight;
  tight.max_batch = 4;
  tight.kv_slots = 2;
  tight.kv_capacity_tokens = 48;
  tight.kv_block_tokens = 8;
  tight.scheduler = serve::sched::Policy::kPriority;
  tight.preempt_mode = serve::sched::PreemptMode::kRecompute;
  tight.tensor_parallel = 2;
  serve::EngineConfig roomy;
  roomy.max_batch = 4;
  roomy.kv_slots = 8;
  roomy.scheduler = serve::sched::Policy::kPriority;

  auto request = [&](std::uint64_t id, serve::Priority cls,
                     std::int64_t prompt_len, std::int64_t max_new) {
    serve::Request req;
    req.id = id;
    req.priority = cls;
    for (std::int64_t t = 0; t < prompt_len; ++t) {
      req.prompt.push_back(
          static_cast<std::int32_t>((id * 7 + t * 3) % c.vocab_size));
    }
    req.max_new_tokens = max_new;
    req.sampling.temperature = 0.0f;
    req.sampling.seed = 0xabc0 + id;
    return req;
  };

  auto run = [&](serve::InferenceEngine& engine) {
    std::vector<std::future<serve::RequestResult>> futures;
    futures.push_back(
        engine.submit(request(0, serve::Priority::kLow, 8, 32)));
    futures.push_back(
        engine.submit(request(1, serve::Priority::kLow, 8, 32)));
    engine.step();  // lows admitted, holding most of the arena
    futures.push_back(
        engine.submit(request(2, serve::Priority::kHigh, 8, 24)));
    futures.push_back(
        engine.submit(request(3, serve::Priority::kHigh, 8, 24)));
    engine.run_until_idle();
    std::map<std::uint64_t, serve::RequestResult> by_id;
    for (auto& f : futures) {
      serve::RequestResult r = f.get();
      by_id.emplace(r.id, std::move(r));
    }
    return by_id;
  };

  serve::InferenceEngine pressured(model, tight), reference(model, roomy);
  const auto got = run(pressured);
  const auto want = run(reference);
  EXPECT_GE(pressured.stats().preemptions(), 1u)
      << "pressure scenario never preempted; the test is vacuous";
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [id, result] : want) {
    const auto it = got.find(id);
    ASSERT_NE(it, got.end()) << "request " << id;
    EXPECT_EQ(it->second.status, serve::RequestStatus::kOk);
    EXPECT_EQ(it->second.tokens, result.tokens)
        << "request " << id << " diverged across preempt/resume under TP";
  }
}

}  // namespace
}  // namespace matgpt
