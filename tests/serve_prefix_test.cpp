// Unit tests for src/serve/prefix_cache over refcounted paged-KV blocks:
// radix insert/match/split/evict mechanics (now zero-copy block sharing),
// pin semantics, KvLease RAII, EngineConfig::validate,
// and the engine-level guarantee that a prefix-cache hit decodes
// byte-identically to a cold prefill (greedy and seeded-stochastic, plain
// and speculative).

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/error.h"
#include "nn/gpt.h"
#include "serve/engine.h"
#include "serve/kv_pool.h"
#include "serve/prefix_cache.h"
#include "serve/spec/proposer.h"
#include "serve/trace.h"

namespace matgpt {
namespace {

nn::GptConfig prefix_config(nn::ArchFamily arch = nn::ArchFamily::kLLaMA) {
  nn::GptConfig c;
  c.arch = arch;
  c.vocab_size = 50;
  c.hidden = 16;
  c.n_layers = 2;
  c.n_heads = 2;
  c.n_kv_heads = arch == nn::ArchFamily::kLLaMA ? 1 : 0;
  c.max_seq = 64;
  return c;
}

// A small-block paged pool for radix unit tests: 4-token blocks make block
// boundaries land inside the short test prompts, and extra headroom keeps
// the cache's own references from starving leases.
serve::KvPoolConfig radix_pool_config() {
  serve::KvPoolConfig pc;
  pc.slots = 4;
  pc.block_tokens = 4;
  pc.extra_blocks = 64;
  return pc;
}

// Deterministic synthetic KV rows: element j of token t in layer l is a
// unique value derived from token_salts[t], so any row mix-up shows as an
// exact mismatch — and two caches given equal salts for a shared span hold
// bit-identical rows for it (the invariant real prefills provide).
void fill_cache(nn::KvCache& cache, const nn::GptConfig& c,
                std::span<const float> token_salts) {
  const std::int64_t row = c.kv_heads() * c.head_dim();
  const auto n = static_cast<std::int64_t>(token_salts.size());
  for (std::int64_t l = 0; l < c.n_layers; ++l) {
    std::vector<float> k(static_cast<std::size_t>(n * row));
    std::vector<float> v(k.size());
    for (std::int64_t t = 0; t < n; ++t) {
      for (std::int64_t j = 0; j < row; ++j) {
        const auto i = static_cast<std::size_t>(t * row + j);
        k[i] = token_salts[static_cast<std::size_t>(t)] +
               1000.0f * static_cast<float>(l) + static_cast<float>(i);
        v[i] = -k[i];
      }
    }
    cache.append(l, k.data(), v.data(), n);
  }
  cache.commit(n);
}

std::vector<float> uniform_salts(std::int64_t n, float salt) {
  return std::vector<float>(static_cast<std::size_t>(n), salt);
}

// First `tokens` rows of `got` must equal `src`'s bit for bit, gathered out
// of both block tables.
void expect_prefix_rows_equal(const nn::KvCache& got, const nn::KvCache& src,
                              std::int64_t tokens, const nn::GptConfig& c) {
  ASSERT_EQ(got.length(), tokens);
  const std::int64_t row = c.kv_heads() * c.head_dim();
  std::vector<float> gk(static_cast<std::size_t>(tokens * row));
  std::vector<float> gv(gk.size()), sk(gk.size()), sv(gk.size());
  for (std::int64_t l = 0; l < c.n_layers; ++l) {
    got.copy_rows(l, 0, tokens, gk.data(), gv.data());
    src.copy_rows(l, 0, tokens, sk.data(), sv.data());
    for (std::size_t i = 0; i < gk.size(); ++i) {
      ASSERT_EQ(gk[i], sk[i]) << "layer " << l << " key elem " << i;
      ASSERT_EQ(gv[i], sv[i]) << "layer " << l << " value elem " << i;
    }
  }
}

TEST(PrefixCacheRadix, InsertThenLongestPrefixMatchAliasesBlocks) {
  const nn::GptConfig c = prefix_config();
  serve::KvCachePool pool(c, radix_pool_config());
  serve::PrefixCache pc(c, 1 << 20, &pool);
  const std::vector<std::int32_t> prompt{4, 8, 15, 16, 23, 42};

  serve::KvLease kv = pool.try_lease();
  ASSERT_TRUE(kv);
  fill_cache(*kv, c, uniform_salts(6, 1.0f));
  pc.insert(prompt, 6, *kv);
  EXPECT_EQ(pc.cached_tokens(), 6);
  EXPECT_EQ(pc.node_count(), 1u);
  // 6 tokens at 4 tokens/block = 2 block references, counted whole.
  EXPECT_EQ(pc.block_refs(), 2);
  EXPECT_EQ(pc.bytes_used(), 2u * pc.block_bytes());
  // Insert took references, not copies: the lease's blocks are now shared.
  EXPECT_EQ(pool.shared_blocks(), 2);

  // Full match (capped at the prompt length) aliases, never copies.
  auto m = pc.match(prompt, 6);
  EXPECT_EQ(m.tokens, 6);
  serve::KvLease dst = pool.try_lease(-1, m.tokens);
  ASSERT_TRUE(dst);
  const std::uint64_t cow_before = pool.cow_rows();
  pc.restore(m, *dst);
  EXPECT_EQ(pool.cow_rows(), cow_before);  // zero-copy restore
  expect_prefix_rows_equal(*dst, *kv, 6, c);
  pc.unpin(m);
  EXPECT_EQ(pc.stats().tokens_aliased, 6u);
  dst.release();

  // The engine-style cap: never match the whole prompt.
  auto capped = pc.match(prompt, 5);
  EXPECT_EQ(capped.tokens, 5);
  pc.unpin(capped);

  // A prompt with a different first token misses entirely.
  const std::vector<std::int32_t> other{9, 8, 15};
  auto miss = pc.match(other, 2);
  EXPECT_EQ(miss.tokens, 0);
  pc.unpin(miss);

  EXPECT_EQ(pc.stats().hits, 2u);
  EXPECT_EQ(pc.stats().misses, 1u);
  EXPECT_EQ(pc.stats().tokens_reused, 11u);
}

TEST(PrefixCacheRadix, PartialEdgeMatchRestoresOnlySharedRows) {
  const nn::GptConfig c = prefix_config();
  serve::KvCachePool pool(c, radix_pool_config());
  serve::PrefixCache pc(c, 1 << 20, &pool);
  const std::vector<std::int32_t> cached{1, 2, 3, 4, 5};
  serve::KvLease kv = pool.try_lease();
  ASSERT_TRUE(kv);
  fill_cache(*kv, c, uniform_salts(5, 2.0f));
  pc.insert(cached, 5, *kv);

  // Shares only the first three tokens, then diverges mid-edge.
  const std::vector<std::int32_t> query{1, 2, 3, 9, 9, 9};
  auto m = pc.match(query, 5);
  EXPECT_EQ(m.tokens, 3);
  serve::KvLease dst = pool.try_lease(-1, m.tokens);
  ASSERT_TRUE(dst);
  pc.restore(m, *dst);
  expect_prefix_rows_equal(*dst, *kv, 3, c);
  pc.unpin(m);
}

TEST(PrefixCacheRadix, DivergingInsertSplitsTheSharedEdge) {
  const nn::GptConfig c = prefix_config();
  serve::KvCachePool pool(c, radix_pool_config());
  serve::PrefixCache pc(c, 1 << 20, &pool);
  const std::vector<std::int32_t> a{1, 2, 3, 4};
  const std::vector<std::int32_t> b{1, 2, 8, 9};
  serve::KvLease kva = pool.try_lease();
  ASSERT_TRUE(kva);
  serve::KvLease kvb = pool.try_lease();
  ASSERT_TRUE(kvb);
  // Identical token prefixes have identical rows (the model is a pure
  // function of the prefix) — mirror that invariant in the synthetic data
  // so the shared "1 2" span's rows are valid for both prompts.
  fill_cache(*kva, c, {{3.0f, 3.0f, 3.0f, 3.0f}});
  fill_cache(*kvb, c, {{3.0f, 3.0f, 4.0f, 4.0f}});

  pc.insert(a, 4, *kva);
  pc.insert(b, 4, *kvb);
  // Shared "1 2" node plus the two 2-token tails. The 4-token block is cut
  // mid-block, so head and tail each hold a reference to their boundary
  // block: a's block (head + a-tail) and b's block (b-tail) = 3 refs.
  EXPECT_EQ(pc.node_count(), 3u);
  EXPECT_EQ(pc.cached_tokens(), 6);  // 2 shared + 2 + 2
  EXPECT_EQ(pc.stats().tokens_inserted, 6u);
  EXPECT_EQ(pc.block_refs(), 3);

  // Both prompts still fully matchable, rows bit-correct across the split
  // (deepest node wins the boundary block on restore).
  for (const auto* p : {&a, &b}) {
    auto m = pc.match(*p, 4);
    EXPECT_EQ(m.tokens, 4);
    serve::KvLease dst = pool.try_lease(-1, m.tokens);
    ASSERT_TRUE(dst);
    pc.restore(m, *dst);
    expect_prefix_rows_equal(*dst, p == &a ? *kva : *kvb, 4, c);
    pc.unpin(m);
  }
}

TEST(PrefixCacheRadix, EvictionIsLruAndSkipsPinnedNodes) {
  const nn::GptConfig c = prefix_config();
  serve::KvCachePool pool(c, radix_pool_config());
  // Room for exactly 2 block references (each prompt below takes 1).
  serve::PrefixCache pc(c, 2 * static_cast<std::size_t>(
                                   pool.arena()->layout().block_bytes_bf16()),
                        &pool);
  const std::vector<std::int32_t> a{10, 11, 12, 13};
  const std::vector<std::int32_t> b{20, 21, 22, 23};
  const std::vector<std::int32_t> d{30, 31, 32, 33};
  serve::KvLease kv = pool.try_lease();
  ASSERT_TRUE(kv);
  fill_cache(*kv, c, uniform_salts(4, 5.0f));

  pc.insert(a, 4, *kv);
  pc.insert(b, 4, *kv);
  EXPECT_EQ(pc.bytes_used(), pc.byte_budget());

  // Touch `a` so `b` becomes least recently used.
  {
    auto m = pc.match(a, 4);
    EXPECT_EQ(m.tokens, 4);
    pc.unpin(m);
  }
  pc.insert(d, 4, *kv);  // over budget: must evict exactly one leaf — b
  EXPECT_EQ(pc.stats().nodes_evicted, 1u);
  EXPECT_EQ(pc.stats().tokens_evicted, 4u);
  {
    auto m = pc.match(b, 4);
    EXPECT_EQ(m.tokens, 0) << "LRU prompt should have been evicted";
    pc.unpin(m);
  }
  for (const auto* p : {&a, &d}) {
    auto m = pc.match(*p, 4);
    EXPECT_EQ(m.tokens, 4) << "recently used prompt evicted";
    pc.unpin(m);
  }

  // A pinned leaf survives even a trim-to-zero; unpinning frees it.
  auto pin = pc.match(a, 4);
  ASSERT_EQ(pin.tokens, 4);
  pc.trim(0);
  {
    auto m = pc.match(a, 4);
    EXPECT_EQ(m.tokens, 4) << "eviction touched a pinned node";
    pc.unpin(m);
  }
  pc.unpin(pin);
  pc.trim(0);
  EXPECT_EQ(pc.bytes_used(), 0u);
  EXPECT_EQ(pc.cached_tokens(), 0);
  EXPECT_EQ(pc.node_count(), 0u);
  EXPECT_EQ(pc.block_refs(), 0);
  // Every cache reference is gone; only the lease still holds its blocks.
  kv.release();
  EXPECT_EQ(pool.used_blocks(), 0);
}

TEST(PrefixCacheRadix, EvictForBlocksFreesAdmissionHeadroom) {
  const nn::GptConfig c = prefix_config();
  serve::KvPoolConfig pcfg;
  pcfg.slots = 1;
  pcfg.block_tokens = 4;  // 64-token capacity = 16 blocks, no headroom
  serve::KvCachePool pool(c, pcfg);
  serve::PrefixCache pc(c, 1 << 20, &pool);

  const std::vector<std::int32_t> prompt{1, 2, 3, 4, 5, 6, 7, 8};
  {
    serve::KvLease kv = pool.try_lease();
    ASSERT_TRUE(kv);
    fill_cache(*kv, c, uniform_salts(8, 1.0f));
    pc.insert(prompt, 8, *kv);
  }
  // The cache's 2 block refs keep those blocks used after the lease died.
  EXPECT_EQ(pool.used_blocks(), 2);
  // A full-capacity lease needs all 16 blocks — only 14 are free.
  EXPECT_FALSE(pool.try_lease());
  EXPECT_TRUE(pc.evict_for_blocks(pool.blocks_needed(64, 0)));
  EXPECT_EQ(pc.node_count(), 0u);
  serve::KvLease full = pool.try_lease();
  EXPECT_TRUE(full);
}

TEST(PrefixCacheRadix, SplitOfPinnedEdgeIsRefused) {
  const nn::GptConfig c = prefix_config();
  serve::KvCachePool pool(c, radix_pool_config());
  serve::PrefixCache pc(c, 1 << 20, &pool);
  const std::vector<std::int32_t> a{1, 2, 3, 4};
  const std::vector<std::int32_t> b{1, 2, 8, 9};
  serve::KvLease kva = pool.try_lease();
  ASSERT_TRUE(kva);
  serve::KvLease kvb = pool.try_lease();
  ASSERT_TRUE(kvb);
  fill_cache(*kva, c, {{6.0f, 6.0f, 6.0f, 6.0f}});
  fill_cache(*kvb, c, {{6.0f, 6.0f, 7.0f, 7.0f}});
  pc.insert(a, 4, *kva);

  auto pin = pc.match(a, 4);  // pins the single leaf
  ASSERT_EQ(pin.tokens, 4);
  pc.insert(b, 4, *kvb);  // would split the pinned edge at offset 2: refused
  EXPECT_EQ(pc.node_count(), 1u);
  EXPECT_EQ(pc.cached_tokens(), 4);
  EXPECT_EQ(pc.stats().tokens_inserted, 4u);
  pc.unpin(pin);

  pc.insert(b, 4, *kvb);  // now the split goes through
  EXPECT_EQ(pc.node_count(), 3u);
  auto m = pc.match(b, 4);
  EXPECT_EQ(m.tokens, 4);
  pc.unpin(m);
}

TEST(PrefixCacheRadix, BudgetSmallerThanOneBlockThrows) {
  const nn::GptConfig c = prefix_config();
  serve::KvCachePool pool(c, radix_pool_config());
  EXPECT_THROW(serve::PrefixCache(c, 1, &pool), Error);
}

// --- KvLease RAII over the pool ---

TEST(KvLease, ReturnsSlotOnScopeExit) {
  const nn::GptConfig c = prefix_config();
  serve::KvCachePool pool(c, serve::KvPoolConfig{.slots = 1});
  const std::size_t idle = pool.available();
  {
    serve::KvLease lease = pool.try_lease();
    ASSERT_TRUE(lease);
    EXPECT_EQ(pool.available(), 0u);
    EXPECT_EQ(lease->length(), 0);
    // Pool drained: the non-blocking path reports exhaustion.
    serve::KvLease second = pool.try_lease();
    EXPECT_FALSE(second);
  }
  EXPECT_EQ(pool.available(), idle);
  EXPECT_TRUE(pool.all_free());
}

TEST(KvLease, MoveTransfersOwnershipWithoutDoubleRelease) {
  const nn::GptConfig c = prefix_config();
  serve::KvCachePool pool(c, serve::KvPoolConfig{.slots = 2});
  const std::size_t idle = pool.available();
  serve::KvLease a = pool.try_lease();
  ASSERT_TRUE(a);
  const std::size_t after_one = pool.available();
  EXPECT_LT(after_one, idle);
  serve::KvLease b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty
  ASSERT_TRUE(b);
  EXPECT_EQ(pool.available(), after_one);

  // Move-assign over a live lease releases the overwritten slot.
  serve::KvLease d = pool.try_lease();
  ASSERT_TRUE(d);
  EXPECT_LT(pool.available(), after_one);
  d = std::move(b);
  EXPECT_EQ(pool.available(), after_one);
  d.release();
  EXPECT_EQ(pool.available(), idle);
  EXPECT_TRUE(pool.all_free());
  EXPECT_FALSE(d);
  EXPECT_THROW((void)*d, Error);
}

TEST(KvLease, TruncateRollsBackThroughTheHandle) {
  const nn::GptConfig c = prefix_config();
  nn::GptModel model(c);
  serve::KvCachePool pool(c, serve::KvPoolConfig{.slots = 1});
  serve::KvLease lease = pool.try_lease();
  ASSERT_TRUE(lease);
  Tape tape;
  const std::vector<std::int32_t> prompt{1, 2, 3, 4, 5};
  model.forward_incremental(tape, prompt, *lease);
  EXPECT_EQ(lease->length(), 5);
  lease->truncate(2);
  EXPECT_EQ(lease->length(), 2);
}

// --- EngineConfig::validate ---

TEST(EngineConfigValidate, EachBadKnobThrowsFromTheConstructor) {
  const nn::GptConfig c = prefix_config();
  nn::GptModel model(c);
  {
    serve::EngineConfig ec;
    ec.max_batch = 0;
    EXPECT_THROW(serve::InferenceEngine(model, ec), Error);
  }
  {
    serve::EngineConfig ec;
    ec.kv_slots = 0;
    EXPECT_THROW(serve::InferenceEngine(model, ec), Error);
  }
  {
    serve::EngineConfig ec;
    ec.queue_capacity = 0;
    EXPECT_THROW(serve::InferenceEngine(model, ec), Error);
  }
  {
    serve::EngineConfig ec;
    ec.prefix_cache_bytes = 1;  // smaller than one KV block
    EXPECT_THROW(serve::InferenceEngine(model, ec), Error);
  }
  {
    serve::EngineConfig ec;
    ec.kv_block_tokens = 0;  // paged pool needs a block size
    EXPECT_THROW(serve::InferenceEngine(model, ec), Error);
  }
  {
    serve::EngineConfig ec;
    ec.paged_kv = false;  // paged KV is the only store
    EXPECT_THROW(serve::InferenceEngine(model, ec), Error);
  }
}

// --- Engine integration: hits must not change a single byte ---

std::vector<serve::Request> shared_prefix_requests(bool greedy) {
  const std::vector<std::int32_t> shared{5, 6, 7, 8, 9, 10, 11, 12};
  std::vector<serve::Request> reqs;
  for (std::uint64_t i = 0; i < 6; ++i) {
    serve::Request r;
    r.id = i;
    r.prompt = shared;
    r.prompt.push_back(static_cast<std::int32_t>(20 + i));
    r.prompt.push_back(static_cast<std::int32_t>(30 + (i * 3) % 7));
    r.max_new_tokens = 6;
    if (greedy) {
      r.sampling.temperature = 0.0f;
    } else {
      r.sampling.temperature = 0.8f;
      r.sampling.top_k = 10;
      r.sampling.top_p = 0.9f;
    }
    r.sampling.seed = 1000 + i;
    reqs.push_back(std::move(r));
  }
  return reqs;
}

TEST(ServePrefixEngine, HitTokensByteIdenticalToColdPrefill) {
  for (bool greedy : {true, false}) {
    const nn::GptConfig c = prefix_config();
    nn::GptModel model(c);
    serve::EngineConfig cold_ec;
    cold_ec.max_batch = 3;
    cold_ec.kv_slots = 3;
    serve::EngineConfig hot_ec = cold_ec;
    hot_ec.prefix_cache_bytes = 1 << 20;

    serve::InferenceEngine cold(model, cold_ec), hot(model, hot_ec);
    const auto cold_results = cold.run_trace(shared_prefix_requests(greedy));
    const auto hot_results = hot.run_trace(shared_prefix_requests(greedy));
    ASSERT_EQ(cold_results.size(), hot_results.size());
    for (std::size_t i = 0; i < hot_results.size(); ++i) {
      EXPECT_EQ(hot_results[i].tokens, cold_results[i].tokens)
          << (greedy ? "greedy" : "stochastic") << " request " << i;
      // And both equal the standalone batch-1 reference.
      const auto reqs = shared_prefix_requests(greedy);
      Rng rng(reqs[i].sampling.seed);
      EXPECT_EQ(hot_results[i].tokens,
                model.generate_cached(reqs[i].prompt, reqs[i].max_new_tokens,
                                      reqs[i].sampling, rng))
          << (greedy ? "greedy" : "stochastic") << " request " << i;
    }

    // The cache actually participated: first request misses, the rest hit
    // the 8-token shared span — and every hit was aliased, never copied.
    EXPECT_EQ(hot.stats().prefix_misses(), 1u);
    EXPECT_EQ(hot.stats().prefix_hits(), 5u);
    EXPECT_GE(hot.stats().prefix_tokens_reused(), 5u * 8u);
    EXPECT_GT(hot.stats().prefix_hit_rate(), 0.8);
    EXPECT_EQ(cold.stats().prefix_hits() + cold.stats().prefix_misses(), 0u);
    ASSERT_NE(hot.prefix_cache(), nullptr);
    EXPECT_EQ(hot.prefix_cache()->stats().hits, 5u);
    EXPECT_EQ(hot.prefix_cache()->stats().tokens_aliased,
              hot.prefix_cache()->stats().tokens_reused);
  }
}

TEST(ServePrefixEngine, TinyBudgetEvictsButStaysByteIdentical) {
  const nn::GptConfig c = prefix_config();
  nn::GptModel model(c);
  serve::EngineConfig ec;
  ec.max_batch = 2;
  ec.kv_slots = 2;
  ec.kv_block_tokens = 4;
  // Room for ~6 tokens (1.5 blocks): every insert fights the budget,
  // forcing eviction churn while requests are in flight.
  ec.prefix_cache_bytes = 6 * (2 * 2 * static_cast<std::size_t>(
                                           c.n_layers * c.kv_heads() *
                                           c.head_dim()));
  serve::TraceSpec spec;
  spec.n_requests = 12;
  spec.vocab_size = c.vocab_size;
  spec.prompt_len_min = 4;
  spec.prompt_len_max = 10;
  spec.max_new_min = 1;
  spec.max_new_max = 4;
  spec.shared_prefix_fraction = 0.7;
  spec.shared_prefix_len = 5;

  serve::InferenceEngine engine(model, ec);
  auto trace = serve::synth_trace(spec);
  const auto reference = trace;
  const auto results = engine.run_trace(std::move(trace));
  ASSERT_EQ(results.size(), reference.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    Rng rng(reference[i].sampling.seed);
    EXPECT_EQ(results[i].tokens,
              model.generate_cached(reference[i].prompt,
                                    reference[i].max_new_tokens,
                                    reference[i].sampling, rng))
        << "request " << i;
  }
  ASSERT_NE(engine.prefix_cache(), nullptr);
  EXPECT_GT(engine.prefix_cache()->stats().nodes_evicted, 0u);
  EXPECT_LE(engine.prefix_cache()->bytes_used(), ec.prefix_cache_bytes);
}

TEST(ServePrefixEngine, SharedPartialTailUnderFullReservationStaysInBudget) {
  // Caching a prompt whose last block is partial shares that block with
  // the lease that just prefilled it; the lease's next decode write then
  // copy-on-write forks it into one block beyond its ceil(total / bs)
  // reservation. With KV fully reserved by later admissions there is no
  // slack for that fork, so the cache must charge it up front.
  const nn::GptConfig c = prefix_config();
  nn::GptModel model(c);
  serve::EngineConfig ec;
  ec.max_batch = 8;
  ec.kv_slots = 2;
  ec.kv_capacity_tokens = 32;
  ec.kv_block_tokens = 16;
  ec.prefix_cache_bytes = 2 * 16 * (2 * 2 * static_cast<std::size_t>(
                                               c.n_layers * c.kv_heads() *
                                               c.head_dim()));
  std::vector<serve::Request> reqs;
  for (std::uint64_t i = 0; i < 5; ++i) {
    serve::Request r;
    r.id = i;
    for (std::int32_t t = 0; t < 20; ++t) r.prompt.push_back((t * 7 + 3) % 50);
    r.max_new_tokens = 12;
    r.sampling.temperature = i % 2 == 0 ? 0.0f : 0.9f;
    r.sampling.seed = 500 + i;
    reqs.push_back(std::move(r));
  }
  const auto reference = reqs;

  serve::InferenceEngine engine(model, ec);
  const auto results = engine.run_trace(std::move(reqs));
  ASSERT_EQ(results.size(), reference.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status, serve::RequestStatus::kOk);
    Rng rng(reference[i].sampling.seed);
    EXPECT_EQ(results[i].tokens,
              model.generate_cached(reference[i].prompt,
                                    reference[i].max_new_tokens,
                                    reference[i].sampling, rng))
        << "request " << i;
  }
  EXPECT_GE(engine.stats().prefix_hits(), 1u);
  EXPECT_TRUE(engine.kv_pool().all_free());
}

TEST(ServePrefixEngine, SpeculativeRequestsDecodeIdenticallyThroughTheCache) {
  const nn::GptConfig c = prefix_config();
  nn::GptModel model(c);
  serve::EngineConfig ec;
  ec.max_batch = 3;
  ec.kv_slots = 3;
  ec.prefix_cache_bytes = 1 << 20;
  ec.proposer = std::make_shared<serve::spec::LayerSkipDraft>(model, 1);

  auto reqs = shared_prefix_requests(/*greedy=*/true);
  for (auto& r : reqs) r.spec_k = 2;
  const auto reference = reqs;

  serve::InferenceEngine engine(model, ec);
  const auto results = engine.run_trace(std::move(reqs));
  ASSERT_EQ(results.size(), reference.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    Rng rng(reference[i].sampling.seed);
    EXPECT_EQ(results[i].tokens,
              model.generate_cached(reference[i].prompt,
                                    reference[i].max_new_tokens,
                                    reference[i].sampling, rng))
        << "speculative request " << i;
  }
  EXPECT_EQ(engine.stats().prefix_hits(), 5u);
  // Draft slots never touch the prefix cache — every draft prefill is cold.
  ASSERT_NE(engine.draft_pool(), nullptr);
  EXPECT_TRUE(engine.draft_pool()->all_free());
}

}  // namespace
}  // namespace matgpt
