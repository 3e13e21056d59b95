// Unit tests for src/serve: pooled KV allocator, continuous-batching engine
// (token-identical to batch-1 generate_cached), admission backpressure, and
// serving metrics.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.h"
#include "nn/gpt.h"
#include "nn/serialize.h"
#include "serve/engine.h"
#include "serve/kv_pool.h"
#include "serve/metrics.h"
#include "serve/spec/proposer.h"
#include "serve/trace.h"
#include "serve/workloads/grammar.h"

namespace matgpt {
namespace {

nn::GptConfig serve_config(nn::ArchFamily arch, std::int64_t n_kv_heads) {
  nn::GptConfig c;
  c.arch = arch;
  c.vocab_size = 50;
  c.hidden = 16;
  c.n_layers = 2;
  c.n_heads = 2;
  c.n_kv_heads = n_kv_heads;
  c.max_seq = 64;
  return c;
}

serve::TraceSpec tiny_trace_spec() {
  serve::TraceSpec spec;
  spec.n_requests = 10;
  spec.vocab_size = 50;
  spec.prompt_len_min = 2;
  spec.prompt_len_max = 6;
  spec.max_new_min = 1;
  spec.max_new_max = 8;
  return spec;
}

TEST(ServeDecodeBatch, MatchesSequentialForwardBitExact) {
  for (auto arch : {nn::ArchFamily::kNeoX, nn::ArchFamily::kLLaMA}) {
    const std::int64_t gqa = arch == nn::ArchFamily::kLLaMA ? 1 : 0;
    const nn::GptConfig c = serve_config(arch, gqa);
    nn::GptModel model(c);
    const std::vector<std::vector<std::int32_t>> prompts{
        {1, 2, 3}, {7}, {9, 8, 7, 6, 5}};

    // Two identical cache sets: one consumed by the ragged batch, one by the
    // batch-1 reference path.
    std::vector<nn::KvCache> batched(prompts.size()), reference(prompts.size());
    std::vector<std::int32_t> feed;
    for (std::size_t i = 0; i < prompts.size(); ++i) {
      batched[i].reserve(c);
      reference[i].reserve(c);
      Tape t1, t2;
      model.forward_incremental(t1, prompts[i], batched[i]);
      model.forward_incremental(t2, prompts[i], reference[i]);
      feed.push_back(static_cast<std::int32_t>((prompts[i].back() + 1) %
                                               c.vocab_size));
    }

    std::vector<nn::KvCache*> cache_ptrs;
    for (auto& cache : batched) cache_ptrs.push_back(&cache);
    Tape tape;
    Var logits = model.decode_batch(tape, feed, cache_ptrs);
    ASSERT_EQ(logits.value().dim(0), static_cast<std::int64_t>(prompts.size()));
    ASSERT_EQ(logits.value().dim(1), c.vocab_size);

    for (std::size_t i = 0; i < prompts.size(); ++i) {
      Tape t;
      std::span<const std::int32_t> one(&feed[i], 1);
      Var ref = model.forward_incremental(t, one, reference[i]);
      for (std::int64_t v = 0; v < c.vocab_size; ++v) {
        EXPECT_EQ(logits.value().at(static_cast<std::int64_t>(i), v),
                  ref.value().at(0, v))
            << "arch " << static_cast<int>(arch) << " seq " << i << " vocab "
            << v;
      }
      EXPECT_EQ(batched[i].length(), reference[i].length());
    }
  }
}

// The one inference forward: a prefill chunk, a decode step, and a
// multi-token verify sharing a ragged batch must give each sequence exactly
// the logits rows and cache rows it gets when forwarded alone.
TEST(RaggedForward, MixedBatchMatchesPerSequenceForwardsBitExact) {
  for (auto rows : {nn::LogitRows::kLast, nn::LogitRows::kAll}) {
    const nn::GptConfig c = serve_config(nn::ArchFamily::kLLaMA, 1);
    nn::GptModel model(c);
    const std::vector<std::vector<std::int32_t>> primes{{}, {4, 9}, {8}};
    const std::vector<std::vector<std::int32_t>> feeds{
        {1, 2, 3, 4, 5}, {6}, {7, 11, 12}};

    std::vector<nn::KvCache> mixed(feeds.size()), alone(feeds.size());
    nn::RaggedBatch batch;
    batch.logits = rows;
    for (std::size_t i = 0; i < feeds.size(); ++i) {
      if (!primes[i].empty()) {
        Tape t1, t2;
        model.forward_incremental(t1, primes[i], mixed[i]);
        model.forward_incremental(t2, primes[i], alone[i]);
      }
      batch.add(feeds[i], mixed[i]);
    }
    Tape tape;
    const Var got = model.forward(tape, batch);

    std::int64_t row = 0;
    for (std::size_t i = 0; i < feeds.size(); ++i) {
      nn::RaggedBatch one;
      one.logits = rows;
      one.add(feeds[i], alone[i]);
      Tape t;
      const Var want = model.forward(t, one);
      for (std::int64_t r = 0; r < want.value().dim(0); ++r, ++row) {
        for (std::int64_t v = 0; v < c.vocab_size; ++v) {
          ASSERT_EQ(got.value().at(row, v), want.value().at(r, v))
              << "seq " << i << " row " << r << " vocab " << v;
        }
      }
      ASSERT_EQ(mixed[i].length(), alone[i].length());
      std::vector<float> a, b;
      mixed[i].swap_out(a);
      alone[i].swap_out(b);
      EXPECT_EQ(a, b) << "seq " << i << " cache rows";
    }
    EXPECT_EQ(row, got.value().dim(0));
  }
}

TEST(ServeEngine, TokenIdenticalToGenerateCached) {
  for (auto arch : {nn::ArchFamily::kNeoX, nn::ArchFamily::kLLaMA}) {
    const std::int64_t gqa = arch == nn::ArchFamily::kLLaMA ? 1 : 0;
    nn::GptModel model(serve_config(arch, gqa));

    serve::EngineConfig ec;
    ec.max_batch = 3;
    ec.kv_slots = 3;  // fewer slots than requests: forces recycling
    ec.queue_capacity = 4;
    serve::InferenceEngine engine(model, ec);

    auto trace = serve::synth_trace(tiny_trace_spec());
    const auto reference_trace = trace;  // run_trace consumes its argument
    const auto results = engine.run_trace(std::move(trace));
    ASSERT_EQ(results.size(), reference_trace.size());

    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& req = reference_trace[i];
      EXPECT_EQ(results[i].id, req.id);
      EXPECT_EQ(results[i].generated_tokens, req.max_new_tokens);
      Rng rng(req.sampling.seed);
      const auto expected =
          model.generate_cached(req.prompt, req.max_new_tokens, req.sampling,
                                rng);
      EXPECT_EQ(results[i].tokens, expected) << "request " << i;
    }

    // Every slot returned to the pool; stats saw every request.
    EXPECT_TRUE(engine.kv_pool().all_free());
    EXPECT_EQ(engine.active_count(), 0u);
    EXPECT_EQ(engine.queue_depth(), 0u);
    EXPECT_EQ(engine.stats().requests_completed(), reference_trace.size());
  }
}

TEST(ServeEngine, SaveAfterServingWritesTheRowMajorCheckpoint) {
  // An engine packs its model's weights in place; a checkpoint saved
  // afterwards is byte-for-byte the pre-serving one, and loading it (into a
  // fresh model, or back into the packed one) reproduces its tokens.
  nn::GptConfig c = serve_config(nn::ArchFamily::kLLaMA, 1);
  c.hidden = 96;  // wider than one 64-column panel, so packed != row-major
  c.vocab_size = 200;
  nn::GptModel model(c);
  std::stringstream before;
  nn::save_parameters(model, before);
  const std::vector<std::int32_t> prompt{5, 3, 8};
  nn::SamplingParams sampling;
  sampling.temperature = 0.9f;
  sampling.top_k = 8;
  Rng r0(11);
  const auto expected = model.generate_cached(prompt, 10, sampling, r0);
  {
    serve::EngineConfig ec;
    ec.max_batch = 3;
    ec.kv_slots = 3;
    serve::InferenceEngine engine(model, ec);
    EXPECT_EQ(engine.run_trace(serve::synth_trace(tiny_trace_spec())).size(),
              10u);
  }
  bool packed = false;
  for (const auto& p : model.parameters()) {
    if (p.name == "blocks.0.mlp.gate.weight") packed = p.var.node()->packed;
  }
  ASSERT_TRUE(packed);
  std::stringstream after;
  nn::save_parameters(model, after);
  EXPECT_TRUE(before.str() == after.str());

  nn::GptConfig other = c;
  other.seed = c.seed + 1;
  nn::GptModel fresh(other);
  std::stringstream in(after.str());
  nn::load_parameters(fresh, in);
  Rng r1(11);
  EXPECT_EQ(fresh.generate_cached(prompt, 10, sampling, r1), expected);

  std::stringstream again(before.str());
  nn::load_parameters(model, again);
  Rng r2(11);
  EXPECT_EQ(model.generate_cached(prompt, 10, sampling, r2), expected);
}

TEST(ServeEngine, SequentialFallbackMatchesBatchedTokens) {
  nn::GptModel model(serve_config(nn::ArchFamily::kLLaMA, 1));
  auto spec = tiny_trace_spec();
  spec.n_requests = 6;

  // One sequence at a time (every forward has one row per step) must emit
  // exactly what the batched engine emits.
  serve::EngineConfig batched;
  batched.max_batch = 3;
  batched.kv_slots = 3;
  serve::EngineConfig sequential = batched;
  sequential.max_batch = 1;

  serve::InferenceEngine a(model, batched), b(model, sequential);
  const auto ra = a.run_trace(serve::synth_trace(spec));
  const auto rb = b.run_trace(serve::synth_trace(spec));
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].tokens, rb[i].tokens) << "request " << i;
  }
}

TEST(ServeEngine, SubmitAndStepFromCallerThread) {
  nn::GptModel model(serve_config(nn::ArchFamily::kNeoX, 0));
  serve::InferenceEngine engine(model);
  serve::Request req;
  req.id = 42;
  req.prompt = {3, 1, 4};
  req.max_new_tokens = 5;
  req.sampling.temperature = 0.0f;
  req.sampling.seed = 99;
  auto future = engine.submit(req);
  engine.run_until_idle();
  const auto result = future.get();
  EXPECT_EQ(result.id, 42u);
  Rng rng(99);
  EXPECT_EQ(result.tokens,
            model.generate_cached(req.prompt, 5, req.sampling, rng));
  EXPECT_GE(result.ttft_s, 0.0);
  EXPECT_GE(result.total_s, result.ttft_s);
}

TEST(ServeEngine, MixedDecodeStepOfSixteenRowsMatchesGenerateCached) {
  // Sixteen sequences decode in one step, mixing greedy, top-k/top-p and a
  // third kind: grammar-constrained (an all-ones mask, so generate_cached
  // is its reference) in one engine, greedy speculative in another (an
  // engine rejects a grammar and a draft proposer together). The step
  // draws its plain rows in one parallel pass; every request must still
  // equal batch-1 generate_cached, and its on_token stream must arrive on
  // the stepping thread in generation order.
  nn::GptConfig config = serve_config(nn::ArchFamily::kLLaMA, 1);
  config.n_layers = 3;
  nn::GptModel model(config);
  const auto pass_through = std::make_shared<const serve::workloads::TokenDfa>(
      serve::workloads::TokenDfa::pass_through(config.vocab_size, 0));
  for (const bool speculative : {false, true}) {
    serve::EngineConfig ec;
    ec.max_batch = 16;
    ec.kv_slots = 16;
    ec.queue_capacity = 16;
    if (speculative) {
      ec.proposer = std::make_shared<serve::spec::LayerSkipDraft>(model, 2);
    }
    serve::InferenceEngine engine(model, ec);

    constexpr std::size_t kRequests = 16;
    constexpr std::int64_t kMaxNew = 6;
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::vector<std::int32_t>> streamed(kRequests);
    std::atomic<int> off_thread{0};
    std::vector<serve::Request> requests;
    for (std::size_t i = 0; i < kRequests; ++i) {
      serve::Request req;
      req.id = 1 + i;
      for (std::size_t t = 0; t < 3 + i % 4; ++t) {
        req.prompt.push_back(static_cast<std::int32_t>((i * 7 + t * 3) % 50));
      }
      req.max_new_tokens = kMaxNew;
      req.sampling.seed = 0xab5 + i;
      req.sampling.temperature = 0.0f;
      if (i % 3 != 0) {
        req.sampling.temperature = 0.8f;
        req.sampling.top_k = 10;
        req.sampling.top_p = 0.9f;
      }
      if (i % 3 == 2 && !speculative) req.grammar = pass_through;
      if (i % 3 == 0 && speculative && i % 2 == 0) req.spec_k = 2;
      req.on_token = [&streamed, &off_thread, caller, i](std::int32_t token) {
        if (std::this_thread::get_id() != caller) off_thread += 1;
        streamed[i].push_back(token);
      };
      requests.push_back(req);
    }
    std::vector<std::future<serve::RequestResult>> futures;
    for (const auto& req : requests) futures.push_back(engine.submit(req));
    // The first step admits and prefills all sixteen, so the next one
    // decodes every one of them in one forward.
    engine.step();
    ASSERT_EQ(engine.active_count(), kRequests);
    engine.run_until_idle();

    const char* label = speculative ? "speculative mix" : "grammar mix";
    for (std::size_t i = 0; i < kRequests; ++i) {
      const serve::Request& req = requests[i];
      const serve::RequestResult result = futures[i].get();
      Rng rng(req.sampling.seed);
      const auto expected =
          model.generate_cached(req.prompt, kMaxNew, req.sampling, rng);
      EXPECT_EQ(result.tokens, expected) << label << ", request " << i;
      EXPECT_EQ(streamed[i],
                std::vector<std::int32_t>(expected.end() - kMaxNew,
                                          expected.end()))
          << label << ", request " << i;
      if (req.spec_k > 0) {
        EXPECT_GT(result.verify_rounds, 0) << label << ", request " << i;
      }
    }
    EXPECT_EQ(off_thread.load(), 0) << label;
    EXPECT_EQ(engine.stats().grammar_requests(), speculative ? 0u : 5u);
  }
}

TEST(ServeKvPool, ReleaseRecyclesSlotAndClearsHistory) {
  {
    const nn::GptConfig c = serve_config(nn::ArchFamily::kLLaMA, 1);
    serve::KvPoolConfig pc;
    pc.slots = 1;
    serve::KvCachePool pool(c, pc);
    // One full-length sequence of arena.
    EXPECT_EQ(pool.total_blocks() * pool.block_tokens(), c.max_seq);
    EXPECT_EQ(pool.capacity_tokens(), c.max_seq);
    EXPECT_GT(pool.reserved_bytes(), 0.0);

    serve::KvLease slot = pool.try_lease();
    ASSERT_TRUE(slot);
    EXPECT_EQ(pool.available(), 0u);
    EXPECT_FALSE(pool.try_lease());
    EXPECT_FALSE(pool.all_free());

    // Dirty the slot so we can observe release() resetting it.
    nn::GptModel model(c);
    Tape tape;
    const std::vector<std::int32_t> prompt{1, 2, 3};
    model.forward_incremental(tape, prompt, *slot);
    EXPECT_EQ(slot->length(), 3);

    slot.release();
    EXPECT_TRUE(pool.all_free());
    serve::KvLease again = pool.try_lease();
    ASSERT_TRUE(again);
    EXPECT_EQ(again->length(), 0);  // history cleared
  }
}

TEST(ServeKvPool, EmptyLeaseIsCheckedAndReleaseIdempotent) {
  const nn::GptConfig c = serve_config(nn::ArchFamily::kNeoX, 0);
  serve::KvCachePool pool(c, serve::KvPoolConfig{.slots = 2});
  serve::KvLease lease = pool.try_lease();
  ASSERT_TRUE(lease);
  lease.release();
  lease.release();  // idempotent, not a double free
  EXPECT_TRUE(pool.all_free());
  EXPECT_THROW((void)*lease, Error);
  EXPECT_THROW((void)lease->length(), Error);
  serve::KvLease moved = pool.try_lease();
  ASSERT_TRUE(moved);
  serve::KvLease stolen = std::move(moved);
  EXPECT_FALSE(moved);  // NOLINT(bugprone-use-after-move): checked empty
  EXPECT_TRUE(stolen);
}

TEST(ServeKvPool, TryLeaseEmptyWhenExhausted) {
  {
    const nn::GptConfig c = serve_config(nn::ArchFamily::kNeoX, 0);
    serve::KvPoolConfig pc;
    pc.slots = 2;
    serve::KvCachePool pool(c, pc);
    serve::KvLease a = pool.try_lease();
    ASSERT_TRUE(a);
    serve::KvLease b = pool.try_lease();
    ASSERT_TRUE(b);
    EXPECT_FALSE(pool.try_lease());
    EXPECT_EQ(pool.available(), 0u);
    a.release();
    EXPECT_TRUE(pool.try_lease());  // reacquires the freed capacity
  }
}

TEST(ServeKvPool, LeaseTruncateRollsBack) {
  {
    const nn::GptConfig c = serve_config(nn::ArchFamily::kLLaMA, 1);
    serve::KvPoolConfig pc;
    pc.slots = 2;
    serve::KvCachePool pool(c, pc);
    nn::GptModel model(c);
    serve::KvLease slot = pool.try_lease();
    ASSERT_TRUE(slot);
    const std::vector<std::int32_t> prompt{1, 2, 3, 4, 5};
    Tape tape;
    model.forward_incremental(tape, prompt, *slot);
    ASSERT_EQ(slot->length(), 5);

    slot->truncate(3);
    EXPECT_EQ(slot->length(), 3);
    EXPECT_THROW(slot->truncate(4), Error);  // can't grow by truncating

    serve::KvLease empty;
    EXPECT_THROW(empty->truncate(0), Error);
  }
}

TEST(ServeKvPool, SlotCapacityIsEnforced) {
  {
    const nn::GptConfig c = serve_config(nn::ArchFamily::kLLaMA, 1);
    serve::KvPoolConfig pc;
    pc.slots = 1;
    pc.capacity_tokens = 4;
    serve::KvCachePool pool(c, pc);
    nn::GptModel model(c);
    serve::KvLease slot = pool.try_lease();
    ASSERT_TRUE(slot);
    const std::vector<std::int32_t> too_long{1, 2, 3, 4, 5};
    Tape tape;
    EXPECT_THROW(model.forward_incremental(tape, too_long, *slot), Error);

    // The engine refuses such a request up front instead of corrupting KV.
    serve::EngineConfig ec;
    ec.kv_slots = 1;
    ec.kv_capacity_tokens = 4;
    serve::InferenceEngine engine(model, ec);
    serve::Request req;
    req.prompt = {1, 2, 3};
    req.max_new_tokens = 8;  // 3 + 8 > 4
    EXPECT_THROW(engine.submit(req), Error);
  }
}

TEST(ServeEngine, SubmitBlocksWhenQueueSaturated) {
  nn::GptModel model(serve_config(nn::ArchFamily::kNeoX, 0));
  serve::EngineConfig ec;
  ec.queue_capacity = 1;
  serve::InferenceEngine engine(model, ec);

  serve::Request req;
  req.prompt = {5, 6};
  req.max_new_tokens = 2;
  req.sampling.temperature = 0.0f;

  auto first = engine.submit(req);  // fills the queue
  std::atomic<bool> second_submitted{false};
  std::future<serve::RequestResult> second;
  std::thread submitter([&] {
    second = engine.submit(req);  // must block, not throw
    second_submitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_submitted.load());

  engine.step();  // admits the first request, freeing queue space
  submitter.join();
  EXPECT_TRUE(second_submitted.load());
  engine.run_until_idle();
  EXPECT_EQ(first.get().generated_tokens, 2);
  EXPECT_EQ(second.get().generated_tokens, 2);
}

TEST(ServeStats, QuantilesAndReport) {
  serve::ServerStats stats;
  for (int ms = 1; ms <= 100; ++ms) stats.record_ttft(ms * 1e-3);
  stats.record_inter_token(5e-3);
  serve::RequestResult r;
  r.generated_tokens = 10;
  r.total_s = 2.0;
  r.tokens_per_s = 5.0;
  stats.record_request(r);

  EXPECT_NEAR(stats.ttft_ms(0.50), 50.0, 5.0);
  EXPECT_NEAR(stats.ttft_ms(0.95), 95.0, 5.0);
  EXPECT_NEAR(stats.ttft_ms(0.99), 99.0, 5.0);
  EXPECT_LE(stats.ttft_ms(0.50), stats.ttft_ms(0.95));
  EXPECT_LE(stats.ttft_ms(0.95), stats.ttft_ms(0.99));
  EXPECT_EQ(stats.requests_completed(), 1u);
  EXPECT_EQ(stats.tokens_generated(), 10u);
  EXPECT_DOUBLE_EQ(stats.mean_request_tokens_per_s(), 5.0);

  const std::string report = stats.report(2.0);
  EXPECT_NE(report.find("ttft"), std::string::npos);
  EXPECT_NE(report.find("aggregate tokens/s"), std::string::npos);
}

}  // namespace
}  // namespace matgpt
