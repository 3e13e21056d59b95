// Thread-count invariance: the model and the engine give the same bytes on
// every pool size. One mixed ragged step (a prefill chunk, decode rows and
// a verify span) writes byte-identical logits and K/V for NeoX and LLaMA
// (GQA), with fp32, bf16 and int8 decode weights, and the packed model
// matches its row-major twin on every pool. Sequences sharing one arena of
// small blocks keep identical paged K/V across steps. Four engine traces
// (seeded sampling, speculative decoding, recompute preemption under KV
// pressure, an engine built on an already-packed model) emit identical
// tokens.
//
// Every computation runs under a ScopedThreadPool of 0 (serial), 1, 2, 3
// and 7 workers; the serial run is the reference.

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/gpt.h"
#include "nn/paged_kv.h"
#include "parallel/thread_pool.h"
#include "serve/engine.h"
#include "serve/spec/proposer.h"
#include "serve/trace.h"
#include "tensor/kernels.h"

namespace matgpt {
namespace {

using kernels::WeightFormat;

constexpr std::size_t kWorkers[] = {0, 1, 2, 3, 7};

// Hidden 96 is one full 64-column panel plus a 32-column tail, so every
// packed weight reads differently from its row-major layout; vocab 2048
// makes lm_head split over the pool from two decode rows.
nn::GptConfig pool_config(nn::ArchFamily arch) {
  nn::GptConfig c;
  c.arch = arch;
  c.vocab_size = 2048;
  c.hidden = 96;
  c.n_layers = 2;
  c.n_heads = 4;
  c.n_kv_heads = arch == nn::ArchFamily::kLLaMA ? 2 : 0;
  c.max_seq = 64;
  return c;
}

// `run`'s result on a pool of each size in kWorkers, in that order.
template <typename Run>
auto on_every_pool(Run&& run) {
  std::vector<decltype(run())> out;
  for (const std::size_t workers : kWorkers) {
    const ScopedThreadPool scope(workers);
    out.push_back(run());
  }
  return out;
}

bool same_bytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

struct StepBytes {
  std::vector<float> logits;
  std::vector<float> kv;  // every cache after the step, swapped out
};

// Prime eight caches with one prefill forward, then run one 16-row ragged
// step on the decode path returning every row's logits: sequence 0 feeds a
// 6-token prefill chunk, sequences 1-6 one decode token each, sequence 7 a
// 4-token verify span. The histories are long enough that decode attention
// splits its (row, head) pairs too.
StepBytes mixed_step(const nn::GptModel& model) {
  const nn::GptConfig& c = model.config();
  const std::int64_t history[] = {8, 40, 41, 42, 43, 44, 45, 18};
  const std::int64_t fed[] = {6, 1, 1, 1, 1, 1, 1, 4};
  auto tokens = [&](std::size_t s, std::int64_t from, std::int64_t n) {
    std::vector<std::int32_t> out;
    for (std::int64_t t = from; t < from + n; ++t) {
      out.push_back(static_cast<std::int32_t>(
          (static_cast<std::int64_t>(s) * 131 + t * 17 + 5) % c.vocab_size));
    }
    return out;
  };
  std::vector<nn::KvCache> caches(std::size(history));
  std::vector<std::vector<std::int32_t>> prompts, steps;
  nn::RaggedBatch prime;
  for (std::size_t s = 0; s < caches.size(); ++s) {
    caches[s].reserve(c);
    prompts.push_back(tokens(s, 0, history[s]));
    prime.add(prompts.back(), caches[s]);
  }
  Tape prime_tape;
  model.forward(prime_tape, prime);

  nn::RaggedBatch step;
  step.path = nn::FwdPath::kDecode;
  step.logits = nn::LogitRows::kAll;
  for (std::size_t s = 0; s < caches.size(); ++s) {
    steps.push_back(tokens(s, history[s], fed[s]));
    step.add(steps.back(), caches[s]);
  }
  Tape tape;
  const Var logits = model.forward(tape, step);
  EXPECT_EQ(logits.value().dim(0), 16);
  StepBytes out;
  out.logits.assign(logits.value().data(),
                    logits.value().data() + logits.value().numel());
  for (const nn::KvCache& cache : caches) {
    std::vector<float> rows;
    cache.swap_out(rows);
    out.kv.insert(out.kv.end(), rows.begin(), rows.end());
  }
  return out;
}

void expect_step_identical_across_pools(nn::ArchFamily arch) {
  const nn::GptConfig c = pool_config(arch);
  // The step must split, or the test shows nothing: lm_head's packed job
  // cuts into panel ranges from two threads.
  ASSERT_GT(kernels::packed_split(16, c.vocab_size, c.hidden,
                                  c.vocab_size / kernels::kPanelFloats, 2)
                .tiles(),
            1u);
  for (const WeightFormat format :
       {WeightFormat::kF32, WeightFormat::kBf16, WeightFormat::kInt8}) {
    nn::GptModel model(c);
    model.prepare_decode_quant(format);  // packs the weights
    const auto runs = on_every_pool([&] { return mixed_step(model); });
    for (std::size_t i = 1; i < runs.size(); ++i) {
      EXPECT_TRUE(same_bytes(runs[i].logits, runs[0].logits))
          << nn::arch_name(arch) << " " << kernels::format_name(format)
          << ": logits on " << kWorkers[i] << " workers differ from serial";
      EXPECT_TRUE(same_bytes(runs[i].kv, runs[0].kv))
          << nn::arch_name(arch) << " " << kernels::format_name(format)
          << ": K/V on " << kWorkers[i] << " workers differ from serial";
    }
  }
}

TEST(ThreadInvariance, NeoxStepLogitsIdenticalAcrossPools) {
  expect_step_identical_across_pools(nn::ArchFamily::kNeoX);
}

TEST(ThreadInvariance, LlamaGqaStepLogitsIdenticalAcrossPools) {
  expect_step_identical_across_pools(nn::ArchFamily::kLLaMA);
}

// Three sequences share one arena of 8-token blocks and grow in lockstep,
// so each block table interleaves with the others' and every history
// crosses block boundaries. A prefill and four ragged decode steps must give
// the same logits and the same paged K/V bytes on every pool.
StepBytes shared_arena_steps(const nn::GptModel& model) {
  const nn::GptConfig& c = model.config();
  nn::PagedKvLayout layout;
  layout.block_tokens = 8;
  layout.n_layers = c.n_layers;
  layout.kv_heads = c.kv_heads();
  layout.head_dim = c.head_dim();
  nn::PagedKvArena arena(layout, 16);
  std::deque<nn::KvCache> caches;
  for (int s = 0; s < 3; ++s) caches.emplace_back(&arena);
  const std::vector<std::vector<std::int32_t>> prompts{
      {3, 14, 15, 9, 2, 6, 5, 35, 8, 41},
      {11, 4, 30, 2, 19},
      {7, 1, 22, 60, 13, 12, 9, 44, 50, 17, 5, 3, 28}};
  StepBytes out;
  auto keep_logits = [&](const Var& logits) {
    out.logits.insert(out.logits.end(), logits.value().data(),
                      logits.value().data() + logits.value().numel());
  };
  {
    nn::RaggedBatch prefill;
    prefill.logits = nn::LogitRows::kAll;
    for (std::size_t s = 0; s < caches.size(); ++s) {
      prefill.add(prompts[s], caches[s]);
    }
    Tape tape;
    keep_logits(model.forward(tape, prefill));
  }
  for (const std::int32_t base : {7, 21, 33, 2}) {
    std::vector<std::vector<std::int32_t>> toks;
    nn::RaggedBatch step;
    step.path = nn::FwdPath::kDecode;
    step.logits = nn::LogitRows::kAll;
    for (std::size_t s = 0; s < caches.size(); ++s) {
      toks.push_back({static_cast<std::int32_t>(base + 5 * s)});
    }
    for (std::size_t s = 0; s < caches.size(); ++s) {
      step.add(toks[s], caches[s]);
    }
    Tape tape;
    keep_logits(model.forward(tape, step));
  }
  for (const nn::KvCache& cache : caches) {
    std::vector<float> rows;
    cache.swap_out(rows);
    out.kv.insert(out.kv.end(), rows.begin(), rows.end());
  }
  return out;
}

TEST(ThreadInvariance, SharedArenaPagedCacheIdenticalAcrossPools) {
  const nn::GptConfig c = pool_config(nn::ArchFamily::kLLaMA);
  nn::GptModel model(c);
  model.prepare_decode_quant(WeightFormat::kF32);
  const auto runs = on_every_pool([&] { return shared_arena_steps(model); });
  ASSERT_FALSE(runs[0].kv.empty());
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_TRUE(same_bytes(runs[i].logits, runs[0].logits))
        << "logits on " << kWorkers[i] << " workers differ from serial";
    EXPECT_TRUE(same_bytes(runs[i].kv, runs[0].kv))
        << "paged K/V on " << kWorkers[i] << " workers differ from serial";
  }
}

TEST(ThreadInvariance, PackedStepMatchesRowMajorModelOnEveryPool) {
  // Packing re-lays every weight and changes how the pool splits each
  // GEMM; neither may change a byte.
  for (auto arch : {nn::ArchFamily::kNeoX, nn::ArchFamily::kLLaMA}) {
    const nn::GptConfig c = pool_config(arch);
    nn::GptModel row_major(c), packed(c);  // same seed: same weights
    packed.prepare_decode_quant(WeightFormat::kF32);
    ScopedThreadPool serial(0);
    const StepBytes want = mixed_step(row_major);
    const auto runs = on_every_pool([&] { return mixed_step(packed); });
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_TRUE(same_bytes(runs[i].logits, want.logits))
          << nn::arch_name(arch) << ": packed logits on " << kWorkers[i]
          << " workers differ from the row-major model's";
    }
  }
}

// ---------------------------------------------------------------------------
// Engine traces
// ---------------------------------------------------------------------------

using Tokens = std::vector<std::vector<std::int32_t>>;

Tokens tokens_of(const std::vector<serve::RequestResult>& results) {
  Tokens out;
  for (const auto& r : results) out.push_back(r.tokens);
  return out;
}

void expect_tokens_identical(const std::vector<Tokens>& runs,
                             const std::string& what) {
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i], runs[0])
        << what << ": tokens on " << kWorkers[i] << " workers differ";
  }
}

serve::TraceSpec pool_trace_spec(const nn::GptConfig& c) {
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

TEST(ThreadInvariance, RunTraceTokensIdenticalAcrossPools) {
  const nn::GptConfig c = pool_config(nn::ArchFamily::kLLaMA);
  nn::GptModel model(c);
  serve::EngineConfig ec;
  ec.max_batch = 4;
  ec.kv_slots = 4;
  const auto runs = on_every_pool([&] {
    serve::InferenceEngine engine(model, ec);
    return tokens_of(engine.run_trace(serve::synth_trace(pool_trace_spec(c))));
  });
  expect_tokens_identical(runs, "run_trace");
}

TEST(ThreadInvariance, BuiltOnAPackedModelTokensIdenticalAcrossPools) {
  // An earlier engine packed the model's weights in place; engines built
  // on it afterwards emit generate_cached's tokens on every pool, for both
  // families.
  for (auto arch : {nn::ArchFamily::kNeoX, nn::ArchFamily::kLLaMA}) {
    const nn::GptConfig c = pool_config(arch);
    nn::GptModel model(c);
    serve::EngineConfig ec;
    ec.max_batch = 4;
    ec.kv_slots = 4;
    { serve::InferenceEngine first(model, ec); }
    bool packed = false;
    for (const auto& p : model.parameters()) {
      if (p.name == "blocks.0.attn.q.weight") packed = p.var.node()->packed;
    }
    ASSERT_TRUE(packed) << nn::arch_name(arch);

    const auto trace = serve::synth_trace(pool_trace_spec(c));
    Tokens want;
    {
      ScopedThreadPool serial(0);
      for (const serve::Request& req : trace) {
        Rng rng(req.sampling.seed);
        want.push_back(model.generate_cached(req.prompt, req.max_new_tokens,
                                             req.sampling, rng));
      }
    }
    const auto runs = on_every_pool([&] {
      serve::InferenceEngine engine(model, ec);
      return tokens_of(engine.run_trace(trace));
    });
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i], want) << nn::arch_name(arch) << ": engine on "
                               << kWorkers[i]
                               << " workers differs from generate_cached";
    }
  }
}

TEST(ThreadInvariance, SpeculativeTokensIdenticalAcrossPools) {
  const nn::GptConfig c = pool_config(nn::ArchFamily::kLLaMA);
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
  serve::EngineConfig ec;
  ec.max_batch = 2;
  ec.proposer = std::make_shared<serve::spec::LayerSkipDraft>(model, 1);
  bool speculated = true;
  const auto runs = on_every_pool([&] {
    serve::InferenceEngine engine(model, ec);
    const auto results = engine.run_trace(make_requests());
    bool drafted = false;
    for (const auto& r : results) drafted = drafted || r.drafts_proposed > 0;
    speculated = speculated && drafted;
    return tokens_of(results);
  });
  EXPECT_TRUE(speculated) << "a run never exercised the verify path";
  expect_tokens_identical(runs, "speculative");
}

// Under KV pressure the engine preempts, resumes by re-prefilling (a 64-byte
// host tier and no disk tier refuse every victim's rows), and on every
// pool still emits the tokens a roomy serial engine does.
TEST(ThreadInvariance, PreemptResumeTokensIdenticalAcrossPools) {
  const nn::GptConfig c = pool_config(nn::ArchFamily::kLLaMA);
  nn::GptModel model(c);

  serve::EngineConfig tight;
  tight.max_batch = 4;
  tight.kv_slots = 2;
  tight.kv_capacity_tokens = 48;
  tight.kv_block_tokens = 8;
  tight.scheduler = serve::sched::Policy::kPriority;
  tight.kv_tier.host_tier_bytes = 64;
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
  // Tokens by request id, and the engine's recomputed preemptions.
  auto run = [&](const serve::EngineConfig& ec) {
    serve::InferenceEngine engine(model, ec);
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
    std::map<std::uint64_t, std::vector<std::int32_t>> by_id;
    for (auto& f : futures) {
      serve::RequestResult r = f.get();
      EXPECT_EQ(r.status, serve::RequestStatus::kOk) << "request " << r.id;
      by_id.emplace(r.id, std::move(r.tokens));
    }
    return std::make_pair(by_id, engine.stats().preempt_recomputes());
  };

  ScopedThreadPool serial(0);
  const auto want = run(roomy).first;
  const auto runs = on_every_pool([&] { return run(tight); });
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_GE(runs[i].second, 1u)
        << "pressure scenario never recomputed a preemption on "
        << kWorkers[i]
        << " workers; the test is vacuous";
    EXPECT_EQ(runs[i].first, want)
        << "preempt/resume on " << kWorkers[i] << " workers diverged";
  }
}

}  // namespace
}  // namespace matgpt
