#include "replay.h"

#include <string>

#include "clock.h"
#include "nn/layers.h"
#include "nn/sampling.h"
#include "tensor/autograd.h"
#include "tensor/kernels.h"

namespace servebench {

namespace kernels = matgpt::kernels;
using matgpt::Tape;
using matgpt::Var;

namespace {

constexpr std::int64_t kGemmRows[] = {1, 4, 16, 128};
// Each timed measurement repeats until both bounds are met.
constexpr int kMinReps = 15;
constexpr double kMinRepSeconds = 0.005;

std::vector<float> random_floats(std::size_t n, SplitMix64& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  return v;
}

// The GEMMs one projection issues per layer call: [M, K] x [K, N] each.
struct Projection {
  const char* name;
  std::vector<std::pair<std::int64_t, std::int64_t>> kn;
};

std::vector<std::int32_t> prompt_tokens(std::int64_t n, std::int64_t vocab,
                                        SplitMix64& rng) {
  std::vector<std::int32_t> out(static_cast<std::size_t>(n));
  for (auto& t : out) {
    t = static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(vocab)));
  }
  return out;
}

}  // namespace

void replay_gemm(const nn::GptConfig& config, std::vector<Metric>& out,
                 SpanLog& spans) {
  const std::int64_t h = config.hidden;
  const std::int64_t kv = config.kv_heads() * config.head_dim();
  const std::int64_t ffn = nn::SwiGluMlp::inner_dim_for(h);
  const std::vector<Projection> projections = {
      {"qkv", {{h, h}, {h, kv}, {h, kv}}},
      {"o", {{h, h}}},
      {"gate_up", {{h, ffn}, {h, ffn}}},
      {"down", {{ffn, h}}},
      {"lm_head", {{h, config.vocab_size}}},
  };
  SplitMix64 rng(0x6e33);
  for (const Projection& p : projections) {
    for (const std::int64_t m : kGemmRows) {
      struct Operands {
        std::vector<float> a, b, c;
        std::int64_t k, n;
      };
      std::vector<Operands> ops;
      double flops = 0.0;
      double bytes = 0.0;
      for (const auto& [k, n] : p.kn) {
        ops.push_back({random_floats(static_cast<std::size_t>(m * k), rng),
                       random_floats(static_cast<std::size_t>(k * n), rng),
                       std::vector<float>(static_cast<std::size_t>(m * n)), k,
                       n});
        flops += 2.0 * static_cast<double>(m * n * k);
        bytes += 4.0 * static_cast<double>(m * k + k * n + m * n);
      }
      auto call = [&] {
        for (Operands& o : ops) {
          kernels::gemm_nn(o.a.data(), o.b.data(), o.c.data(), m, o.n, o.k,
                           /*accumulate=*/false);
        }
      };
      call();  // warm
      std::vector<double> reps;
      const double start = now_s();
      while (static_cast<int>(reps.size()) < kMinReps ||
             now_s() - start < kMinRepSeconds) {
        const double t0 = now_s();
        call();
        reps.push_back(now_s() - t0);
      }
      const double us = median(reps) * 1e6;
      const std::string name =
          std::string("gemm.") + p.name + ".m" + std::to_string(m);
      spans.add(name, SpanLog::kReplayLane, start, now_s(),
                "{\"reps\": " + std::to_string(reps.size()) + "}");
      out.push_back({name + ".us", us, "us"});
      out.push_back({name + ".gflops", flops / (us * 1e3), "GFLOP/s"});
      out.push_back({name + ".bytes", bytes, "bytes"});
    }
  }
}

void replay_model(const nn::GptModel& model, std::vector<Metric>& out,
                  SpanLog& spans) {
  const nn::GptConfig& config = model.config();
  SplitMix64 rng(0x90de1);

  // Prefill: a 384-token prompt in the engine's 128-token chunks.
  constexpr std::int64_t kPrompt = 384;
  constexpr std::int64_t kChunk = 128;
  const auto prompt = prompt_tokens(kPrompt, config.vocab_size, rng);
  std::vector<double> per_token;
  for (int rep = 0; rep < 7; ++rep) {
    nn::KvCache cache;
    cache.reserve(config);
    const double t0 = now_s();
    for (std::int64_t at = 0; at < kPrompt; at += kChunk) {
      Tape tape;
      model.forward_incremental(
          tape, std::span<const std::int32_t>(prompt).subspan(at, kChunk),
          cache, nn::FwdPath::kPrefill);
    }
    const double t1 = now_s();
    spans.add("model.prefill", SpanLog::kReplayLane, t0, t1,
              "{\"tokens\": 384, \"chunk\": 128}");
    if (rep > 0) per_token.push_back((t1 - t0) / kPrompt);
  }
  out.push_back({"model.prefill_us_per_token", median(per_token) * 1e6, "us"});

  // Decode: ragged batches of b sequences, each primed with 64 tokens.
  std::vector<float> rows;  // the b16 batch's last logits, for sampling
  for (const std::int64_t b : {1, 4, 16}) {
    std::vector<nn::KvCache> caches(static_cast<std::size_t>(b));
    std::vector<nn::KvCache*> ptrs;
    for (auto& cache : caches) {
      cache.reserve(config);
      Tape tape;
      model.forward_incremental(tape, prompt_tokens(64, config.vocab_size, rng),
                                cache);
      ptrs.push_back(&cache);
    }
    std::vector<double> steps;
    for (int step = 0; step < 17; ++step) {
      const auto tokens = prompt_tokens(b, config.vocab_size, rng);
      Tape tape;
      const double t0 = now_s();
      Var logits = model.decode_batch(tape, tokens, ptrs);
      const double t1 = now_s();
      const std::string name = "model.decode_b" + std::to_string(b);
      spans.add(name, SpanLog::kReplayLane, t0, t1);
      if (step > 0) steps.push_back(t1 - t0);
      if (b == 16 && step == 16) {
        const float* data = logits.value().data();
        rows.assign(data, data + b * config.vocab_size);
      }
    }
    out.push_back({"model.decode_step_ms_b" + std::to_string(b),
                   median(steps) * 1e3, "ms"});
  }

  // Sampling: the workloads' two parameter sets over those 16 real rows.
  nn::SamplingParams stochastic;
  stochastic.temperature = 0.8f;
  stochastic.top_k = 40;
  stochastic.top_p = 0.95f;
  const std::pair<const char*, nn::SamplingParams> modes[] = {
      {"greedy", nn::SamplingParams::greedy_params()},
      {"stochastic", stochastic}};
  const std::size_t v = static_cast<std::size_t>(config.vocab_size);
  const std::size_t n_rows = rows.size() / v;
  for (const auto& [mode, params] : modes) {
    matgpt::Rng sample_rng(7);
    std::vector<double> per_call;
    constexpr int kPasses = 4;
    for (int round = 0; round < 9; ++round) {
      const double t0 = now_s();
      for (int pass = 0; pass < kPasses; ++pass) {
        for (std::size_t r = 0; r < n_rows; ++r) {
          nn::sample_token(std::span<const float>(rows).subspan(r * v, v),
                           params, sample_rng);
        }
      }
      const double t1 = now_s();
      spans.add(std::string("sampling.") + mode, SpanLog::kReplayLane, t0, t1,
                "{\"calls\": " + std::to_string(kPasses * n_rows) + "}");
      per_call.push_back((t1 - t0) / static_cast<double>(kPasses * n_rows));
    }
    out.push_back({std::string("sampling.us_per_token_") + mode,
                   median(per_call) * 1e6, "us"});
  }
}

}  // namespace servebench
