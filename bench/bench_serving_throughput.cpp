// Serving throughput: continuous batching vs sequential decoding.
//
// Replays one synthetic trace through (a) a sequential baseline that runs
// generate_cached request-by-request and (b) the continuous-batching
// InferenceEngine at 8 concurrent requests. Verifies the engine's output is
// token-identical to the baseline, then reports aggregate tokens/s, the
// speedup, and the engine's TTFT / inter-token latency quantiles.
//
// Threads: (c) replays the trace once more on a serial (0-worker) pool and
// counts requests whose tokens differ from the full pool's
// (thread_identity_mismatches), and (d) times a batch-4 decode step of the
// engine's packed model on one thread and on every thread of the global
// pool (decode_thread_speedup_b4, best of 5 alternating runs each, with
// host_cores). The ratio depends on the host, so it is reported, not gated.
//
// Acceptance gate: >= 2x aggregate throughput over sequential at batch 8,
// and no request's tokens change with the pool size.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "nn/gpt.h"
#include "parallel/thread_pool.h"
#include "serve/engine.h"
#include "serve/trace.h"

using namespace matgpt;
using Clock = std::chrono::steady_clock;

namespace {

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Median seconds of 16 batch-`b` decode steps on the calling thread's
// pool, after priming each sequence with 64 tokens (and one untimed step).
double decode_step_s(const nn::GptModel& model, std::int64_t b) {
  const nn::GptConfig& c = model.config();
  std::vector<nn::KvCache> caches(static_cast<std::size_t>(b));
  std::vector<nn::KvCache*> ptrs;
  for (std::size_t s = 0; s < caches.size(); ++s) {
    std::vector<std::int32_t> prompt;
    for (std::int64_t t = 0; t < 64; ++t) {
      prompt.push_back(static_cast<std::int32_t>(
          (static_cast<std::int64_t>(s) * 7 + t * 3) % c.vocab_size));
    }
    caches[s].reserve(c);
    Tape tape;
    model.forward_incremental(tape, prompt, caches[s]);
    ptrs.push_back(&caches[s]);
  }
  std::vector<double> steps;
  for (int step = 0; step < 17; ++step) {
    std::vector<std::int32_t> fed;
    for (std::int64_t s = 0; s < b; ++s) {
      fed.push_back(static_cast<std::int32_t>((s * 11 + step * 5 + 1) %
                                              c.vocab_size));
    }
    Tape tape;
    const auto t0 = Clock::now();
    model.decode_batch(tape, fed, ptrs);
    if (step > 0) steps.push_back(secs_since(t0));
  }
  std::sort(steps.begin(), steps.end());
  return steps[steps.size() / 2];
}

}  // namespace

int main() {
  std::printf("=== serving throughput: continuous batching vs sequential ===\n");

  // Serving-shaped model: ~7M params (28 MB fp32), far larger than L2, so
  // decode is weight-bandwidth-bound at batch 1 — the regime continuous
  // batching exists for. Tiny-vocab toy configs are ALU-bound at every
  // batch size and show no batching win; this one does.
  nn::GptConfig c;
  c.arch = nn::ArchFamily::kLLaMA;
  c.vocab_size = 8192;
  c.hidden = 256;
  c.n_layers = 4;
  c.n_heads = 8;
  c.n_kv_heads = 2;  // GQA, the serving-relevant configuration
  c.max_seq = 128;
  nn::GptModel model(c);

  serve::TraceSpec spec;
  spec.n_requests = 32;
  spec.vocab_size = c.vocab_size;
  // Output-heavy mix (decode >> prefill), the shape serving traces take.
  spec.max_new_min = 16;
  spec.max_new_max = 64;
  const auto trace = serve::synth_trace(spec);

  std::printf("model: llama %lld hidden, %lld layers, %lld heads (%lld kv)\n",
              static_cast<long long>(c.hidden),
              static_cast<long long>(c.n_layers),
              static_cast<long long>(c.n_heads),
              static_cast<long long>(c.kv_heads()));
  std::printf("trace: %zu requests, prompts %lld..%lld, max_new %lld..%lld\n\n",
              trace.size(), static_cast<long long>(spec.prompt_len_min),
              static_cast<long long>(spec.prompt_len_max),
              static_cast<long long>(spec.max_new_min),
              static_cast<long long>(spec.max_new_max));

  // Warm up allocators and instruction caches on an off-trace request.
  {
    Rng warm(1);
    model.generate_cached(trace[0].prompt, 4, trace[0].sampling, warm);
  }

  // Both paths are deterministic, so repeated runs produce identical
  // tokens; taking the best of a few reps per path removes scheduler noise
  // (this is a shared box) without biasing the comparison either way.
  constexpr int kReps = 3;

  // (a) Sequential baseline: one request at a time, batch-1 KV decoding.
  std::vector<std::vector<std::int32_t>> expected;
  std::int64_t generated = 0;
  double seq_s = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    expected.clear();
    expected.reserve(trace.size());
    generated = 0;
    const auto t_seq = Clock::now();
    for (const auto& req : trace) {
      Rng rng(req.sampling.seed);
      expected.push_back(
          model.generate_cached(req.prompt, req.max_new_tokens, req.sampling,
                                rng));
      generated += req.max_new_tokens;
    }
    const double s = secs_since(t_seq);
    if (rep == 0 || s < seq_s) seq_s = s;
  }
  const double seq_tps = static_cast<double>(generated) / seq_s;
  std::printf("sequential: %lld tokens in %.3f s -> %.1f tokens/s (best of %d)\n",
              static_cast<long long>(generated), seq_s, seq_tps, kReps);

  // (b) Continuous batching at 8 concurrent requests.
  serve::EngineConfig ec;
  ec.max_batch = 8;
  ec.kv_slots = 8;
  double eng_s = 0.0;
  std::uint64_t eng_tokens = 0;
  std::string eng_report;
  std::vector<serve::RequestResult> results;
  for (int rep = 0; rep < kReps; ++rep) {
    serve::InferenceEngine engine(model, ec);
    auto replay = trace;
    const auto t_eng = Clock::now();
    auto rep_results = engine.run_trace(std::move(replay));
    const double s = secs_since(t_eng);
    if (rep == 0 || s < eng_s) {
      eng_s = s;
      eng_tokens = engine.stats().tokens_generated();
      eng_report = engine.stats().report(s);
      results = std::move(rep_results);
    }
  }
  const double eng_tps = static_cast<double>(eng_tokens) / eng_s;
  std::printf("engine:     %llu tokens in %.3f s -> %.1f tokens/s (best of %d)\n",
              static_cast<unsigned long long>(eng_tokens), eng_s, eng_tps,
              kReps);

  // Token identity: batching must not change any request's output.
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].tokens != expected[i]) ++mismatches;
  }
  std::printf("token identity vs sequential: %s (%zu/%zu requests match)\n\n",
              mismatches == 0 ? "OK" : "MISMATCH",
              results.size() - mismatches, results.size());

  std::printf("%s", eng_report.c_str());
  const double speedup = eng_tps / seq_tps;
  std::printf("\nspeedup: %.2fx aggregate tokens/s at batch %lld\n", speedup,
              static_cast<long long>(ec.max_batch));

  // (c) The engine's tokens on a serial pool.
  std::size_t thread_mismatches = 0;
  {
    const ScopedThreadPool serial(0);
    serve::InferenceEngine engine(model, ec);
    const auto serial_results = engine.run_trace(trace);
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (serial_results[i].tokens != results[i].tokens) ++thread_mismatches;
    }
  }
  std::printf("\ntoken identity, serial pool vs %zu threads: %s (%zu/%zu "
              "requests match)\n",
              ThreadPool::global().worker_count() + 1,
              thread_mismatches == 0 ? "OK" : "MISMATCH",
              results.size() - thread_mismatches, results.size());

  // (d) The batch-4 decode step of the engine's (packed) model, one thread
  // vs all, alternating so both sides see the same host conditions.
  constexpr int kStepReps = 5;
  const std::size_t host_cores = ThreadPool::global().worker_count() + 1;
  std::vector<double> one_s, all_s;
  for (int rep = 0; rep < kStepReps; ++rep) {
    {
      const ScopedThreadPool serial(0);
      one_s.push_back(decode_step_s(model, 4));
    }
    all_s.push_back(decode_step_s(model, 4));
  }
  std::sort(one_s.begin(), one_s.end());
  std::sort(all_s.begin(), all_s.end());
  const double thread_speedup = one_s.front() / all_s.front();
  std::printf("b4 decode step: %.3f ms on 1 thread (runs up to %.3f), %.3f ms "
              "on %zu (up to %.3f) -> %.2fx (best of %d)\n",
              1e3 * one_s.front(), 1e3 * one_s.back(), 1e3 * all_s.front(),
              host_cores, 1e3 * all_s.back(), thread_speedup, kStepReps);

  bench::write_bench_json(
      "BENCH_serving.json",
      {{"sequential_tokens_per_s", seq_tps},
       {"engine_tokens_per_s", eng_tps},
       {"speedup", speedup},
       {"tokens_generated", static_cast<double>(eng_tokens)},
       {"max_batch", static_cast<double>(ec.max_batch)},
       {"thread_identity_mismatches", static_cast<double>(thread_mismatches)},
       {"decode_thread_speedup_b4", thread_speedup},
       {"host_cores", static_cast<double>(host_cores)}});
  const bool pass =
      mismatches == 0 && thread_mismatches == 0 && speedup >= 2.0;
  std::printf("%s: continuous batching %s the >=2x gate; tokens %s with the "
              "pool size\n",
              pass ? "PASS" : "FAIL", speedup >= 2.0 ? "clears" : "misses",
              thread_mismatches == 0 ? "do not change" : "CHANGE");
  return pass ? 0 : 1;
}
