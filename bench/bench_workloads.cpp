// Mixed-workload serving: grammar-constrained decoding + batched embeddings
// through one engine (src/serve/workloads).
//
// Four measurements on the serving-shaped model shared by the other serve
// benches:
//
//   1. Mask identity — the same trace decoded plain vs. with an all-ones
//      pass_through grammar must produce BIT-IDENTICAL tokens (the masked
//      sampling path writes nothing when everything is legal), and the
//      masked run's throughput bounds the constrained-decode overhead.
//   2. Grammar legality — a real JSON-subset grammar replayed over the
//      sampled tokens: every token must be DFA-legal by construction.
//   3. Embedding batching — the same 64 sequences embedded through the
//      engine with max_embed_batch 8 vs. 1; grouped forwards must beat
//      one-at-a-time, and every vector must be bit-identical to a solo
//      BertEncoder::embed run.
//   4. Mixed-class latency — a trace mixing generation, constrained, and
//      embed requests under the priority scheduler with workload->class
//      mapping (constrained = interactive, embed = batch) vs. FCFS: the
//      mapping must cut constrained-request worst-case TTFT.
//
// Acceptance gate: 0 identity mismatches (mask-off AND embeddings),
// 0 illegal sampled tokens, masked throughput >= 0.70x plain, batched
// embedding >= 1.05x unbatched, mixed TTFT cut >= 1.2x.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "nn/bert.h"
#include "nn/gpt.h"
#include "serve/engine.h"
#include "serve/trace.h"
#include "serve/workloads/embed.h"
#include "serve/workloads/grammar.h"

using namespace matgpt;
using Clock = std::chrono::steady_clock;

namespace {

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Synthetic JSON-fragment byte strings over the full 8192-token serving
// vocab (ids 0-4 mirror the tokenizer specials and stay empty/illegal;
// 3 = EOS). Cycling a fragment pool gives every grammar state plenty of
// legal continuations, so constrained decode makes real progress.
std::vector<std::string> synth_json_vocab(std::int64_t vocab) {
  static const char* kPool[] = {
      "{",  "}",  "[",  "]",  ":",  ",",  "\"", " ",  "0",  "1",  "2",
      "3",  "4",  "5",  "6",  "7",  "8",  "9",  "a",  "b",  "c",  "d",
      "e",  "f",  "x",  "y",  "z",  "{\"", "\":", ",\"", "\"}", "\",",
      "true", "false", "null", "-",  ".",  "e+", "{}", "[]", "1}", "0]",
      "\"a\":", "\"b\":", ": [", ", ", "]}", "}}",
  };
  constexpr std::size_t kPoolSize = sizeof(kPool) / sizeof(kPool[0]);
  std::vector<std::string> bytes(static_cast<std::size_t>(vocab));
  for (std::size_t id = 5; id < bytes.size(); ++id) {
    bytes[id] = kPool[(id - 5) % kPoolSize];
  }
  return bytes;
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t i = static_cast<std::size_t>(
      q * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(i, xs.size() - 1)];
}

}  // namespace

int main() {
  bench::print_header(
      "serve/workloads",
      "grammar-constrained decoding + batched embeddings, one engine");

  nn::GptConfig c;
  c.arch = nn::ArchFamily::kLLaMA;
  c.vocab_size = 8192;
  c.hidden = 256;
  c.n_layers = 4;
  c.n_heads = 8;
  c.n_kv_heads = 2;
  c.max_seq = 128;
  nn::GptModel model(c);

  nn::BertConfig bc;
  bc.vocab_size = c.vocab_size;
  bc.hidden = 256;
  bc.n_layers = 2;
  bc.n_heads = 8;
  bc.max_seq = 64;
  const auto encoder = std::make_shared<const nn::BertEncoder>(bc);

  constexpr std::int32_t kEos = 3;
  const std::vector<std::string> vocab_bytes = synth_json_vocab(c.vocab_size);
  serve::workloads::GrammarSpec gspec;  // root object, depth 4
  const auto json_dfa = std::make_shared<const serve::workloads::TokenDfa>(
      serve::workloads::TokenDfa::compile(gspec, vocab_bytes, kEos));
  const auto pass_dfa = std::make_shared<const serve::workloads::TokenDfa>(
      serve::workloads::TokenDfa::pass_through(c.vocab_size, kEos));
  std::printf("grammar: %d char-DFA-derived token states over %lld tokens\n",
              json_dfa->n_states(), static_cast<long long>(c.vocab_size));

  serve::TraceSpec spec;
  spec.n_requests = 48;
  spec.vocab_size = c.vocab_size;
  spec.prompt_len_min = 8;
  spec.prompt_len_max = 24;
  spec.max_new_min = 16;
  spec.max_new_max = 32;
  const auto trace = serve::synth_trace(spec);

  serve::EngineConfig base;
  base.max_batch = 8;
  base.kv_slots = 8;
  base.queue_capacity = 64;
  base.workloads.embedder = encoder;

  // Warm-up.
  {
    Rng warm(1);
    model.generate_cached(trace[0].prompt, 2, trace[0].sampling, warm);
  }

  auto run_with_grammar =
      [&](const std::shared_ptr<const serve::workloads::TokenDfa>& g,
          double& wall_s, std::int64_t& tokens) {
        serve::InferenceEngine engine(model, base);
        auto replay = trace;
        for (auto& req : replay) req.grammar = g;
        const auto t0 = Clock::now();
        auto results = engine.run_trace(std::move(replay));
        wall_s = secs_since(t0);
        tokens = 0;
        for (const auto& r : results) tokens += r.generated_tokens;
        return results;
      };

  // --- 1. plain vs. all-ones mask: identity + overhead -------------------
  bench::print_section("mask-off identity + constrained overhead");
  constexpr int kReps = 3;
  double plain_wall = 0.0, masked_wall = 0.0;
  std::int64_t plain_tokens = 0, masked_tokens = 0;
  std::vector<serve::RequestResult> plain_results, masked_results;
  for (int rep = 0; rep < kReps; ++rep) {
    double w = 0.0;
    std::int64_t t = 0;
    auto r = run_with_grammar(nullptr, w, t);
    if (rep == 0 || w < plain_wall) {
      plain_wall = w;
      plain_tokens = t;
      plain_results = std::move(r);
    }
    auto m = run_with_grammar(pass_dfa, w, t);
    if (rep == 0 || w < masked_wall) {
      masked_wall = w;
      masked_tokens = t;
      masked_results = std::move(m);
    }
  }
  std::int64_t identity_mismatches = 0;
  for (std::size_t i = 0; i < plain_results.size(); ++i) {
    identity_mismatches +=
        plain_results[i].tokens == masked_results[i].tokens ? 0 : 1;
  }
  const double plain_tps = static_cast<double>(plain_tokens) / plain_wall;
  const double masked_tps = static_cast<double>(masked_tokens) / masked_wall;
  const double constrained_throughput_ratio = masked_tps / plain_tps;
  std::printf("plain:   %.3f s, %lld tokens, %.0f tok/s\n", plain_wall,
              static_cast<long long>(plain_tokens), plain_tps);
  std::printf("masked:  %.3f s, %lld tokens, %.0f tok/s (all-ones mask)\n",
              masked_wall, static_cast<long long>(masked_tokens), masked_tps);
  std::printf("identity mismatches: %lld (masked vs plain, %zu requests)\n",
              static_cast<long long>(identity_mismatches),
              plain_results.size());
  std::printf("masked/plain throughput: %.2fx\n",
              constrained_throughput_ratio);

  // --- 2. real JSON grammar: every sampled token DFA-legal ---------------
  bench::print_section("JSON grammar legality");
  double json_wall = 0.0;
  std::int64_t json_tokens = 0;
  const auto json_results = run_with_grammar(json_dfa, json_wall, json_tokens);
  std::int64_t illegal_tokens = 0;
  std::int64_t grammar_dead = 0, eos_completed = 0;
  for (const auto& r : json_results) {
    grammar_dead += r.status == serve::RequestStatus::kGrammarDead ? 1 : 0;
    std::int32_t s = json_dfa->start();
    const auto gen_begin =
        r.tokens.end() - static_cast<std::ptrdiff_t>(r.generated_tokens);
    for (auto it = gen_begin; it != r.tokens.end(); ++it) {
      if (*it == kEos) {
        illegal_tokens += json_dfa->eos_legal(s) ? 0 : 1;
        ++eos_completed;
        break;
      }
      const std::int32_t next = json_dfa->next(s, *it);
      if (next < 0) {
        ++illegal_tokens;
        break;
      }
      s = next;
    }
  }
  std::printf("constrained: %.3f s, %lld tokens | %lld complete documents, "
              "%lld dead-ended, %lld ILLEGAL tokens\n",
              json_wall, static_cast<long long>(json_tokens),
              static_cast<long long>(eos_completed),
              static_cast<long long>(grammar_dead),
              static_cast<long long>(illegal_tokens));

  // --- 3. embedding throughput: batched vs one-at-a-time -----------------
  bench::print_section("embedding batching");
  std::vector<serve::Request> embeds;
  Rng erng(7);
  for (std::uint64_t id = 0; id < 128; ++id) {
    serve::Request req;
    req.id = id;
    req.embed = true;
    for (int t = 0; t < 8; ++t) {
      req.prompt.push_back(static_cast<std::int32_t>(
          erng.uniform_int(static_cast<std::uint64_t>(bc.vocab_size))));
    }
    embeds.push_back(std::move(req));
  }
  auto run_embeds = [&](std::int64_t max_embed_batch, double& wall_s) {
    serve::EngineConfig ec = base;
    ec.workloads.max_embed_batch = max_embed_batch;
    serve::InferenceEngine engine(model, ec);
    auto replay = embeds;
    const auto t0 = Clock::now();
    auto results = engine.run_trace(std::move(replay));
    wall_s = secs_since(t0);
    return results;
  };
  double unbatched_wall = 0.0, batched_wall = 0.0;
  std::vector<serve::RequestResult> embed_results;
  for (int rep = 0; rep < kReps; ++rep) {
    double w = 0.0;
    run_embeds(1, w);
    if (rep == 0 || w < unbatched_wall) unbatched_wall = w;
    auto r = run_embeds(8, w);
    if (rep == 0 || w < batched_wall) {
      batched_wall = w;
      embed_results = std::move(r);
    }
  }
  std::int64_t embed_identity_mismatches = 0;
  for (const auto& r : embed_results) {
    const std::vector<float> solo = encoder->embed(embeds[r.id].prompt);
    embed_identity_mismatches += r.embedding == solo ? 0 : 1;
  }
  const double embed_batch_speedup = unbatched_wall / batched_wall;
  const double embed_seqs_per_s =
      static_cast<double>(embeds.size()) / batched_wall;
  std::printf("unbatched (1/forward): %.3f s\n", unbatched_wall);
  std::printf("batched   (8/forward): %.3f s  -> %.2fx, %.0f seqs/s\n",
              batched_wall, embed_batch_speedup, embed_seqs_per_s);
  std::printf("embedding identity mismatches vs solo encode: %lld\n",
              static_cast<long long>(embed_identity_mismatches));

  // --- 4. mixed trace: workload->class mapping cuts constrained TTFT -----
  bench::print_section("mixed workload, scheduler class mapping");
  serve::TraceSpec mixed = spec;
  mixed.n_requests = 64;
  mixed.embed_fraction = 0.3;
  mixed.constrained_fraction = 0.3;
  mixed.constrained_grammar = json_dfa;
  mixed.embed_len_max = 32;
  const auto mixed_trace = serve::synth_trace(mixed);

  // Tight budget so a queue forms and admission ORDER matters.
  serve::EngineConfig tight = base;
  tight.max_batch = 4;
  tight.kv_slots = 4;
  auto run_mixed = [&](bool map_classes) {
    serve::EngineConfig ec = tight;
    ec.workloads.map_classes = map_classes;
    ec.scheduler = map_classes ? serve::sched::Policy::kPriority
                               : serve::sched::Policy::kFcfs;
    double best_wall = 0.0;
    std::vector<double> ttfts;
    for (int rep = 0; rep < kReps; ++rep) {
      serve::InferenceEngine engine(model, ec);
      auto replay = mixed_trace;
      const auto t0 = Clock::now();
      const auto results = engine.run_trace(std::move(replay));
      const double w = secs_since(t0);
      if (rep > 0 && w >= best_wall) continue;
      best_wall = w;
      ttfts.clear();
      for (const auto& r : results) {
        if (r.constrained) ttfts.push_back(r.ttft_s * 1e3);
      }
    }
    return std::make_pair(best_wall, percentile(ttfts, 0.99));
  };
  const auto [fcfs_wall, fcfs_p99] = run_mixed(false);
  const auto [mapped_wall, mapped_p99] = run_mixed(true);
  const double mixed_ttft_cut = fcfs_p99 / mapped_p99;
  std::printf("fcfs:            %.3f s | constrained TTFT p99 %.1f ms\n",
              fcfs_wall, fcfs_p99);
  std::printf("priority+mapped: %.3f s | constrained TTFT p99 %.1f ms\n",
              mapped_wall, mapped_p99);
  std::printf("constrained p99 TTFT cut: %.2fx\n", mixed_ttft_cut);

  bench::write_bench_json(
      "BENCH_workloads.json",
      {{"constrained_throughput_ratio", constrained_throughput_ratio},
       {"identity_mismatches", static_cast<double>(identity_mismatches)},
       {"grammar_illegal_tokens", static_cast<double>(illegal_tokens)},
       {"embed_batch_speedup", embed_batch_speedup},
       {"embed_identity_mismatches",
        static_cast<double>(embed_identity_mismatches)},
       {"mixed_ttft_cut", mixed_ttft_cut},
       {"plain_tokens_per_s", plain_tps},
       {"masked_tokens_per_s", masked_tps},
       {"embed_seqs_per_s", embed_seqs_per_s},
       {"grammar_states", static_cast<double>(json_dfa->n_states())},
       {"eos_completed_documents", static_cast<double>(eos_completed)}});

  const bool pass = identity_mismatches == 0 && illegal_tokens == 0 &&
                    embed_identity_mismatches == 0 &&
                    constrained_throughput_ratio >= 0.70 &&
                    embed_batch_speedup >= 1.05 && mixed_ttft_cut >= 1.2;
  std::printf("\n%s: mixed-workload serving %s the identity/overhead/"
              "batching/latency gate\n",
              pass ? "PASS" : "FAIL", pass ? "clears" : "misses");
  return pass ? 0 : 1;
}
