#pragma once
// The serving model, the one engine deployment every workload runs on, and
// the seeded inputs of each workload.

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "nn/gpt.h"
#include "serve/engine.h"
#include "serve/request.h"

namespace servebench {

namespace nn = matgpt::nn;
namespace serve = matgpt::serve;

enum class Workload { kChat, kBatch };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

// Fixed workload parameters (BENCHMARK.json states the same numbers).
/// chat: a closed loop of this many users, each with one HTTP connection,
/// sending its next request when the previous reply is complete, for
/// --seconds (and at least kMinRequests requests).
inline constexpr std::size_t kChatUsers = 4;
/// The prefix cache's budget: this many tokens of bf16 KV. No workload
/// shares a prefix, so the cache is bypassed: it inserts and evicts, and a
/// lookup matches at most a token or two by chance.
inline constexpr std::int64_t kPrefixCacheTokens = 3072;
/// chat's request pool per second of --seconds: twice what the engine
/// serves at the seed commit, so the pool never runs dry.
inline constexpr double kChatPoolPerSecond = 30.0;
/// batch submits this many per second of --seconds, all at t=0.
inline constexpr double kBatchRequestsPerSecond = 10.0;
/// Every workload sends at least this many requests, enough for a p95 with
/// ten samples beyond it.
inline constexpr std::size_t kMinRequests = 200;

/// The serving model: serving_model_config()'s shape (LLaMA, vocab 8192,
/// hidden 256, 4 layers, 8 heads, 2 KV heads) with max_seq 1024. Weights
/// are random from the config's fixed seed.
nn::GptConfig model_config();

/// Paged KV, FCFS, max_batch 16, prefix cache on, prefill chunk 128.
serve::EngineConfig engine_config(const nn::GptConfig& model);

/// Deterministic per (workload, seed, seconds). Request i has id i + 1
/// (ids are unique per engine).
std::vector<serve::Request> make_inputs(Workload w, std::uint64_t seed,
                                        double seconds);

/// The fixed, seed-independent warm-up set; ids start far above any
/// workload id.
std::vector<serve::Request> warmup_requests();

}  // namespace servebench
