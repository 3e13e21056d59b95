#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "nn/paged_kv.h"
#include "stats.h"

namespace servebench {

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "chat") return Workload::kChat;
  if (name == "batch") return Workload::kBatch;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kChat:
      return "chat";
    case Workload::kBatch:
      return "batch";
  }
  return "?";
}

nn::GptConfig model_config() {
  nn::GptConfig mc;
  mc.arch = nn::ArchFamily::kLLaMA;
  mc.vocab_size = 8192;
  mc.hidden = 256;
  mc.n_layers = 4;
  mc.n_heads = 8;
  mc.n_kv_heads = 2;
  mc.max_seq = 1024;
  return mc;
}

serve::EngineConfig engine_config(const nn::GptConfig& model) {
  serve::EngineConfig ec;
  ec.paged_kv = true;
  ec.scheduler = serve::sched::Policy::kFcfs;
  ec.max_batch = 16;
  // Four full-length (1024-token) sequences of arena: a batch of 16 fits
  // only because paged reservations pack short requests densely.
  ec.kv_slots = 4;
  // Holds the whole offline batch submitted at t=0.
  ec.queue_capacity = 1024;
  ec.prefill_chunk_tokens = 128;
  nn::PagedKvLayout layout;
  layout.block_tokens = ec.kv_block_tokens;
  layout.n_layers = model.n_layers;
  layout.kv_heads = model.kv_heads();
  layout.head_dim = model.head_dim();
  ec.prefix_cache_bytes = static_cast<std::size_t>(
      static_cast<double>(kPrefixCacheTokens / ec.kv_block_tokens) *
      layout.block_bytes_bf16());
  return ec;
}

namespace {

constexpr std::int64_t kVocab = 8192;

// Independent streams per input aspect, so adding a draw to one aspect
// never shifts another.
SplitMix64 stream(std::uint64_t seed, std::uint64_t tag) {
  SplitMix64 mix(seed ^ (tag * 0x9e3779b97f4a7c15ULL));
  return SplitMix64(mix.next());
}

std::vector<std::int32_t> random_tokens(std::int64_t n, SplitMix64& rng) {
  std::vector<std::int32_t> out(static_cast<std::size_t>(n));
  for (auto& t : out) {
    t = static_cast<std::int32_t>(
        rng.below(static_cast<std::uint64_t>(kVocab)));
  }
  return out;
}

// TraceSpec's serving mix: exactly a quarter greedy, the rest T=0.8 with
// top-k 40 and top-p 0.95; each request has its own sampling stream.
void assign_sampling(std::vector<serve::Request>& requests, SplitMix64& rng) {
  const auto quarter = spread(requests.size(), 0, 3, rng);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    nn::SamplingParams& s = requests[i].sampling;
    if (quarter[i] == 0) {
      s.temperature = 0.0f;
    } else {
      s.temperature = 0.8f;
      s.top_k = 40;
      s.top_p = 0.95f;
    }
    s.seed = rng.next();
  }
}

std::size_t request_count(double per_second, double seconds) {
  return std::max(kMinRequests,
                  static_cast<std::size_t>(std::llround(per_second * seconds)));
}

// Unshared prompts of [plo, phi] tokens generating [olo, ohi] tokens.
std::vector<serve::Request> unshared(std::size_t n, std::int64_t plo,
                                     std::int64_t phi, std::int64_t olo,
                                     std::int64_t ohi, std::uint64_t seed) {
  SplitMix64 shape = stream(seed, 1);
  SplitMix64 text = stream(seed, 2);
  SplitMix64 sampling = stream(seed, 3);
  const auto prompt_len = spread(n, plo, phi, shape);
  const auto out_len = spread(n, olo, ohi, shape);
  std::vector<serve::Request> requests(n);
  for (std::size_t i = 0; i < n; ++i) {
    requests[i].id = i + 1;
    requests[i].prompt = random_tokens(prompt_len[i], text);
    requests[i].max_new_tokens = out_len[i];
  }
  assign_sampling(requests, sampling);
  return requests;
}

}  // namespace

std::vector<serve::Request> make_inputs(Workload w, std::uint64_t seed,
                                        double seconds) {
  if (w == Workload::kChat) {
    return unshared(request_count(kChatPoolPerSecond, seconds), 16, 64, 32,
                    128, seed);
  }
  return unshared(request_count(kBatchRequestsPerSecond, seconds), 16, 128, 64,
                  128, seed);
}

std::vector<serve::Request> warmup_requests() {
  // Prompts up to the prefill chunk, so both the decode path and the
  // threaded M=128 prefill path are warm.
  auto requests = unshared(12, 16, 128, 8, 16, /*seed=*/0x3a7f00d);
  for (auto& req : requests) req.id += 1'000'000'000;
  return requests;
}

}  // namespace servebench
