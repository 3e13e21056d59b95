#pragma once
// Serving request/response types shared by the engine, scheduler, metrics,
// and traces.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nn/sampling.h"

namespace matgpt::serve::workloads {
class TokenDfa;
}

namespace matgpt::serve {

/// Scheduling class of a request. Lower value = more urgent; the
/// PriorityScheduler admits strictly by (aged) class before anything else.
enum class Priority : std::uint8_t { kHigh = 0, kNormal = 1, kLow = 2 };
inline constexpr std::size_t kPriorityClasses = 3;

inline const char* priority_name(Priority p) {
  switch (p) {
    case Priority::kHigh:
      return "high";
    case Priority::kNormal:
      return "normal";
    case Priority::kLow:
      return "low";
  }
  return "?";
}

/// How a request left the engine. Cancelled/timed-out requests still resolve
/// their future (with whatever tokens they had) — retirement is one path.
enum class RequestStatus : std::uint8_t {
  kOk = 0,
  /// Retired by InferenceEngine::cancel() before completing.
  kCancelled,
  /// Deadline expired (waiting or mid-decode) before completing.
  kTimeout,
  /// Retired by InferenceEngine::park(): the request's session state (KV
  /// rows, tokens, rng) was put cold in the KV tier store so the
  /// conversation can resume later byte-identically.
  kParked,
  /// A grammar-constrained request reached a DFA state with no legal token
  /// and no legal EOS. The engine fails the request deterministically with
  /// whatever tokens it had rather than hanging or sampling an illegal
  /// token.
  kGrammarDead,
};

inline const char* status_name(RequestStatus s) {
  switch (s) {
    case RequestStatus::kOk:
      return "ok";
    case RequestStatus::kCancelled:
      return "cancelled";
    case RequestStatus::kTimeout:
      return "timeout";
    case RequestStatus::kParked:
      return "parked";
    case RequestStatus::kGrammarDead:
      return "grammar_dead";
  }
  return "?";
}

/// How an embedding request pools the encoder's per-token hidden states
/// into one fixed-width vector.
enum class EmbedReduce : std::uint8_t {
  /// Mean over positions — matches nn::BertEncoder::embed bit-for-bit.
  kMean = 0,
  /// First position's hidden state (BERT [CLS] convention).
  kCls = 1,
};

inline const char* embed_reduce_name(EmbedReduce r) {
  switch (r) {
    case EmbedReduce::kMean:
      return "mean";
    case EmbedReduce::kCls:
      return "cls";
  }
  return "?";
}

struct RequestResult;

/// One generation request as a client would submit it.
struct Request {
  std::uint64_t id = 0;
  /// Durable conversation identity (0 = none). A non-zero id must name a
  /// session created by InferenceEngine::create_session(); the request's
  /// `prompt` is then the NEW tokens appended to the session's history
  /// (empty is allowed once the session has history), and on retirement
  /// the engine parks the conversation's KV and sampling-rng state in the
  /// tier store so the next request on the session resumes byte-identical
  /// to never having parked — without re-prefilling the history.
  std::uint64_t session_id = 0;
  std::vector<std::int32_t> prompt;
  /// All sampling knobs, including the per-request stream seed: the engine
  /// draws from Rng(sampling.seed), so a request's tokens are independent of
  /// batch composition and identical to a batch-1 GptModel::generate_cached
  /// run with the same params.
  nn::SamplingParams sampling;
  std::int64_t max_new_tokens = 16;
  /// Draft tokens proposed per speculative round; 0 = plain decoding. A
  /// positive value requires the engine to be built with a DraftProposer.
  /// Greedy speculative requests still produce tokens byte-identical to the
  /// plain path — speculation only changes how fast they arrive.
  std::int64_t spec_k = 0;
  /// Grammar constraint (null = unconstrained). Every decode step masks the
  /// logits row to the DFA's legal set before sampling, so every sampled
  /// token is legal by construction; a compiled grammar also halts on EOS
  /// once the DFA accepts. A constrained request cannot be speculative,
  /// embed, or ride a session. Share one compiled TokenDfa across requests
  /// — it is immutable after compile.
  std::shared_ptr<const workloads::TokenDfa> grammar;
  /// Embedding request: prefill-only through the engine's BERT encoder
  /// (EngineConfig::workloads.embedder). The prompt is the sequence to
  /// embed; max_new_tokens/spec_k/sampling are ignored and the result
  /// carries `embedding` instead of generated tokens. Shares admission,
  /// KV-lease accounting, and scheduling with generation requests.
  bool embed = false;
  EmbedReduce embed_reduce = EmbedReduce::kMean;
  /// Scheduling class (see Priority). FCFS ignores it; the
  /// PriorityScheduler orders admission by it (with aging and EDF).
  Priority priority = Priority::kNormal;
  /// Relative SLO deadline in milliseconds from submit (0 = none). The
  /// PriorityScheduler runs EDF on submit + deadline_ms within a class; a
  /// request whose deadline passes before it completes is retired with
  /// RequestStatus::kTimeout.
  double deadline_ms = 0.0;
  /// Streaming hook: invoked on the engine's scheduler thread for every
  /// generated token in emission order (the TTFT token included,
  /// speculative bursts token by token). Null = no streaming. Must not
  /// block for long — it runs inside the decode loop; hand the token to
  /// another thread (e.g. an eventfd-signalled queue) instead.
  std::function<void(std::int32_t)> on_token;
  /// Completion hook: invoked on the engine's scheduler thread right
  /// before the request's future resolves, with the final result
  /// (including cancelled/timeout retirements). Same blocking caveat.
  std::function<void(const RequestResult&)> on_finish;
};

/// Completed request: prompt + generated tokens (the generate_cached layout)
/// plus per-request latency accounting.
struct RequestResult {
  std::uint64_t id = 0;
  RequestStatus status = RequestStatus::kOk;
  Priority priority = Priority::kNormal;
  std::vector<std::int32_t> tokens;
  /// Tokens the engine generated (tokens.size() minus the prompt).
  std::int64_t generated_tokens = 0;
  /// Submit-to-first-token latency (queue wait + prefill).
  double ttft_s = 0.0;
  /// Submit-to-first-prefill-work latency: pure queueing delay, what the
  /// scheduler controls. ttft_s minus this is the prefill cost. Negative
  /// when the request never reached the model (cancelled/expired in queue).
  double queue_delay_s = -1.0;
  /// Submit-to-completion latency.
  double total_s = 0.0;
  /// Decode throughput: generated tokens / total_s.
  double tokens_per_s = 0.0;
  /// Times this request was preempted and re-queued (recompute or swap).
  std::int64_t preemptions = 0;
  /// Speculative accounting (zero for plain requests): draft tokens
  /// proposed/accepted and target forwards taken. generated_tokens minus
  /// verify_rounds is the number of sequential decode steps speculation
  /// saved.
  std::int64_t drafts_proposed = 0;
  std::int64_t drafts_accepted = 0;
  std::int64_t verify_rounds = 0;
  /// Embedding requests only: the pooled vector (width = encoder hidden).
  std::vector<float> embedding;
  /// Workload class of the finished request (mirrors the Request flags so
  /// metrics can classify without holding the Request).
  bool embed = false;
  bool constrained = false;

  double acceptance_rate() const {
    return drafts_proposed == 0
               ? 0.0
               : static_cast<double>(drafts_accepted) /
                     static_cast<double>(drafts_proposed);
  }
};

}  // namespace matgpt::serve
