#pragma once
// Serving metrics: four latency histograms (TTFT overall and per priority
// class, queue delay, inter-token latency) recorded into common/histogram
// with p50/p95/p99 quantile queries, plus one declared table of scalar
// stats.
//
// Every /v1/stats scalar is one row of MATGPT_SERVER_STATS below. The row
// generates the typed accessor, and report() and to_json() render the
// table, so a stat is named in exactly one place.
//
// Written only by the engine's scheduler thread; the engine serializes
// those writes with stats_json() — no internal locking.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "serve/kv_tier/kv_tier.h"
#include "serve/request.h"

namespace matgpt::serve {

/// How a stored stat takes a recorded value: a counter adds it, a gauge
/// overwrites with it (snapshots of another component's lifetime totals
/// are gauges too), a peak keeps the maximum.
enum class StatKind { kCounter, kGauge, kPeak };

// The scalar stats, in /v1/stats order:
//   STAT(name, accessor type, StatKind, report section)
//   RATIO(name, numerator, denominator, report section) — derived, never
//     stored: numerator / denominator, 0 while the denominator is 0. The
//     operands are expressions over the other accessors.
// report() prints one line per section that has a non-zero value.
#define MATGPT_SERVER_STATS(STAT, RATIO)                                     \
  STAT(requests_completed, std::uint64_t, kCounter, "requests")             \
  STAT(tokens_generated, std::uint64_t, kCounter, "requests")               \
  RATIO(mean_request_tokens_per_s, sum_request_tokens_per_s_,               \
        requests_completed(), "requests")                                   \
  STAT(cancelled, std::uint64_t, kCounter, "early retirements")             \
  STAT(timed_out, std::uint64_t, kCounter, "early retirements")             \
  STAT(parked, std::uint64_t, kCounter, "early retirements")                \
  STAT(preemptions, std::uint64_t, kCounter, "preemptions")                 \
  STAT(preempt_swaps, std::uint64_t, kCounter, "preemptions")               \
  STAT(preempt_recomputes, std::uint64_t, kCounter, "preemptions")          \
  STAT(drafts_proposed, std::uint64_t, kCounter, "spec acceptance")         \
  STAT(drafts_accepted, std::uint64_t, kCounter, "spec acceptance")         \
  /* Sequential decode steps avoided by accepted drafts. */                 \
  STAT(spec_steps_saved, std::uint64_t, kCounter, "spec acceptance")        \
  RATIO(acceptance_rate, drafts_accepted(), drafts_proposed(),              \
        "spec acceptance")                                                  \
  /* A hit is an admission that reused >= 1 cached prompt token. */         \
  STAT(prefix_hits, std::uint64_t, kCounter, "prefix cache")                \
  STAT(prefix_misses, std::uint64_t, kCounter, "prefix cache")              \
  RATIO(prefix_hit_rate, prefix_hits(), prefix_hits() + prefix_misses(),    \
        "prefix cache")                                                     \
  STAT(prefix_tokens_reused, std::uint64_t, kCounter, "prefix cache")       \
  STAT(prefix_prompt_tokens, std::uint64_t, kCounter, "prefix cache")       \
  /* Largest post-admission decode batch: the paged capacity numerator. */  \
  STAT(peak_active, std::uint64_t, kPeak, "kv blocks")                      \
  STAT(peak_used_blocks, std::uint64_t, kPeak, "kv blocks")                 \
  STAT(peak_shared_blocks, std::uint64_t, kPeak, "kv blocks")               \
  STAT(kv_total_blocks, std::uint64_t, kGauge, "kv blocks")                 \
  RATIO(peak_block_utilization, peak_used_blocks(), kv_total_blocks(),      \
        "kv blocks")                                                        \
  STAT(cow_forks, std::uint64_t, kGauge, "kv blocks")                       \
  STAT(cow_rows, std::uint64_t, kGauge, "kv blocks")                        \
  STAT(sessions_live, std::uint64_t, kGauge, "sessions")                    \
  STAT(session_parks, std::uint64_t, kCounter, "sessions")                  \
  /* Parks whose KV the tier refused: the next resume re-prefills. */       \
  STAT(session_park_drops, std::uint64_t, kCounter, "sessions")             \
  STAT(session_resumes, std::uint64_t, kCounter, "sessions")                \
  STAT(session_resume_recomputes, std::uint64_t, kCounter, "sessions")      \
  STAT(kv_tier_host_bytes, std::uint64_t, kGauge, "kv tier")                \
  STAT(kv_tier_host_budget, std::uint64_t, kGauge, "kv tier")               \
  STAT(kv_tier_host_entries, std::uint64_t, kGauge, "kv tier")              \
  STAT(kv_tier_disk_bytes, std::uint64_t, kGauge, "kv tier")                \
  STAT(kv_tier_disk_budget, std::uint64_t, kGauge, "kv tier")               \
  STAT(kv_tier_disk_entries, std::uint64_t, kGauge, "kv tier")              \
  STAT(kv_tier_stores, std::uint64_t, kGauge, "kv tier")                    \
  STAT(kv_tier_takes, std::uint64_t, kGauge, "kv tier")                     \
  STAT(kv_tier_host_hits, std::uint64_t, kGauge, "kv tier")                 \
  STAT(kv_tier_disk_hits, std::uint64_t, kGauge, "kv tier")                 \
  STAT(kv_tier_demotions, std::uint64_t, kGauge, "kv tier")                 \
  STAT(kv_tier_disk_evictions, std::uint64_t, kGauge, "kv tier")            \
  STAT(kv_tier_store_refusals, std::uint64_t, kGauge, "kv tier")            \
  STAT(kv_tier_spill_failures, std::uint64_t, kGauge, "kv tier")            \
  STAT(kv_tier_corrupt_drops, std::uint64_t, kGauge, "kv tier")             \
  STAT(grammar_requests, std::uint64_t, kCounter, "grammar decoding")       \
  STAT(grammar_masked_tokens, std::uint64_t, kCounter, "grammar decoding")  \
  STAT(grammar_eos_stops, std::uint64_t, kCounter, "grammar decoding")      \
  STAT(grammar_dead, std::uint64_t, kCounter, "grammar decoding")           \
  STAT(embed_requests, std::uint64_t, kCounter, "embeddings")               \
  STAT(embed_forwards, std::uint64_t, kCounter, "embeddings")               \
  STAT(embed_tokens, std::uint64_t, kCounter, "embeddings")                 \
  /* Mean sequences per embedding forward: the class's batching win. */     \
  RATIO(embed_mean_batch, embed_batched_seqs_, embed_forwards(),            \
        "embeddings")                                                       \
  STAT(gemm_f32_calls, std::uint64_t, kGauge, "gemm")                       \
  STAT(gemm_bf16_calls, std::uint64_t, kGauge, "gemm")                      \
  STAT(gemm_int8_calls, std::uint64_t, kGauge, "gemm")

/// The latency histograms have fixed bounds, set in metrics.cpp. Samples
/// above a bound are clamped into the top bin (Histogram semantics), so
/// quantiles saturate rather than lose data.
class ServerStats {
 public:
  ServerStats();

  /// TTFT lands in the aggregate histogram and the request's class
  /// histogram — the priority scheduler's SLO claims are per-class claims.
  void record_ttft(double seconds, Priority cls = Priority::kNormal);
  void record_inter_token(double seconds);
  /// Submit-to-first-prefill-work delay — the part of TTFT the scheduler
  /// (not the model) is responsible for.
  void record_queue_delay(double seconds);
  /// One preemption event; `swapped` = KV parked host-side (vs recompute).
  void record_preemption(bool swapped);
  void record_request(const RequestResult& result);
  /// One admission's prefix-cache outcome: `tokens_reused` of a
  /// `prompt_tokens`-long prompt were restored from cache (0 = miss).
  void record_prefix(std::int64_t tokens_reused, std::int64_t prompt_tokens);
  /// Per-step KV occupancy snapshot. `active` is the post-admission batch.
  void record_kv(std::size_t active, std::int64_t used_blocks,
                 std::int64_t total_blocks, std::int64_t shared_blocks,
                 std::uint64_t cow_forks, std::uint64_t cow_rows);
  /// KV tier-store lifetime totals and occupancy.
  void record_tier(const kv_tier::TierStats& tier);
  /// One session park event; `kv_stored` = the tier kept the KV bytes
  /// (vs refused — the next resume re-prefills from the registry tokens).
  void record_session_park(bool kv_stored);
  /// One session resume activation; `kv_restored` = KV came back from the
  /// tier (vs recompute fallback).
  void record_session_resume(bool kv_restored);
  /// Live-session gauge.
  void record_sessions(std::size_t live);
  /// Quantized-decode identity (set once at engine construction when
  /// decode_quant is on).
  void set_decode_quant(std::string decode_quant);
  /// Process-lifetime matmul forwards by weight format (ops::matmul_calls).
  void record_gemm(std::uint64_t f32_calls, std::uint64_t bf16_calls,
                   std::uint64_t int8_calls);
  /// `steps` grammar-masked sampling steps, `eos_stops` of which sampled
  /// EOS at an accepting state and ended the utterance.
  void record_grammar_steps(std::int64_t steps, std::int64_t eos_stops);
  /// One batched embedding forward of `batch` sequences totalling `tokens`
  /// input tokens.
  void record_embed_forward(std::int64_t batch, std::int64_t tokens);

  // One accessor per table row.
#define MATGPT_STAT_ACCESSOR(name, type, kind, section) \
  type name() const { return static_cast<type>(value(Stat::name)); }
#define MATGPT_RATIO_ACCESSOR(name, num, den, section) \
  double name() const { return ratio(num, den); }
  MATGPT_SERVER_STATS(MATGPT_STAT_ACCESSOR, MATGPT_RATIO_ACCESSOR)
#undef MATGPT_STAT_ACCESSOR
#undef MATGPT_RATIO_ACCESSOR

  /// Sequences over all embedding forwards (embed_mean_batch's numerator).
  std::uint64_t embed_batched_seqs() const { return embed_batched_seqs_; }

  /// Identity of the deployment (not measured): the decode weight format
  /// ("f32" = off).
  const std::string& decode_quant() const { return decode_quant_; }

  /// Quantiles in milliseconds (q in [0, 1]); require recorded samples.
  double ttft_ms(double q) const { return ttft_ms_.quantile(q); }
  double inter_token_ms(double q) const {
    return inter_token_ms_.quantile(q);
  }
  double queue_delay_ms(double q) const { return queue_delay_ms_.quantile(q); }
  /// Per-priority-class TTFT quantile (requires samples in that class).
  double ttft_class_ms(Priority cls, double q) const {
    return ttft_class_ms_[static_cast<std::size_t>(cls)].quantile(q);
  }

  /// Human-readable report: one line per table section with a non-zero
  /// value, aggregate throughput over `wall_s`, the deployment identity
  /// when it is not the default, and the p50/p95/p99 latency table.
  std::string report(double wall_s) const;

  /// Machine-readable mirror of report(): one JSON object with every
  /// table row, the identity fields, and per-histogram {count, p50, p95,
  /// p99} blocks (count 0 when a histogram has no samples). The HTTP
  /// /v1/stats endpoint and `serve-bench --json` both emit this.
  std::string to_json(double wall_s) const;

 private:
  enum class Stat : std::size_t {
#define MATGPT_STAT_ENUM(name, type, kind, section) name,
#define MATGPT_RATIO_SKIP(name, num, den, section)
    MATGPT_SERVER_STATS(MATGPT_STAT_ENUM, MATGPT_RATIO_SKIP)
#undef MATGPT_STAT_ENUM
#undef MATGPT_RATIO_SKIP
        kCount
  };

  /// Apply `v` to a stored stat by its row's kind.
  void record(Stat stat, double v);
  double value(Stat stat) const {
    return values_[static_cast<std::size_t>(stat)];
  }
  static double ratio(double num, double den) {
    return den == 0.0 ? 0.0 : num / den;
  }

  Histogram ttft_ms_;
  Histogram inter_token_ms_;
  Histogram queue_delay_ms_;
  std::vector<Histogram> ttft_class_ms_;  // indexed by Priority
  std::array<double, static_cast<std::size_t>(Stat::kCount)> values_{};
  // Ratio operands that are not published themselves.
  double sum_request_tokens_per_s_ = 0.0;
  std::uint64_t embed_batched_seqs_ = 0;
  std::string decode_quant_ = "f32";
};

}  // namespace matgpt::serve
