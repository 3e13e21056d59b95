#include "serve/metrics.h"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string_view>

#include "common/error.h"

namespace matgpt::serve {

namespace {

// Table rows as rendered: the JSON key, the report section, and the value.
struct StatRow {
  std::string_view name;
  std::string_view section;
  double (*value)(const ServerStats&);
};

#define MATGPT_STAT_ROW(name, type, kind, section)                          \
  {#name, section,                                                          \
   [](const ServerStats& s) { return static_cast<double>(s.name()); }},
#define MATGPT_RATIO_ROW(name, num, den, section) \
  {#name, section, [](const ServerStats& s) { return s.name(); }},
constexpr StatRow kRows[] = {
    MATGPT_SERVER_STATS(MATGPT_STAT_ROW, MATGPT_RATIO_ROW)};
#undef MATGPT_STAT_ROW
#undef MATGPT_RATIO_ROW

#define MATGPT_STAT_KIND(name, type, kind, section) StatKind::kind,
#define MATGPT_RATIO_SKIP(name, num, den, section)
constexpr StatKind kKinds[] = {
    MATGPT_SERVER_STATS(MATGPT_STAT_KIND, MATGPT_RATIO_SKIP)};
#undef MATGPT_STAT_KIND
#undef MATGPT_RATIO_SKIP

// Upper bounds and bin count of the latency histograms.
constexpr double kMaxTtftMs = 10000.0;
constexpr double kMaxInterTokenMs = 1000.0;
constexpr double kMaxQueueDelayMs = 10000.0;
constexpr std::size_t kHistogramBins = 4000;

}  // namespace

ServerStats::ServerStats()
    : ttft_ms_(0.0, kMaxTtftMs, kHistogramBins),
      inter_token_ms_(0.0, kMaxInterTokenMs, kHistogramBins),
      queue_delay_ms_(0.0, kMaxQueueDelayMs, kHistogramBins),
      ttft_class_ms_(kPriorityClasses,
                     Histogram(0.0, kMaxTtftMs, kHistogramBins)) {}

void ServerStats::record(Stat stat, double v) {
  const auto i = static_cast<std::size_t>(stat);
  switch (kKinds[i]) {
    case StatKind::kCounter:
      values_[i] += v;
      break;
    case StatKind::kGauge:
      values_[i] = v;
      break;
    case StatKind::kPeak:
      values_[i] = std::max(values_[i], v);
      break;
  }
}

void ServerStats::record_ttft(double seconds, Priority cls) {
  ttft_ms_.add(seconds * 1e3);
  ttft_class_ms_[static_cast<std::size_t>(cls)].add(seconds * 1e3);
}

void ServerStats::record_inter_token(double seconds) {
  inter_token_ms_.add(seconds * 1e3);
}

void ServerStats::record_queue_delay(double seconds) {
  queue_delay_ms_.add(seconds * 1e3);
}

void ServerStats::record_preemption(bool swapped) {
  record(Stat::preemptions, 1);
  record(swapped ? Stat::preempt_swaps : Stat::preempt_recomputes, 1);
}

void ServerStats::record_request(const RequestResult& result) {
  record(Stat::requests_completed, 1);
  if (result.status == RequestStatus::kCancelled) record(Stat::cancelled, 1);
  if (result.status == RequestStatus::kTimeout) record(Stat::timed_out, 1);
  if (result.status == RequestStatus::kParked) record(Stat::parked, 1);
  if (result.status == RequestStatus::kGrammarDead) {
    record(Stat::grammar_dead, 1);
  }
  if (result.constrained) record(Stat::grammar_requests, 1);
  if (result.embed) record(Stat::embed_requests, 1);
  record(Stat::tokens_generated, result.generated_tokens);
  sum_request_tokens_per_s_ += result.tokens_per_s;
  record(Stat::drafts_proposed, result.drafts_proposed);
  record(Stat::drafts_accepted, result.drafts_accepted);
  if (result.drafts_proposed > 0) {
    record(Stat::spec_steps_saved,
           result.generated_tokens - result.verify_rounds);
  }
}

void ServerStats::record_prefix(std::int64_t tokens_reused,
                                std::int64_t prompt_tokens) {
  MGPT_CHECK(tokens_reused >= 0 && tokens_reused <= prompt_tokens,
             "prefix reuse of " << tokens_reused << " tokens from a "
                                << prompt_tokens << "-token prompt");
  record(tokens_reused > 0 ? Stat::prefix_hits : Stat::prefix_misses, 1);
  record(Stat::prefix_tokens_reused, tokens_reused);
  record(Stat::prefix_prompt_tokens, prompt_tokens);
}

void ServerStats::record_kv(std::size_t active, std::int64_t used_blocks,
                            std::int64_t total_blocks,
                            std::int64_t shared_blocks,
                            std::uint64_t cow_forks, std::uint64_t cow_rows) {
  record(Stat::peak_active, active);
  record(Stat::peak_used_blocks, used_blocks);
  record(Stat::peak_shared_blocks, shared_blocks);
  record(Stat::kv_total_blocks, total_blocks);
  record(Stat::cow_forks, cow_forks);
  record(Stat::cow_rows, cow_rows);
}

void ServerStats::record_tier(const kv_tier::TierStats& tier) {
  record(Stat::kv_tier_host_bytes, tier.host_bytes_used);
  record(Stat::kv_tier_host_budget, tier.host_budget);
  record(Stat::kv_tier_host_entries, tier.host_entries);
  record(Stat::kv_tier_disk_bytes, tier.disk_bytes_used);
  record(Stat::kv_tier_disk_budget, tier.disk_budget);
  record(Stat::kv_tier_disk_entries, tier.disk_entries);
  record(Stat::kv_tier_stores, tier.stores);
  record(Stat::kv_tier_takes, tier.takes);
  record(Stat::kv_tier_host_hits, tier.host_hits);
  record(Stat::kv_tier_disk_hits, tier.disk_hits);
  record(Stat::kv_tier_demotions, tier.demotions);
  record(Stat::kv_tier_disk_evictions, tier.disk_evictions);
  record(Stat::kv_tier_store_refusals, tier.store_refusals);
  record(Stat::kv_tier_spill_failures, tier.spill_failures);
  record(Stat::kv_tier_corrupt_drops, tier.corrupt_drops);
}

void ServerStats::record_session_park(bool kv_stored) {
  record(Stat::session_parks, 1);
  if (!kv_stored) record(Stat::session_park_drops, 1);
}

void ServerStats::record_session_resume(bool kv_restored) {
  record(Stat::session_resumes, 1);
  if (!kv_restored) record(Stat::session_resume_recomputes, 1);
}

void ServerStats::record_sessions(std::size_t live) {
  record(Stat::sessions_live, live);
}

void ServerStats::set_decode_quant(std::string decode_quant) {
  decode_quant_ = std::move(decode_quant);
}

void ServerStats::record_gemm(std::uint64_t f32_calls,
                              std::uint64_t bf16_calls,
                              std::uint64_t int8_calls) {
  record(Stat::gemm_f32_calls, f32_calls);
  record(Stat::gemm_bf16_calls, bf16_calls);
  record(Stat::gemm_int8_calls, int8_calls);
}

void ServerStats::record_grammar_steps(std::int64_t steps,
                                       std::int64_t eos_stops) {
  record(Stat::grammar_masked_tokens, steps);
  record(Stat::grammar_eos_stops, eos_stops);
}

void ServerStats::record_embed_forward(std::int64_t batch,
                                       std::int64_t tokens) {
  record(Stat::embed_forwards, 1);
  embed_batched_seqs_ += static_cast<std::uint64_t>(batch);
  record(Stat::embed_tokens, tokens);
}

std::string ServerStats::report(double wall_s) const {
  std::ostringstream os;
  auto label = [&os](std::string_view text) {
    os << text << ':'
       << std::string(text.size() < 20 ? 20 - text.size() : 1, ' ');
  };
  // Rows of a section are adjacent in the table.
  for (const StatRow* row = std::begin(kRows); row != std::end(kRows);) {
    const StatRow* end = row;
    bool any = false;
    for (; end != std::end(kRows) && end->section == row->section; ++end) {
      any = any || end->value(*this) != 0.0;
    }
    if (any) {
      label(row->section);
      for (const StatRow* r = row; r != end; ++r) {
        os << (r == row ? "" : ", ") << r->name << ' ' << r->value(*this);
      }
      os << '\n';
    }
    row = end;
  }
  if (wall_s > 0.0) {
    label("aggregate tokens/s");
    os << static_cast<double>(tokens_generated()) / wall_s << '\n';
  }
  if (decode_quant_ != "f32") {
    label("deployment");
    os << "decode_quant " << decode_quant_ << '\n';
  }
  auto hist = [&](std::string_view name, const Histogram& h) {
    if (h.total() == 0.0) return;
    label(name);
    os << "p50 " << h.quantile(0.50) << " ms, p95 " << h.quantile(0.95)
       << " ms, p99 " << h.quantile(0.99) << " ms\n";
  };
  hist("ttft", ttft_ms_);
  for (std::size_t c = 0; c < ttft_class_ms_.size(); ++c) {
    // A single populated class repeats the aggregate row; skip it.
    if (ttft_class_ms_[c].total() == ttft_ms_.total()) continue;
    hist(std::string("  ttft[") + priority_name(static_cast<Priority>(c)) +
             "]",
         ttft_class_ms_[c]);
  }
  hist("queue delay", queue_delay_ms_);
  hist("inter-token latency", inter_token_ms_);
  return os.str();
}

std::string ServerStats::to_json(double wall_s) const {
  std::ostringstream os;
  os.precision(17);
  os << "{\n  \"wall_s\": " << wall_s;
  os << ",\n  \"aggregate_tokens_per_s\": "
     << (wall_s > 0.0 ? static_cast<double>(tokens_generated()) / wall_s
                      : 0.0);
  for (const StatRow& row : kRows) {
    os << ",\n  \"" << row.name << "\": " << row.value(*this);
  }
  os << ",\n  \"decode_quant\": \"" << decode_quant_ << "\"";
  auto hist = [&os](const std::string& name, const Histogram& h) {
    os << ",\n  \"" << name << "\": {\"count\": " << h.total();
    if (h.total() > 0.0) {
      os << ", \"p50\": " << h.quantile(0.50) << ", \"p95\": "
         << h.quantile(0.95) << ", \"p99\": " << h.quantile(0.99);
    }
    os << "}";
  };
  hist("ttft_ms", ttft_ms_);
  for (std::size_t c = 0; c < ttft_class_ms_.size(); ++c) {
    hist(std::string("ttft_") + priority_name(static_cast<Priority>(c)) +
             "_ms",
         ttft_class_ms_[c]);
  }
  hist("queue_delay_ms", queue_delay_ms_);
  hist("inter_token_ms", inter_token_ms_);
  os << "\n}";
  return os.str();
}

}  // namespace matgpt::serve
