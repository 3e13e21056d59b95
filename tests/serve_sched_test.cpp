// Unit + integration tests for src/serve/sched: priority/EDF/aging admission
// policy, preempt-resume byte-identity (tier restore and the recompute
// fallback; plain, speculative and int8 decode), chunked prefill
// equivalence, cancellation/deadline retirement, try_submit load-shedding,
// and the KvTierStore host budget.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "common/error.h"
#include "nn/gpt.h"
#include "serve/engine.h"
#include "serve/sched/fcfs.h"
#include "serve/sched/priority.h"
#include "serve/kv_tier/kv_tier.h"
#include "serve/spec/proposer.h"
#include "serve/trace.h"

namespace matgpt {
namespace {

using serve::sched::ActiveItem;
using serve::sched::Clock;
using serve::sched::QueueItem;
using SchedPolicy = serve::sched::Policy;
using serve::sched::kNone;
using kernels::WeightFormat;

nn::GptConfig sched_config() {
  nn::GptConfig c;
  c.arch = nn::ArchFamily::kLLaMA;
  c.vocab_size = 50;
  c.hidden = 16;
  c.n_layers = 2;
  c.n_heads = 2;
  c.n_kv_heads = 1;
  c.max_seq = 64;
  return c;
}

QueueItem queue_item(std::uint64_t id, serve::Priority cls,
                     Clock::time_point submitted,
                     Clock::time_point deadline = Clock::time_point::max()) {
  QueueItem item;
  item.id = id;
  item.priority = cls;
  item.submitted = submitted;
  item.deadline = deadline;
  return item;
}

ActiveItem active_item(std::uint64_t id, serve::Priority cls,
                       Clock::time_point submitted, std::int64_t emitted) {
  ActiveItem item;
  item.id = id;
  item.priority = cls;
  item.submitted = submitted;
  item.emitted = emitted;
  return item;
}

// ---------------------------------------------------------------------------
// PriorityScheduler policy logic (pure, fabricated timestamps)
// ---------------------------------------------------------------------------

TEST(PrioritySched, EffectiveClassAgesTowardZeroAndClamps) {
  serve::sched::PriorityScheduler sched(100.0);
  const auto t0 = Clock::now();
  const QueueItem low = queue_item(1, serve::Priority::kLow, t0);
  EXPECT_EQ(sched.effective_class(low, t0), 2);
  EXPECT_EQ(sched.effective_class(low, t0 + std::chrono::milliseconds(150)),
            1);
  EXPECT_EQ(sched.effective_class(low, t0 + std::chrono::milliseconds(250)),
            0);
  EXPECT_EQ(sched.effective_class(low, t0 + std::chrono::seconds(100)), 0);

  serve::sched::PriorityScheduler no_aging(0.0);
  EXPECT_EQ(
      no_aging.effective_class(low, t0 + std::chrono::seconds(100)), 2);
}

TEST(PrioritySched, PickNextOrdersByClassBeforeDeadline) {
  serve::sched::PriorityScheduler sched(0.0);
  const auto t0 = Clock::now();
  // A normal-class request with an urgent deadline still loses to a
  // high-class one whose deadline is later: class is the primary key.
  const std::vector<QueueItem> waiting{
      queue_item(0, serve::Priority::kNormal, t0,
                 t0 + std::chrono::milliseconds(5)),
      queue_item(1, serve::Priority::kHigh, t0,
                 t0 + std::chrono::milliseconds(500)),
  };
  EXPECT_EQ(sched.pick_next(waiting, t0), 1u);
}

TEST(PrioritySched, PickNextRunsEdfWithinAClass) {
  serve::sched::PriorityScheduler sched(0.0);
  const auto t0 = Clock::now();
  const std::vector<QueueItem> waiting{
      queue_item(0, serve::Priority::kHigh, t0,
                 t0 + std::chrono::milliseconds(300)),
      queue_item(1, serve::Priority::kHigh, t0,
                 t0 + std::chrono::milliseconds(100)),
      queue_item(2, serve::Priority::kHigh, t0,
                 t0 + std::chrono::milliseconds(200)),
  };
  EXPECT_EQ(sched.pick_next(waiting, t0), 1u);
}

TEST(PrioritySched, DeadlinelessRequestsCarryTheImpliedDeadline) {
  serve::sched::PriorityScheduler sched(0.0);
  const auto t0 = Clock::now();
  // A deadline tighter than the implied offset beats a deadline-less peer;
  // one looser than the implied offset loses to it. Deadline-less requests
  // therefore order FIFO among themselves instead of starving behind every
  // deadline-carrying arrival.
  const auto implied =
      std::chrono::milliseconds(static_cast<std::int64_t>(
          serve::sched::kImpliedDeadlineMs));
  const std::vector<QueueItem> tight{
      queue_item(0, serve::Priority::kNormal, t0),
      queue_item(1, serve::Priority::kNormal, t0, t0 + implied / 2),
  };
  EXPECT_EQ(sched.pick_next(tight, t0), 1u);
  const std::vector<QueueItem> loose{
      queue_item(0, serve::Priority::kNormal, t0),
      queue_item(1, serve::Priority::kNormal, t0, t0 + implied * 2),
  };
  EXPECT_EQ(sched.pick_next(loose, t0), 0u);
}

TEST(PrioritySched, AgedLowBeatsFreshHighPreventingStarvation) {
  serve::sched::PriorityScheduler sched(100.0);
  const auto t0 = Clock::now();
  const auto now = t0 + std::chrono::milliseconds(300);
  // The low-class request waited 3 aging quanta -> effective class 0; the
  // fresh high is also class 0, but the aged request's implied deadline
  // (submit + 1000 ms) is 300 ms earlier, so it wins the EDF tie-break.
  const std::vector<QueueItem> waiting{
      queue_item(7, serve::Priority::kHigh, now),
      queue_item(3, serve::Priority::kLow, t0),
  };
  EXPECT_EQ(sched.pick_next(waiting, now), 1u);
}

TEST(PrioritySched, PickVictimTakesStrictlyLowerClassYoungestFirst) {
  serve::sched::PriorityScheduler sched(0.0);
  const auto t0 = Clock::now();
  const std::vector<ActiveItem> active{
      active_item(0, serve::Priority::kHigh, t0, 4),
      active_item(1, serve::Priority::kLow, t0, 8),
      active_item(2, serve::Priority::kLow, t0 + std::chrono::seconds(1), 2),
      active_item(3, serve::Priority::kNormal, t0, 1),
  };
  const auto now = t0 + std::chrono::seconds(2);
  // Incoming high: worst class first (low), youngest submission within it.
  EXPECT_EQ(sched.pick_victim(
                active, queue_item(9, serve::Priority::kHigh, now), now),
            2u);
  // Incoming normal may only evict the lows — never a normal peer.
  EXPECT_EQ(sched.pick_victim(
                active, queue_item(9, serve::Priority::kNormal, now), now),
            2u);
  // Incoming low has no strictly-lower class to take from.
  EXPECT_EQ(sched.pick_victim(
                active, queue_item(9, serve::Priority::kLow, now), now),
            kNone);
}

TEST(FcfsSched, HeadOfLineNoVictimsNoBypass) {
  serve::sched::FcfsScheduler sched;
  const auto t0 = Clock::now();
  const std::vector<QueueItem> waiting{
      queue_item(5, serve::Priority::kLow, t0),
      queue_item(6, serve::Priority::kHigh, t0),
  };
  EXPECT_EQ(sched.pick_next(waiting, t0), 0u);  // arrival order, not class
  EXPECT_EQ(sched.pick_next({}, t0), kNone);
  const std::vector<ActiveItem> active{
      active_item(0, serve::Priority::kLow, t0, 1)};
  EXPECT_EQ(
      sched.pick_victim(active, queue_item(9, serve::Priority::kHigh, t0),
                        t0),
      kNone);
  EXPECT_FALSE(sched.allows_bypass());
}

// ---------------------------------------------------------------------------
// KvTierStore host tier (the former SwapArena budget semantics)
// ---------------------------------------------------------------------------

TEST(KvTierHostBudget, BudgetAccountingAndRefusal) {
  using serve::kv_tier::KvTierStore;
  using serve::kv_tier::Space;
  serve::KvTierConfig tc;
  tc.host_tier_bytes = 100;  // no disk tier: over-budget stores refuse
  KvTierStore store(tc);

  KvTierStore::Entry big;
  big.data.assign(30, 1.0f);  // 120 bytes: over budget
  big.tokens = 3;
  EXPECT_FALSE(store.store(Space::kPreempt, 1, std::move(big)));
  EXPECT_EQ(store.stats().host_bytes_used, 0u);

  KvTierStore::Entry fits;
  fits.data.assign(20, 2.0f);  // 80 bytes
  fits.tokens = 2;
  ASSERT_TRUE(store.store(Space::kPreempt, 1, std::move(fits)));
  EXPECT_EQ(store.stats().host_bytes_used, 80u);
  EXPECT_TRUE(store.contains(Space::kPreempt, 1));

  KvTierStore::Entry second;
  second.data.assign(8, 3.0f);  // 32 bytes: 80 + 32 > 100
  second.tokens = 1;
  EXPECT_FALSE(store.store(Space::kPreempt, 2, std::move(second)));

  const auto entry = store.take(Space::kPreempt, 1);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->tokens, 2);
  EXPECT_EQ(entry->data.size(), 20u);
  EXPECT_EQ(store.stats().host_bytes_used, 0u);
  EXPECT_EQ(store.stats().host_entries, 0u);
  EXPECT_EQ(store.stats().peak_host_bytes, 80u);
  EXPECT_EQ(store.stats().stores, 1u);
  EXPECT_FALSE(store.take(Space::kPreempt, 1).has_value());

  KvTierStore::Entry third;
  third.data.assign(4, 4.0f);
  third.tokens = 1;
  ASSERT_TRUE(store.store(Space::kPreempt, 3, std::move(third)));
  store.drop(Space::kPreempt, 3);
  EXPECT_FALSE(store.contains(Space::kPreempt, 3));
  EXPECT_EQ(store.stats().host_bytes_used, 0u);
}

// ---------------------------------------------------------------------------
// EngineConfig validation + try_submit
// ---------------------------------------------------------------------------

TEST(ServeSchedEngine, ValidateRejectsBadSchedulingKnobs) {
  nn::GptModel model(sched_config());
  {
    serve::EngineConfig ec;
    ec.prefill_chunk_tokens = -1;
    EXPECT_THROW(serve::InferenceEngine(model, ec), Error);
  }
  {
    serve::EngineConfig ec;
    ec.sched_aging_ms = -0.5;
    EXPECT_THROW(serve::InferenceEngine(model, ec), Error);
  }
}

TEST(ServeSchedEngine, TrySubmitShedsLoadWhenQueueIsFull) {
  nn::GptModel model(sched_config());
  serve::EngineConfig ec;
  ec.max_batch = 2;
  ec.kv_slots = 2;
  ec.queue_capacity = 2;
  serve::InferenceEngine engine(model, ec);

  auto make = [](std::uint64_t id) {
    serve::Request req;
    req.id = id;
    req.prompt = {1, 2, 3};
    req.max_new_tokens = 4;
    return req;
  };
  auto f0 = engine.try_submit(make(0));
  auto f1 = engine.try_submit(make(1));
  ASSERT_TRUE(f0.has_value());
  ASSERT_TRUE(f1.has_value());
  auto f2 = engine.try_submit(make(2));
  EXPECT_FALSE(f2.has_value());  // queue full: shed, don't block

  engine.run_until_idle();
  EXPECT_EQ(f0->get().status, serve::RequestStatus::kOk);
  EXPECT_EQ(f1->get().status, serve::RequestStatus::kOk);

  auto f3 = engine.try_submit(make(3));  // space again after the drain
  ASSERT_TRUE(f3.has_value());
  engine.run_until_idle();
  EXPECT_EQ(f3->get().status, serve::RequestStatus::kOk);
}

// ---------------------------------------------------------------------------
// Preempt-resume byte-identity
// ---------------------------------------------------------------------------

enum class Flavor { kGreedy, kStochastic, kSpeculative };

serve::Request sched_request(std::uint64_t id, serve::Priority cls,
                             std::int64_t prompt_len,
                             std::int64_t max_new, Flavor flavor) {
  serve::Request req;
  req.id = id;
  req.priority = cls;
  for (std::int64_t t = 0; t < prompt_len; ++t) {
    req.prompt.push_back(static_cast<std::int32_t>((id * 7 + t * 3) % 50));
  }
  req.max_new_tokens = max_new;
  if (flavor == Flavor::kGreedy) {
    req.sampling.temperature = 0.0f;
  } else {
    req.sampling.temperature = 0.8f;
    req.sampling.top_k = 20;
    req.sampling.top_p = 0.9f;
  }
  req.sampling.seed = 0xabc0 + id;
  if (flavor == Flavor::kSpeculative) req.spec_k = 2;
  return req;
}

// Drive: admit two low-priority sequences, then submit two high-priority
// ones whose KV demand cannot fit without evicting the lows. Returns the
// results by request id.
std::map<std::uint64_t, serve::RequestResult> run_pressure_scenario(
    serve::InferenceEngine& engine, Flavor flavor, std::int64_t low_prompt) {
  // Keep each low's token budget at 40 (5 of the arena's 12 blocks) no
  // matter how the prompt/decode mix is split, so two lows always leave too
  // little room for a high-class arrival.
  const std::int64_t low_new = 40 - low_prompt;
  std::vector<std::future<serve::RequestResult>> futures;
  futures.push_back(engine.submit(
      sched_request(0, serve::Priority::kLow, low_prompt, low_new, flavor)));
  futures.push_back(engine.submit(
      sched_request(1, serve::Priority::kLow, low_prompt, low_new, flavor)));
  engine.step();  // lows are admitted and hold most of the arena
  futures.push_back(engine.submit(
      sched_request(2, serve::Priority::kHigh, 8, 24, flavor)));
  futures.push_back(engine.submit(
      sched_request(3, serve::Priority::kHigh, 8, 24, flavor)));
  engine.run_until_idle();
  std::map<std::uint64_t, serve::RequestResult> results;
  for (auto& f : futures) {
    serve::RequestResult r = f.get();
    results.emplace(r.id, std::move(r));
  }
  return results;
}

// How a preemption victim's KV rows come back: restored from the KV tier,
// or re-prefilled because the tier refuses them (a 64-byte host tier and
// no disk tier hold no entry).
enum class Resume { kSwap, kRecompute };

const char* resume_name(Resume r) {
  return r == Resume::kSwap ? "swap" : "recompute";
}

void check_preempt_resume_byte_identity(
    Resume mode, Flavor flavor, std::int64_t prefill_chunk,
    std::int64_t low_prompt,
    WeightFormat decode_quant = WeightFormat::kF32,
    const nn::GptConfig& config = sched_config()) {
  nn::GptModel model(config);

  serve::EngineConfig tight;
  tight.max_batch = 4;
  tight.kv_slots = 2;  // 12-block arena: two lows almost fill it
  tight.kv_capacity_tokens = 48;
  tight.kv_block_tokens = 8;
  tight.queue_capacity = 16;
  tight.scheduler = SchedPolicy::kPriority;
  if (mode == Resume::kRecompute) tight.kv_tier.host_tier_bytes = 64;
  tight.prefill_chunk_tokens = prefill_chunk;
  tight.decode_quant = decode_quant;
  if (flavor == Flavor::kSpeculative) {
    tight.proposer = std::make_shared<serve::spec::LayerSkipDraft>(model, 1);
  }
  serve::EngineConfig roomy = tight;
  roomy.kv_slots = 8;  // never under pressure -> never preempts
  roomy.prefill_chunk_tokens = 0;

  serve::InferenceEngine pressured(model, tight);
  serve::InferenceEngine reference(model, roomy);

  const auto got = run_pressure_scenario(pressured, flavor, low_prompt);
  const auto want = run_pressure_scenario(reference, flavor, low_prompt);

  // The scenario must actually preempt, or the test proves nothing.
  EXPECT_GE(pressured.stats().preemptions(), 1u) << resume_name(mode);
  EXPECT_EQ(reference.stats().preemptions(), 0u);
  std::int64_t low_preemptions = 0;
  for (const auto& [id, result] : got) {
    EXPECT_EQ(result.status, serve::RequestStatus::kOk) << "request " << id;
    if (result.priority == serve::Priority::kLow) {
      low_preemptions += result.preemptions;
    }
    ASSERT_TRUE(want.count(id));
    EXPECT_EQ(result.tokens, want.at(id).tokens)
        << "request " << id << " diverged after preempt-resume ("
        << resume_name(mode) << ")";
    EXPECT_EQ(result.generated_tokens, want.at(id).generated_tokens);
  }
  EXPECT_GE(low_preemptions, 1);
  if (mode == Resume::kSwap) {
    EXPECT_EQ(pressured.stats().preempt_recomputes(), 0u);
    EXPECT_GE(pressured.tier().stats().stores, 1u);
    EXPECT_EQ(pressured.tier().stats().host_entries, 0u);  // all taken back
    EXPECT_EQ(pressured.tier().stats().host_bytes_used, 0u);
  } else {
    EXPECT_GE(pressured.stats().preempt_recomputes(), 1u);
    EXPECT_EQ(pressured.stats().preempt_swaps(), 0u);
  }
  EXPECT_TRUE(pressured.kv_pool().all_free());
}

TEST(ServeSchedEngine, PreemptRecomputeResumesByteIdentical) {
  check_preempt_resume_byte_identity(Resume::kRecompute,
                                     Flavor::kGreedy, 0, 8);
  check_preempt_resume_byte_identity(Resume::kRecompute,
                                     Flavor::kStochastic, 0, 8);
}

TEST(ServeSchedEngine, PreemptSwapResumesByteIdentical) {
  check_preempt_resume_byte_identity(Resume::kSwap, Flavor::kGreedy, 0,
                                     8);
  check_preempt_resume_byte_identity(Resume::kSwap,
                                     Flavor::kStochastic, 0, 8);
}

TEST(ServeSchedEngine, SpeculativeRequestsSurvivePreemptionByteIdentical) {
  check_preempt_resume_byte_identity(Resume::kRecompute,
                                     Flavor::kSpeculative, 0, 8);
  check_preempt_resume_byte_identity(Resume::kSwap,
                                     Flavor::kSpeculative, 0, 8);
}

TEST(ServeSchedEngine, PreemptDuringChunkedPrefillResumesByteIdentical) {
  // Long low-priority prompts with a small chunk are still mid-prefill when
  // the high-priority burst lands, so the victims carry zero emitted tokens
  // and partially-filled caches across the preemption.
  check_preempt_resume_byte_identity(Resume::kRecompute,
                                     Flavor::kGreedy, 4, 24);
  check_preempt_resume_byte_identity(Resume::kSwap, Flavor::kGreedy, 4,
                                     24);
}

TEST(ServeSchedEngine, QuantizedPreemptResumesByteIdentical) {
  // Decode writes int8-path KV rows; the tier hands those exact rows back,
  // so the resumed requests match an unpreempted int8 run. A re-prefill
  // recomputes them on the fp32 prefill path instead: on this wider model
  // that moves a stochastic request's tokens.
  nn::GptConfig c = sched_config();
  c.vocab_size = 512;
  c.hidden = 64;
  c.n_heads = 4;
  c.n_kv_heads = 2;
  check_preempt_resume_byte_identity(Resume::kSwap, Flavor::kGreedy, 0, 8,
                                     WeightFormat::kInt8, c);
  check_preempt_resume_byte_identity(Resume::kSwap, Flavor::kStochastic, 0,
                                     8, WeightFormat::kInt8, c);
}

TEST(ServeSchedEngine, SwapBudgetExhaustionFallsBackToRecompute) {
  nn::GptModel model(sched_config());
  serve::EngineConfig ec;
  ec.max_batch = 4;
  ec.kv_slots = 2;
  ec.kv_capacity_tokens = 48;
  ec.kv_block_tokens = 8;
  ec.scheduler = SchedPolicy::kPriority;
  ec.kv_tier.host_tier_bytes = 8;  // nothing fits: swaps degrade gracefully
  serve::InferenceEngine engine(model, ec);

  const auto got = run_pressure_scenario(engine, Flavor::kGreedy, 8);
  EXPECT_GE(engine.stats().preempt_recomputes(), 1u);
  EXPECT_EQ(engine.stats().preempt_swaps(), 0u);
  for (const auto& [id, result] : got) {
    EXPECT_EQ(result.status, serve::RequestStatus::kOk) << "request " << id;
  }
  EXPECT_TRUE(engine.kv_pool().all_free());
}

// ---------------------------------------------------------------------------
// EDF ordering and aging under load
// ---------------------------------------------------------------------------

TEST(ServeSchedEngine, EdfOrdersSameClassAdmissionsByDeadline) {
  nn::GptModel model(sched_config());
  serve::EngineConfig ec;
  ec.max_batch = 1;  // sequential admissions expose the ordering
  ec.kv_slots = 4;
  ec.scheduler = SchedPolicy::kPriority;
  ec.sched_aging_ms = 0.0;
  serve::InferenceEngine engine(model, ec);

  auto make = [](std::uint64_t id, double deadline_ms) {
    serve::Request req;
    req.id = id;
    req.prompt = {3, 1, 4, 1};
    req.max_new_tokens = 8;
    req.deadline_ms = deadline_ms;
    return req;
  };
  auto f0 = engine.submit(make(0, 30000.0));
  auto f1 = engine.submit(make(1, 10000.0));
  auto f2 = engine.submit(make(2, 20000.0));
  engine.run_until_idle();
  const auto r0 = f0.get(), r1 = f1.get(), r2 = f2.get();
  ASSERT_EQ(r0.status, serve::RequestStatus::kOk);
  // Queue delay measures when each request first reached the model: the
  // earliest deadline goes first regardless of submission order.
  EXPECT_LT(r1.queue_delay_s, r2.queue_delay_s);
  EXPECT_LT(r2.queue_delay_s, r0.queue_delay_s);
}

TEST(ServeSchedEngine, AgingRescuesLowPriorityFromHighClassFlood) {
  nn::GptModel model(sched_config());
  auto run = [&model](double aging_ms) {
    serve::EngineConfig ec;
    ec.max_batch = 1;
    ec.kv_slots = 4;
    ec.scheduler = SchedPolicy::kPriority;
    ec.sched_aging_ms = aging_ms;
    serve::InferenceEngine engine(model, ec);

    auto make = [](std::uint64_t id, serve::Priority cls) {
      serve::Request req;
      req.id = id;
      req.prompt = {2, 7, 1, 8};
      req.max_new_tokens = 24;
      req.priority = cls;
      req.sampling.seed = id;
      return req;
    };
    std::vector<std::future<serve::RequestResult>> highs;
    auto occupier = engine.submit(make(100, serve::Priority::kNormal));
    auto low = engine.submit(make(101, serve::Priority::kLow));
    for (std::uint64_t i = 0; i < 12; ++i) {
      highs.push_back(engine.submit(make(i, serve::Priority::kHigh)));
    }
    engine.run_until_idle();
    occupier.get();
    double worst_high = 0.0;
    for (auto& f : highs) {
      worst_high = std::max(worst_high, f.get().queue_delay_s);
    }
    return std::make_pair(low.get().queue_delay_s, worst_high);
  };

  // Without aging the low-class request starves behind every high: class
  // order is strict, so this holds no matter how fast the flood drains.
  const auto [starved_low, starved_worst_high] = run(0.0);
  EXPECT_GT(starved_low, starved_worst_high);
  // A 50 us aging quantum promotes it two classes while the occupier is
  // still decoding; once at the top class its implied deadline (it was
  // submitted before every high) wins the EDF tie-break, so it overtakes
  // most of the flood.
  const auto [aged_low, aged_worst_high] = run(0.05);
  EXPECT_LT(aged_low, aged_worst_high);
}

// ---------------------------------------------------------------------------
// Cancellation and deadline retirement
// ---------------------------------------------------------------------------

TEST(ServeSchedEngine, CancelRetiresQueuedAndActiveRequests) {
  nn::GptModel model(sched_config());
  serve::EngineConfig ec;
  ec.max_batch = 1;
  ec.kv_slots = 2;
  serve::InferenceEngine engine(model, ec);

  serve::Request running;
  running.id = 1;
  running.prompt = {4, 5, 6};
  running.max_new_tokens = 32;
  auto active = engine.submit(running);
  engine.step();  // request 1 is decoding
  ASSERT_EQ(engine.active_count(), 1u);

  serve::Request queued;
  queued.id = 2;
  queued.prompt = {7, 8};
  queued.max_new_tokens = 8;
  auto waiting = engine.submit(queued);

  engine.cancel(2);
  engine.cancel(1);
  engine.cancel(999);  // unknown ids are ignored
  engine.run_until_idle();

  const auto ra = active.get();
  EXPECT_EQ(ra.status, serve::RequestStatus::kCancelled);
  EXPECT_GE(ra.generated_tokens, 1);  // partial progress is returned
  EXPECT_LT(ra.generated_tokens, 32);
  EXPECT_EQ(ra.tokens.size(),
            running.prompt.size() +
                static_cast<std::size_t>(ra.generated_tokens));

  const auto rq = waiting.get();
  EXPECT_EQ(rq.status, serve::RequestStatus::kCancelled);
  EXPECT_EQ(rq.generated_tokens, 0);
  EXPECT_EQ(rq.tokens, queued.prompt);
  EXPECT_LT(rq.queue_delay_s, 0.0);  // never reached the model

  EXPECT_EQ(engine.stats().cancelled(), 2u);
  EXPECT_TRUE(engine.kv_pool().all_free());
}

TEST(ServeSchedEngine, DeadlineExpiryTimesOutQueuedAndActiveRequests) {
  nn::GptModel model(sched_config());
  serve::EngineConfig ec;
  ec.max_batch = 1;
  ec.kv_slots = 2;
  serve::InferenceEngine engine(model, ec);

  serve::Request runner;
  runner.id = 1;
  runner.prompt = {1, 2, 3, 4};
  runner.max_new_tokens = 40;
  runner.deadline_ms = 25.0;
  auto active = engine.submit(runner);
  engine.step();  // admitted; a step emits at most a couple of tokens

  serve::Request queued;
  queued.id = 2;
  queued.prompt = {5, 6};
  queued.max_new_tokens = 4;
  queued.deadline_ms = 1.0;
  auto waiting = engine.submit(queued);

  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  engine.run_until_idle();

  const auto ra = active.get();
  EXPECT_EQ(ra.status, serve::RequestStatus::kTimeout);
  EXPECT_GE(ra.generated_tokens, 1);
  EXPECT_LT(ra.generated_tokens, 40);

  const auto rq = waiting.get();
  EXPECT_EQ(rq.status, serve::RequestStatus::kTimeout);
  EXPECT_EQ(rq.generated_tokens, 0);

  EXPECT_EQ(engine.stats().timed_out(), 2u);
  EXPECT_TRUE(engine.kv_pool().all_free());
}

// ---------------------------------------------------------------------------
// Chunked prefill
// ---------------------------------------------------------------------------

TEST(ServeSchedEngine, ChunkedPrefillTokensMatchWholePrefill) {
  nn::GptModel model(sched_config());
  serve::TraceSpec spec;
  spec.n_requests = 12;
  spec.vocab_size = 50;
  spec.prompt_len_min = 3;
  spec.prompt_len_max = 8;
  spec.max_new_min = 2;
  spec.max_new_max = 8;
  spec.long_prompt_fraction = 0.5;  // chunked-prefill stressor
  spec.long_prompt_len = 40;

  serve::EngineConfig whole;
  whole.max_batch = 3;
  whole.kv_slots = 3;
  serve::EngineConfig chunked = whole;
  chunked.prefill_chunk_tokens = 7;  // deliberately not a block multiple

  serve::InferenceEngine a(model, whole), b(model, chunked);
  const auto ra = a.run_trace(serve::synth_trace(spec));
  const auto rb = b.run_trace(serve::synth_trace(spec));
  ASSERT_EQ(ra.size(), rb.size());
  bool saw_long = false;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].tokens, rb[i].tokens) << "request " << i;
    saw_long = saw_long ||
               ra[i].tokens.size() >= 40;  // trace really produced long ones
  }
  EXPECT_TRUE(saw_long);
  EXPECT_TRUE(b.kv_pool().all_free());
}

// ---------------------------------------------------------------------------
// Trace decoration compatibility
// ---------------------------------------------------------------------------

TEST(ServeSchedTrace, SchedulingKnobsZeroedReproducesBaseTrace) {
  serve::TraceSpec base;
  base.n_requests = 8;
  base.vocab_size = 50;
  serve::TraceSpec decorated = base;
  decorated.high_fraction = 0.3;
  decorated.low_fraction = 0.3;
  decorated.high_deadline_ms = 50.0;
  decorated.long_prompt_fraction = 0.25;
  decorated.long_prompt_len = 30;

  const auto plain = serve::synth_trace(base);
  const auto tagged = serve::synth_trace(decorated);
  ASSERT_EQ(plain.size(), tagged.size());
  bool classes = false, lengthened = false;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    // The decoration streams never disturb the base draws: sampling seeds
    // and the original prompt prefix are bit-identical.
    EXPECT_EQ(plain[i].sampling.seed, tagged[i].sampling.seed);
    EXPECT_EQ(plain[i].max_new_tokens, tagged[i].max_new_tokens);
    ASSERT_GE(tagged[i].prompt.size(), plain[i].prompt.size());
    EXPECT_TRUE(std::equal(plain[i].prompt.begin(), plain[i].prompt.end(),
                           tagged[i].prompt.begin()));
    classes = classes || tagged[i].priority != serve::Priority::kNormal;
    lengthened = lengthened || tagged[i].prompt.size() > plain[i].prompt.size();
    if (tagged[i].priority == serve::Priority::kHigh) {
      EXPECT_EQ(tagged[i].deadline_ms, 50.0);
    }
  }
  EXPECT_TRUE(classes);
  EXPECT_TRUE(lengthened);
}

}  // namespace
}  // namespace matgpt
