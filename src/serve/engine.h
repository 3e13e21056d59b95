#pragma once
// Continuous-batching inference engine with pluggable scheduling.
//
// Every request lives as one Sequence record from submission to
// retirement: its tokens, sampling rng, grammar DFA state, latency clocks
// and speculative accounting are set once at submit() and carried as-is.
// The record waits in a bounded admission queue (submit() blocks when it
// is full — backpressure, not a crash; try_submit() refuses instead),
// moves to the decode batch when admitted, and moves back to the queue
// front when preempted; only its KV leases differ between the two places.
// Each scheduler step:
//
//   1. retire staged cancellations, parks and expired deadlines (waiting
//      or active) through the one retirement path; RequestResult::status
//      tells the client what happened;
//   2. admit: while the batch has room, ask the configured sched::Scheduler
//      which waiting sequence to admit next (FCFS keeps arrival order; the
//      priority policy runs aged-class + EDF ordering) and lease KV for its
//      token budget. When the lease fails the scheduler may name an active
//      victim to PREEMPT until the lease fits, set the pick aside and try
//      another (priority bypass), or stop admission (strict FCFS). An
//      admitted sequence restores its KV from, in order: the rows its
//      preemption parked in the tier, its session's parked rows, or the
//      prefix cache; whatever is missing is recomputed by prefill;
//   3. prefill: every sequence not yet fully prefilled feeds up to
//      prefill_chunk_tokens tokens (0 = the whole remainder), all in one
//      ragged forward; a sequence whose prefill completes samples its first
//      token (TTFT);
//   4. decode: one ragged forward across every fully-prefilled sequence —
//      a plain sequence feeds its last token, a speculative one its last
//      token plus the drafts its proposer just guessed (the verify);
//   5. stats: the step's latency samples and occupancy snapshots land in
//      ServerStats under one lock, never one lock per token;
//   6. retire finished sequences: KV back to the pool, future resolved.
//
// Preemption has one path: the victim's KV rows go to the tiered residency
// store (host RAM, demoted to checksummed disk spill files under pressure;
// see serve/kv_tier) and are memcpy-restored on resume. Only when the tier
// refuses the rows, or a spill file went bad, does the resume re-prefill
// them — byte-identical too, since KV rows depend only on (token,
// position). Speculative drafts' caches are simply dropped and
// deterministically re-prefilled by the proposer.
//
// Sessions ride the same store: Request::session_id names a conversation
// whose KV goes cold in the tier at every retirement (park), queued or
// active, and comes back on the next request (resume). Each request's
// tokens equal a standalone batch-1 GptModel::generate_cached run
// regardless of batching, chunking, preemption or parking.
//
// Threading: submit()/try_submit()/cancel()/park() are safe from any
// thread; step()/run_*() must be driven by one scheduler thread. start()
// spawns that thread internally (the HTTP front end's deployment shape);
// drain() then stops admission, finishes everything in flight, and joins
// it — the destructor drains too, so destroying an engine mid-decode cannot
// race the worker.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <unordered_map>

#include "nn/gpt.h"
#include "serve/kv_pool.h"
#include "serve/kv_tier/kv_tier.h"
#include "serve/metrics.h"
#include "serve/prefix_cache.h"
#include "serve/request.h"
#include "serve/sched/scheduler.h"
#include "serve/spec/speculative.h"
#include "tensor/kernels.h"

namespace matgpt::nn {
class BertEncoder;
}

namespace matgpt::serve {

/// Knobs for the two extra workload classes PR 10 opens through the engine
/// (see serve/workloads): grammar-constrained generation and prefill-only
/// batched embeddings. A request is constrained exactly when it carries a
/// Request::grammar TokenDfa.
struct WorkloadsConfig {
  /// Upper bound on a request grammar's compiled DFA state count — a
  /// defense against a hostile/buggy client submitting a grammar whose
  /// per-step legal_mask walk dominates the decode step.
  std::int64_t grammar_max_states = 65536;
  /// BERT encoder backing Request::embed requests (null = embedding class
  /// off). The engine never mutates it; one encoder serves every request.
  std::shared_ptr<const nn::BertEncoder> embedder;
  /// Maximum sequences per batched embedding forward. Same-length requests
  /// group into one BertEncoder::encode call up to this cap.
  std::int64_t max_embed_batch = 8;
  /// Map workload classes onto scheduler priorities when the client left
  /// Request::priority at kNormal: constrained -> kHigh (interactive,
  /// latency-sensitive structured output), embed -> kLow (batch class).
  /// Requires sched::Policy::kPriority — FCFS would ignore the classes and
  /// silently defeat the mapping.
  bool map_classes = false;
};

struct EngineConfig {
  /// Maximum sequences decoded together per step.
  std::int64_t max_batch = 8;
  /// KV arena sizing in full-length sequences: the arena holds this many
  /// worst-case sequences' worth of blocks, but admission is bounded by
  /// block reservations — short requests pack denser, so more than
  /// kv_slots sequences can be in flight.
  std::size_t kv_slots = 8;
  /// Admission queue bound; submit() blocks while the queue is full.
  std::size_t queue_capacity = 64;
  /// Per-request token capacity (0 = model max_seq).
  std::int64_t kv_capacity_tokens = 0;
  /// Block-paged KV is the only store; this must stay true (validate()
  /// rejects false). Kept so configurations that spell it out still build.
  bool paged_kv = true;
  /// Tokens per KV block.
  std::int64_t kv_block_tokens = 16;
  /// Admission/preemption policy (see sched::Policy). kFcfs reproduces the
  /// pre-scheduler engine exactly; kPriority enables class + EDF ordering
  /// with aging and preemption.
  sched::Policy scheduler = sched::Policy::kFcfs;
  /// PriorityScheduler aging quantum: a request's effective class improves
  /// one step per aging window waited, so low-priority work cannot starve.
  /// 0 disables aging. Ignored by FCFS.
  double sched_aging_ms = 500.0;
  /// Prefill chunk size in tokens; 0 = prefill whole prompts in one
  /// forward. Chunked prefill interleaves long-prompt prefills with other
  /// sequences' decode steps and is byte-identical to whole-prompt prefill.
  std::int64_t prefill_chunk_tokens = 0;
  /// Residency hierarchy below the arena (host-RAM tier, disk spill tier)
  /// holding preempted requests' and parked sessions' KV rows. A victim
  /// whose rows the tier refuses is re-prefilled on resume. See
  /// KvTierConfig.
  KvTierConfig kv_tier;
  /// Draft proposer for speculative requests (spec_k > 0). When set, the
  /// engine reserves a second KV pool, `kv_slots` full-length draft caches
  /// sized by the proposer's cache_config(). Null = plain decoding only.
  std::shared_ptr<spec::DraftProposer> proposer;
  /// Prompt prefix-cache byte budget (bf16 KV accounting; see
  /// PrefixCache). 0 disables the cache; a non-zero budget must hold at
  /// least one KV block (the cache shares arena blocks). The engine grows
  /// the arena by the budget's worth of blocks so cache residency never
  /// eats admission headroom. Draft caches never touch the cache — it holds
  /// target-model rows only.
  std::size_t prefix_cache_bytes = 0;
  /// Weight format for decode/verify forwards (kF32 = off). Prefill always
  /// runs fp32, so prefill identities (chunked == whole, prefix-cache hit
  /// == cold) are untouched; decode and speculative verify always run the
  /// quantized weights, so batched == batch-1 == speculative identities
  /// hold WITHIN the format, and so does preemption resume, which restores
  /// the decoded rows from the KV tier. Tokens differ from an fp32 engine
  /// (that is the point). Only a resume whose rows the tier refused — it
  /// re-prefills previously decoded tokens in fp32 — loses bit-identity to
  /// an unpreempted run.
  kernels::WeightFormat decode_quant = kernels::WeightFormat::kF32;
  /// Grammar-constrained decoding + batched embedding workload classes.
  WorkloadsConfig workloads;

  /// Throws (MGPT_CHECK) on unserviceable knobs: max_batch <= 0,
  /// kv_slots == 0, queue_capacity == 0, paged_kv == false,
  /// kv_block_tokens <= 0, prefill_chunk_tokens < 0,
  /// sched_aging_ms < 0, a disk tier without a spill_dir,
  /// workloads.map_classes without the priority scheduler, or non-positive
  /// workloads batch/state bounds. Called by the
  /// engine constructor before any allocation; the prefix-cache
  /// budget-vs-block check lives in the PrefixCache constructor on the same
  /// path.
  void validate() const;
};

class InferenceEngine {
 public:
  InferenceEngine(const nn::GptModel& model, EngineConfig config = {});

  /// Drains (finish in-flight work, join the worker) if start() was called
  /// and drain() was not — destruction during active decode is safe.
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Spawn the background scheduler thread that drives step() (sleeping on
  /// a condition variable when there is no work). Once started, step() /
  /// run_trace() / run_until_idle() must NOT be called from other threads —
  /// the worker owns the scheduler loop. Call at most once.
  void start();

  /// Graceful shutdown: stop admission (submit() throws, try_submit()
  /// refuses), let every queued and active request run to retirement, then
  /// join the worker. Without a worker thread the draining happens on the
  /// calling thread. Idempotent; the engine stays drained afterwards.
  /// Callers wanting a *fast* stop cancel() outstanding ids first — drain
  /// then only finishes the cancellations.
  void drain();

  /// True between start() and the end of drain().
  bool running() const { return worker_running_.load(); }

  /// Enqueue a request; blocks while the admission queue is full. The future
  /// resolves when the request retires (finished, cancelled, or timed out —
  /// see RequestResult::status). Throws if the engine is draining.
  std::future<RequestResult> submit(Request request);

  /// Non-blocking submit: std::nullopt when the admission queue is full or
  /// the engine is draining (load-shedding callers pick their own fallback
  /// instead of blocking). The HTTP front end maps this to 429.
  std::optional<std::future<RequestResult>> try_submit(Request request);

  /// Stage a cancellation for `id`; the next step() retires the request
  /// (waiting or active) with RequestStatus::kCancelled and resolves its
  /// future with whatever tokens it had. Unknown or already-retired ids are
  /// ignored. Safe from any thread.
  void cancel(std::uint64_t id);

  // --- Sessions: durable conversation identity over the KV tier store. ---
  // A session is a token history plus the sampling-rng state needed to
  // continue it byte-identically; its KV rows live in the tier store
  // (host RAM, demoted to disk under memory pressure) between requests and
  // are restored — or recomputed when a tier refused or a spill file went
  // bad — on the next request. All session methods are safe from any
  // thread; at most one request may be in flight per session.

  /// Register a new empty session and return its id (never 0).
  std::uint64_t create_session();
  /// Submit a request on request.session_id (checked non-zero); sugar for
  /// submit() that makes the park()/resume() lifecycle explicit.
  std::future<RequestResult> resume(Request request);
  /// Stage a park for in-flight request `id`: the next step() retires it
  /// with RequestStatus::kParked, storing its session's KV and rng state
  /// cold. Unknown or already-retired ids are ignored; parking a
  /// sessionless request just retires it (there is nowhere to park to).
  void park(std::uint64_t id);
  /// Forget a session: registry entry and any tiered KV are dropped. An
  /// in-flight request on the session finishes normally but no longer
  /// parks. Unknown ids are ignored.
  void drop_session(std::uint64_t session_id);
  bool has_session(std::uint64_t session_id) const;
  /// True while a request on the session is queued or active.
  bool session_busy(std::uint64_t session_id) const;
  std::size_t session_count() const;

  struct SessionInfo {
    std::int64_t tokens = 0;  // history length (prompt + generated)
    std::int64_t turns = 0;   // completed requests on this session
    bool busy = false;
    kv_tier::Residency residency = kv_tier::Residency::kNone;
  };
  std::optional<SessionInfo> session_info(std::uint64_t session_id) const;

  /// One scheduler iteration (cancel/expire -> admit -> chunked prefill ->
  /// batched decode -> retire). Returns the number of sequences that
  /// advanced (0 = nothing waiting or active).
  std::size_t step();

  /// Drive step() until the queue and the active batch are both empty.
  void run_until_idle();

  /// Single-threaded convenience for tests and benches: feed the trace
  /// through the bounded queue (interleaving admission with scheduler steps,
  /// exactly as a saturated server would) and return results in input order.
  std::vector<RequestResult> run_trace(std::vector<Request> requests);

  const ServerStats& stats() const { return stats_; }
  /// Thread-safe stats snapshot as JSON (ServerStats::to_json with uptime
  /// since construction as the wall clock). Unlike stats(), this is safe
  /// while the worker is mid-step: every stats_ mutation and this
  /// serializer share a mutex. The snapshot may interleave with a step in
  /// progress, but each recorded datum is complete and consistent.
  std::string stats_json() const;
  const KvCachePool& kv_pool() const { return pool_; }
  /// Draft-cache pool; null unless the engine was built with a proposer.
  const KvCachePool* draft_pool() const { return draft_pool_.get(); }
  /// Prompt prefix cache; null unless prefix_cache_bytes > 0.
  const PrefixCache* prefix_cache() const { return prefix_cache_.get(); }
  /// The admission/preemption policy the engine was built with.
  const sched::Scheduler& scheduler() const { return *scheduler_; }
  /// The residency hierarchy holding preempted and parked-session KV.
  const kv_tier::KvTierStore& tier() const { return tier_; }
  std::size_t queue_depth() const;
  std::size_t active_count() const { return active_.size(); }
  const EngineConfig& config() const { return config_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// One request's serving state from submission to retirement. It waits
  /// in waiting_ and decodes in active_, moving between the two on
  /// admission and preemption; only its KV leases are empty while it
  /// waits. Everything a byte-identical resume needs — tokens, the
  /// sampling rng, the grammar DFA state, latency clocks, speculative
  /// accounting — lives here once, set at submission and carried as-is.
  struct Sequence {
    Request request;
    std::promise<RequestResult> promise;
    Clock::time_point submitted;
    Clock::time_point deadline = Clock::time_point::max();
    Clock::time_point last_token;
    std::vector<std::int32_t> tokens;  // [session history +] prompt + generated
    Rng rng{0};
    std::int32_t gstate = 0;  // grammar DFA state (constrained requests)
    std::int64_t emitted = 0;
    double ttft_s = 0.0;
    double queue_delay_s = -1.0;  // < 0 until the request reaches the model
    std::int64_t preemptions = 0;
    spec::SpecStats spec;
    /// Continues a parked session: tokens began as history + new prompt and
    /// the first activation restores the session's tier entry.
    bool session_resume = false;
    /// Its preemption parked the KV rows in tier_ (kPreempt, keyed by
    /// request id); the next activation or retirement takes them.
    bool swapped = false;
    KvLease kv;
    KvLease draft_kv;  // speculative requests only
    // Chunked-prefill state, reset at each activation: the KV cache must
    // reach `prefill_target` tokens before the sequence may decode;
    // `sample_first` samples the first token from the final chunk's logits
    // (false when it already emitted — its cache stops at len - 1 and the
    // next decode step feeds tokens.back()).
    std::int64_t prefill_target = 0;
    bool sample_first = true;
    bool prefill_done = false;
    // Terminal before max_new_tokens: a compiled grammar sampled EOS at an
    // accepting state (finish_status stays kOk), the DFA hit a dead state
    // (kGrammarDead), or an embedding finished its forward. retire_finished
    // turns the flag into retirement.
    bool finished = false;
    RequestStatus finish_status = RequestStatus::kOk;
    // Embedding requests: the pooled vector embed_phase produced.
    std::vector<float> embedding;

    /// Never held KV and carries no history: the prefix cache serves it.
    bool fresh() const { return preemptions == 0 && !session_resume; }
  };

  /// Latency samples and grammar steps one step gathers, folded into
  /// stats_ under a single stats_mutex_ acquisition after its decode phase
  /// instead of one per token.
  struct StepStats {
    std::vector<double> queue_delay_s;
    std::vector<std::pair<double, Priority>> ttft_s;
    std::vector<double> inter_token_s;
    std::int64_t grammar_steps = 0;
    std::int64_t grammar_eos_stops = 0;
  };

  /// Always-in-RAM per-session record: the token history and rng state a
  /// resume needs even when the tiered KV was refused, evicted, or went
  /// corrupt (then the resume re-prefills — byte-identical either way,
  /// since KV rows depend only on (token, position)). Guarded by
  /// sessions_mutex_ (HTTP threads create/drop while the worker parks).
  struct SessionState {
    std::vector<std::int32_t> tokens;  // full history: prompts + generated
    Rng rng{0};
    std::int64_t turns = 0;
    bool busy = false;
  };

  /// Validate `request` and build its waiting sequence (a session
  /// request claims the session's in-flight slot here).
  Sequence make_sequence(Request request);
  /// Queue `seq`, blocking for room when `block`; nullopt when the engine
  /// is draining (or, non-blocking, the queue is full).
  std::optional<std::future<RequestResult>> enqueue(Sequence seq, bool block);
  /// Clear a session's busy flag (submission failed after make_sequence
  /// reserved the in-flight slot).
  void release_session_slot(std::uint64_t session_id);
  /// retire()'s session hook: fold the turn's progress (tokens, rng) into
  /// the registry and park its KV — the live lease's rows, or the rows its
  /// preemption left in the tier — under the session. A turn
  /// that never reached the model only frees the session. False when the
  /// session was dropped mid-flight (nothing to park to).
  bool park_to_session(Sequence& seq);
  /// Retire every waiting or active sequence matching `pred` with `status`.
  template <typename Pred>
  void retire_if(Pred pred, RequestStatus status, Clock::time_point now);
  /// Stage `id` for retirement with `status` at the next step (cancel,
  /// park). Safe from any thread.
  void stage_retirement(std::uint64_t id, RequestStatus status);
  /// Retire every staged id, waiting or active, in staging order.
  void retire_staged(Clock::time_point now);
  static sched::QueueItem queue_item(const Sequence& seq);
  std::size_t admit(Clock::time_point now);
  bool try_activate(Sequence seq, Clock::time_point now);
  /// Preempt active_[idx]: offer its KV rows to the tier, release its
  /// leases, and push it to the queue FRONT so FCFS snapshots keep it ahead
  /// of younger arrivals.
  void preempt(std::size_t idx);
  /// The first time `seq` reaches the model: its queue delay is known.
  void note_reached_model(Sequence& seq, Clock::time_point now);
  /// Feed the next prefill chunk of every sequence in `seqs` through one
  /// ragged forward; a sequence whose prefill completes samples its first
  /// token.
  void prefill(std::span<Sequence* const> seqs, Clock::time_point now);
  void prefill_phase(Clock::time_point now);
  /// Run every ready embedding sequence through the BERT encoder, batching
  /// same-(length, reduce) groups up to workloads.max_embed_batch per
  /// forward. Returns the number of sequences embedded.
  std::size_t embed_phase(Clock::time_point now);
  std::size_t decode_phase();
  /// Fold step_stats_ and the step's tier, session, KV and GEMM-call
  /// snapshots into stats_.
  void flush_step_stats();
  void retire_finished();
  /// One row's draw: the token (nullopt = the grammar hit a dead state;
  /// seq.finished/finish_status are set and the caller must not advance
  /// the sequence) and the grammar step it adds to step_stats_.
  struct Draw {
    std::optional<std::int32_t> token;
    bool grammar_step = false;
    bool grammar_eos_stop = false;
  };
  /// Sample the next token for `seq` from `logits` row `row`, masking to
  /// the grammar's legal set when the request is constrained (all-ones
  /// masks are byte-identical to the unmasked path). Touches only `seq`
  /// (rng, grammar state, finished) and per-thread scratch, so the rows of
  /// one step may draw on different threads at once.
  Draw sample_row(const Var& logits, std::int64_t row, Sequence& seq) const;
  /// Fold `draw`'s grammar step into step_stats_ and return its token.
  std::optional<std::int32_t> count_draw(const Draw& draw);
  /// The one retirement path, for waiting and active sequences alike:
  /// session hook, KV release, stats, on_finish, then the future.
  void retire(Sequence& seq, RequestStatus status, Clock::time_point now);

  const nn::GptModel& model_;
  EngineConfig config_;
  KvCachePool pool_;
  std::unique_ptr<KvCachePool> draft_pool_;
  std::unique_ptr<PrefixCache> prefix_cache_;
  std::unique_ptr<spec::SpeculativeDecoder> spec_decoder_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  kv_tier::KvTierStore tier_;
  ServerStats stats_;

  std::unordered_map<std::uint64_t, SessionState> sessions_;
  std::uint64_t next_session_id_ = 1;  // guarded by sessions_mutex_
  // Ordered strictly after queue_mutex_/stats_mutex_ when nested (never
  // held while calling into the tier store or request callbacks).
  mutable std::mutex sessions_mutex_;

  void worker_loop();

  std::deque<Sequence> waiting_;
  // Retirements staged by cancel() / park(), guarded by queue_mutex_.
  std::vector<std::pair<std::uint64_t, RequestStatus>> staged_;
  bool draining_ = false;  // guarded by queue_mutex_
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  // Wakes the worker when work arrives (submit/cancel/drain) while it is
  // parked on an empty queue + empty batch.
  std::condition_variable worker_cv_;
  std::thread worker_;
  std::atomic<bool> worker_running_{false};

  // Guards stats_ against stats_json(), its only cross-thread reader.
  // Taken narrowly around individual stats_ mutations — NEVER across the
  // request callbacks (on_token/on_finish), which may block on a bounded
  // completion queue whose consumer thread itself calls stats_json();
  // holding the lock there deadlocks the whole server under token bursts.
  mutable std::mutex stats_mutex_;
  Clock::time_point started_at_ = Clock::now();

  StepStats step_stats_;

  std::vector<Sequence> active_;
};

}  // namespace matgpt::serve
