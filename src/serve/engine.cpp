#include "serve/engine.h"

#include <algorithm>
#include <iterator>
#include <span>
#include <utility>

#include "common/error.h"
#include "nn/bert.h"
#include "nn/sampling.h"
#include "parallel/thread_pool.h"
#include "serve/workloads/embed.h"
#include "serve/workloads/grammar.h"
#include "tensor/ops.h"

namespace matgpt::serve {

namespace {
double secs(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// Validates before the member-init list runs, so a bad config throws its
// own message instead of whatever the KV pool's constructor says first.
EngineConfig validated(EngineConfig config) {
  config.validate();
  return config;
}
}  // namespace

void EngineConfig::validate() const {
  MGPT_CHECK(max_batch > 0, "EngineConfig: max_batch must be positive (got "
                                << max_batch << ")");
  MGPT_CHECK(kv_slots != 0, "EngineConfig: kv_slots must be non-zero");
  MGPT_CHECK(queue_capacity != 0,
             "EngineConfig: queue_capacity must be non-zero");
  MGPT_CHECK(paged_kv,
             "EngineConfig: block-paged KV is the only store; paged_kv must "
             "stay true");
  MGPT_CHECK(kv_block_tokens > 0,
             "EngineConfig: kv_block_tokens must be positive (got "
                 << kv_block_tokens << ")");
  MGPT_CHECK(prefill_chunk_tokens >= 0,
             "EngineConfig: prefill_chunk_tokens must be >= 0 (got "
                 << prefill_chunk_tokens << "); 0 means whole-prompt prefill");
  MGPT_CHECK(sched_aging_ms >= 0.0,
             "EngineConfig: sched_aging_ms must be >= 0 (got "
                 << sched_aging_ms << "); 0 disables aging");
  MGPT_CHECK(kv_tier.disk_tier_bytes == 0 || !kv_tier.spill_dir.empty(),
             "EngineConfig: kv_tier.disk_tier_bytes > 0 requires a "
             "spill_dir for the spill files");
  MGPT_CHECK(workloads.max_embed_batch >= 1,
             "EngineConfig: workloads.max_embed_batch must be >= 1 (got "
                 << workloads.max_embed_batch << ")");
  MGPT_CHECK(workloads.grammar_max_states >= 1,
             "EngineConfig: workloads.grammar_max_states must be >= 1 (got "
                 << workloads.grammar_max_states << ")");
  MGPT_CHECK(!workloads.map_classes || scheduler == sched::Policy::kPriority,
             "EngineConfig: workloads.map_classes maps workload classes onto "
             "scheduler priorities; it requires scheduler == kPriority (FCFS "
             "would silently ignore the mapping)");
}

namespace {

// Pool sizing for the engine: the prefix cache's residency budget becomes
// extra arena blocks, so cached prefixes never eat admission headroom.
KvPoolConfig pool_config(const nn::GptConfig& model,
                         const EngineConfig& config) {
  KvPoolConfig pool;
  pool.slots = config.kv_slots;
  pool.capacity_tokens = config.kv_capacity_tokens;
  pool.block_tokens = config.kv_block_tokens;
  if (config.prefix_cache_bytes > 0) {
    nn::PagedKvLayout layout;
    layout.block_tokens = config.kv_block_tokens;
    layout.n_layers = model.n_layers;
    layout.kv_heads = model.kv_heads();
    layout.head_dim = model.head_dim();
    const double bb = layout.block_bytes_bf16();
    pool.extra_blocks = static_cast<std::int64_t>(
        (static_cast<double>(config.prefix_cache_bytes) + bb - 1.0) / bb);
  }
  return pool;
}

// Gather a cache's rows into the tier-store layout ([layer][K rows][V
// rows]) through the block-table gather.
kv_tier::KvTierStore::Entry gather_kv(const nn::KvCache& cache) {
  kv_tier::KvTierStore::Entry entry;
  entry.tokens = cache.length();
  cache.swap_out(entry.data);
  return entry;
}

// Inverse of gather_kv into a fresh (empty) lease. Pure memcpy — the rows
// are the exact bytes the forward pass wrote, so the resumed sequence is
// indistinguishable from one that was never preempted.
void restore_kv(nn::KvCache& cache, const kv_tier::KvTierStore::Entry& entry) {
  MGPT_CHECK(cache.length() == 0, "swap restore needs an empty lease");
  cache.swap_in(std::span<const float>(entry.data), entry.tokens);
}

}  // namespace

InferenceEngine::InferenceEngine(const nn::GptModel& model,
                                 EngineConfig config)
    : model_(model),
      config_(validated(std::move(config))),
      pool_(model.config(), pool_config(model.config(), config_)),
      scheduler_(
          sched::make_scheduler(config_.scheduler, config_.sched_aging_ms)),
      tier_(config_.kv_tier) {
  if (config_.prefix_cache_bytes > 0) {
    // Throws here if the budget cannot hold even one KV block.
    prefix_cache_ = std::make_unique<PrefixCache>(
        model_.config(), config_.prefix_cache_bytes, &pool_);
  }
  if (config_.proposer != nullptr) {
    const nn::GptConfig& dc = config_.proposer->cache_config();
    MGPT_CHECK(dc.max_seq >= pool_.capacity_tokens(),
               "draft proposer max_seq " << dc.max_seq
                                         << " cannot cover KV lease cap "
                                         << pool_.capacity_tokens());
    KvPoolConfig draft_cfg;
    draft_cfg.slots = config_.kv_slots;
    draft_cfg.capacity_tokens = pool_.capacity_tokens();
    draft_cfg.block_tokens = config_.kv_block_tokens;
    draft_pool_ = std::make_unique<KvCachePool>(dc, draft_cfg);
    spec_decoder_ =
        std::make_unique<spec::SpeculativeDecoder>(model_, config_.proposer);
  }
  // Pack the model's weights in place (once) and install (or with kF32:
  // drop) its quantized decode sidecars. Always called so a model
  // previously served quantized comes back clean.
  model_.prepare_decode_quant(config_.decode_quant);
  if (config_.decode_quant != kernels::WeightFormat::kF32) {
    std::lock_guard lock(stats_mutex_);
    stats_.set_decode_quant(kernels::format_name(config_.decode_quant));
  }
}

InferenceEngine::~InferenceEngine() {
  // A worker mid-decode must be joined before members destruct; drain()
  // also resolves every outstanding promise so no future is left broken.
  if (worker_.joinable()) drain();
}

void InferenceEngine::start() {
  MGPT_CHECK(!worker_.joinable(), "engine worker already started");
  {
    std::lock_guard lock(queue_mutex_);
    MGPT_CHECK(!draining_, "start on a drained engine");
  }
  worker_running_.store(true);
  worker_ = std::thread([this] { worker_loop(); });
}

void InferenceEngine::drain() {
  {
    std::lock_guard lock(queue_mutex_);
    draining_ = true;
  }
  // Wake the worker (to observe draining_) and any submitters blocked on a
  // full queue (to throw instead of waiting forever).
  worker_cv_.notify_all();
  queue_cv_.notify_all();
  if (worker_.joinable()) {
    worker_.join();
  } else {
    run_until_idle();
  }
  worker_running_.store(false);
}

void InferenceEngine::worker_loop() {
  for (;;) {
    if (step() > 0) continue;
    // Nothing active and nothing admitted: park until work (or drain)
    // arrives. Producers notify under queue_mutex_, so no lost wakeups.
    std::unique_lock lock(queue_mutex_);
    if (draining_ && waiting_.empty() && staged_.empty() && active_.empty()) {
      return;
    }
    worker_cv_.wait(lock, [this] {
      return draining_ || !waiting_.empty() || !staged_.empty();
    });
  }
}

std::string InferenceEngine::stats_json() const {
  std::lock_guard lock(stats_mutex_);
  return stats_.to_json(secs(Clock::now() - started_at_));
}

InferenceEngine::Sequence InferenceEngine::make_sequence(Request request) {
  const bool session = request.session_id != 0;
  MGPT_CHECK(session || !request.prompt.empty(),
             "request requires a non-empty prompt");
  MGPT_CHECK(request.embed || request.max_new_tokens > 0,
             "request must generate at least one token");
  request.sampling.validate();
  MGPT_CHECK(request.spec_k >= 0, "spec_k must be non-negative");
  MGPT_CHECK(request.spec_k == 0 || spec_decoder_ != nullptr,
             "speculative request (spec_k " << request.spec_k
                                            << ") needs an engine built "
                                               "with a draft proposer");
  MGPT_CHECK(request.deadline_ms >= 0.0,
             "deadline_ms must be >= 0 (got " << request.deadline_ms << ")");
  if (request.grammar != nullptr) {
    MGPT_CHECK(!request.embed,
               "a request cannot be both grammar-constrained and embed");
    MGPT_CHECK(request.spec_k == 0,
               "grammar-constrained requests cannot be speculative (draft "
               "proposals are sampled unmasked)");
    MGPT_CHECK(!session,
               "grammar-constrained requests cannot ride a session (the DFA "
               "state is per-utterance, not per-conversation)");
    MGPT_CHECK(request.grammar->vocab_size() == model_.config().vocab_size,
               "request grammar was compiled for vocab "
                   << request.grammar->vocab_size() << "; the model's is "
                   << model_.config().vocab_size);
    MGPT_CHECK(request.grammar->n_states() <=
                   config_.workloads.grammar_max_states,
               "request grammar has " << request.grammar->n_states()
                                      << " DFA states; workloads."
                                         "grammar_max_states caps it at "
                                      << config_.workloads.grammar_max_states);
  }
  if (request.embed) {
    const nn::BertEncoder* enc = config_.workloads.embedder.get();
    MGPT_CHECK(enc != nullptr,
               "embedding request needs an engine with "
               "EngineConfig::workloads.embedder set");
    MGPT_CHECK(!session,
               "embedding requests cannot ride a session (there is no KV "
               "history to park)");
    MGPT_CHECK(request.spec_k == 0,
               "embedding requests are prefill-only; spec_k must be 0");
    MGPT_CHECK(static_cast<std::int64_t>(request.prompt.size()) <=
                   enc->config().max_seq,
               "embedding input of " << request.prompt.size()
                                     << " tokens exceeds the encoder's "
                                        "max_seq "
                                     << enc->config().max_seq);
    for (const std::int32_t t : request.prompt) {
      MGPT_CHECK(t >= 0 && t < enc->config().vocab_size,
                 "embedding input token " << t
                                          << " outside the encoder vocab ["
                                          << 0 << ", "
                                          << enc->config().vocab_size << ")");
    }
  }
  // Workload-class scheduling: constrained requests are interactive
  // (structured output gates a caller), embeddings are batch work. Only a
  // request that left priority at the default is mapped — an explicit
  // client choice always wins.
  if (config_.workloads.map_classes && request.priority == Priority::kNormal) {
    if (request.embed) {
      request.priority = Priority::kLow;
    } else if (request.grammar != nullptr) {
      request.priority = Priority::kHigh;
    }
  }
  // Embeddings generate nothing: their KV budget is the prompt alone.
  const std::int64_t gen_budget = request.embed ? 0 : request.max_new_tokens;
  auto check_budget = [this](std::int64_t budget) {
    MGPT_CHECK(budget <= model_.config().max_seq,
               "request needs " << budget << " tokens; model max_seq is "
                                << model_.config().max_seq);
    MGPT_CHECK(budget <= pool_.capacity_tokens(),
               "request needs " << budget << " tokens; a KV lease holds "
                                << pool_.capacity_tokens());
  };
  Sequence seq;
  if (session) {
    // Validate against the session's history, then claim its one
    // in-flight slot. Every check precedes the busy flip so a rejected
    // request cannot wedge the session.
    std::lock_guard lock(sessions_mutex_);
    auto it = sessions_.find(request.session_id);
    MGPT_CHECK(it != sessions_.end(),
               "unknown session " << request.session_id);
    SessionState& state = it->second;
    MGPT_CHECK(!state.busy, "session " << request.session_id
                                       << " already has a request in "
                                          "flight");
    MGPT_CHECK(!state.tokens.empty() || !request.prompt.empty(),
               "a session's first request requires a non-empty prompt");
    check_budget(static_cast<std::int64_t>(state.tokens.size()) +
                 static_cast<std::int64_t>(request.prompt.size()) +
                 gen_budget);
    if (!state.tokens.empty()) {
      // Resume: the working token vector is history + new prompt, and the
      // rng stream continues exactly where the last turn left it.
      seq.session_resume = true;
      seq.tokens = state.tokens;
      seq.rng = state.rng;
    }
    state.busy = true;
  } else {
    check_budget(static_cast<std::int64_t>(request.prompt.size()) +
                 gen_budget);
  }
  if (!seq.session_resume) seq.rng = request.sampling.make_rng();
  seq.tokens.insert(seq.tokens.end(), request.prompt.begin(),
                    request.prompt.end());
  if (request.grammar != nullptr) seq.gstate = request.grammar->start();
  seq.request = std::move(request);
  seq.submitted = Clock::now();  // client-observed latency includes
                                 // queue backpressure
  if (seq.request.deadline_ms > 0.0) {
    seq.deadline = seq.submitted +
                   std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(
                           seq.request.deadline_ms));
  }
  return seq;
}

std::future<RequestResult> InferenceEngine::submit(Request request) {
  std::optional<std::future<RequestResult>> future =
      enqueue(make_sequence(std::move(request)), /*block=*/true);
  MGPT_CHECK(future.has_value(), "submit on a draining engine");
  return std::move(*future);
}

std::optional<std::future<RequestResult>> InferenceEngine::try_submit(
    Request request) {
  return enqueue(make_sequence(std::move(request)), /*block=*/false);
}

std::optional<std::future<RequestResult>> InferenceEngine::enqueue(
    Sequence seq, bool block) {
  auto future = seq.promise.get_future();
  const std::uint64_t sid = seq.request.session_id;
  {
    std::unique_lock lock(queue_mutex_);
    if (block) {
      queue_cv_.wait(lock, [this] {
        return draining_ || waiting_.size() < config_.queue_capacity;
      });
    }
    if (draining_ || waiting_.size() >= config_.queue_capacity) {
      lock.unlock();
      if (sid != 0) release_session_slot(sid);
      return std::nullopt;
    }
    waiting_.push_back(std::move(seq));
  }
  worker_cv_.notify_one();
  return future;
}

std::uint64_t InferenceEngine::create_session() {
  std::lock_guard lock(sessions_mutex_);
  const std::uint64_t id = next_session_id_++;
  sessions_.emplace(id, SessionState{});
  return id;
}

std::future<RequestResult> InferenceEngine::resume(Request request) {
  MGPT_CHECK(request.session_id != 0,
             "resume requires a non-zero session_id");
  return submit(std::move(request));
}

void InferenceEngine::park(std::uint64_t id) {
  stage_retirement(id, RequestStatus::kParked);
}

void InferenceEngine::drop_session(std::uint64_t session_id) {
  {
    std::lock_guard lock(sessions_mutex_);
    sessions_.erase(session_id);
  }
  tier_.drop(kv_tier::Space::kSession, session_id);
}

bool InferenceEngine::has_session(std::uint64_t session_id) const {
  std::lock_guard lock(sessions_mutex_);
  return sessions_.count(session_id) != 0;
}

bool InferenceEngine::session_busy(std::uint64_t session_id) const {
  std::lock_guard lock(sessions_mutex_);
  auto it = sessions_.find(session_id);
  return it != sessions_.end() && it->second.busy;
}

std::size_t InferenceEngine::session_count() const {
  std::lock_guard lock(sessions_mutex_);
  return sessions_.size();
}

std::optional<InferenceEngine::SessionInfo> InferenceEngine::session_info(
    std::uint64_t session_id) const {
  SessionInfo info;
  {
    std::lock_guard lock(sessions_mutex_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) return std::nullopt;
    info.tokens = static_cast<std::int64_t>(it->second.tokens.size());
    info.turns = it->second.turns;
    info.busy = it->second.busy;
  }
  info.residency = tier_.residency(kv_tier::Space::kSession, session_id);
  return info;
}

void InferenceEngine::release_session_slot(std::uint64_t session_id) {
  std::lock_guard lock(sessions_mutex_);
  auto it = sessions_.find(session_id);
  if (it != sessions_.end()) it->second.busy = false;
}

void InferenceEngine::cancel(std::uint64_t id) {
  stage_retirement(id, RequestStatus::kCancelled);
}

void InferenceEngine::stage_retirement(std::uint64_t id,
                                       RequestStatus status) {
  {
    std::lock_guard lock(queue_mutex_);
    staged_.emplace_back(id, status);
  }
  worker_cv_.notify_one();
}

std::size_t InferenceEngine::queue_depth() const {
  std::lock_guard lock(queue_mutex_);
  return waiting_.size();
}

template <typename Pred>
void InferenceEngine::retire_if(Pred pred, RequestStatus status,
                                Clock::time_point now) {
  auto keep = [&pred](const Sequence& seq) { return !pred(seq); };
  std::vector<Sequence> queued;
  {
    std::lock_guard lock(queue_mutex_);
    const auto first =
        std::stable_partition(waiting_.begin(), waiting_.end(), keep);
    std::move(first, waiting_.end(), std::back_inserter(queued));
    waiting_.erase(first, waiting_.end());
  }
  for (Sequence& seq : queued) {
    retire(seq, status, now);
    queue_cv_.notify_one();  // queue space freed; unblock one submitter
  }
  const auto done =
      std::stable_partition(active_.begin(), active_.end(), keep);
  for (auto it = done; it != active_.end(); ++it) retire(*it, status, now);
  active_.erase(done, active_.end());
}

void InferenceEngine::retire_staged(Clock::time_point now) {
  // Cancellations and parks share the one retirement path; a park's
  // kParked status is just a status — retire()'s session hook stores the
  // KV cold at every retirement (a sessionless id just retires). Unknown
  // or already-retired ids match nothing.
  std::vector<std::pair<std::uint64_t, RequestStatus>> staged;
  {
    std::lock_guard lock(queue_mutex_);
    staged.swap(staged_);
  }
  for (const auto& [id, status] : staged) {
    retire_if([id](const Sequence& seq) { return seq.request.id == id; },
              status, now);
  }
}

sched::QueueItem InferenceEngine::queue_item(const Sequence& seq) {
  sched::QueueItem item;
  item.id = seq.request.id;
  item.priority = seq.request.priority;
  item.submitted = seq.submitted;
  item.deadline = seq.deadline;
  item.resuming = seq.preemptions > 0;
  return item;
}

std::size_t InferenceEngine::admit(Clock::time_point now) {
  std::size_t activated = 0;
  // Requests that could not get memory this step (priority bypass): left in
  // the queue but hidden from pick_next so admission cannot spin on them.
  std::vector<std::uint64_t> deferred;
  while (static_cast<std::int64_t>(active_.size()) < config_.max_batch) {
    std::optional<Sequence> pick;
    {
      std::lock_guard lock(queue_mutex_);
      std::vector<sched::QueueItem> items;
      std::vector<std::size_t> index;  // items[i] -> waiting_ position
      items.reserve(waiting_.size());
      index.reserve(waiting_.size());
      for (std::size_t i = 0; i < waiting_.size(); ++i) {
        const Sequence& seq = waiting_[i];
        if (std::find(deferred.begin(), deferred.end(), seq.request.id) !=
            deferred.end()) {
          continue;
        }
        items.push_back(queue_item(seq));
        index.push_back(i);
      }
      const std::size_t chosen = scheduler_->pick_next(items, now);
      if (chosen != sched::kNone) {
        const std::size_t pos = index[chosen];
        pick = std::move(waiting_[pos]);
        waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(pos));
      }
    }
    if (!pick.has_value()) break;
    const std::uint64_t id = pick->request.id;
    if (try_activate(std::move(*pick), now)) {
      queue_cv_.notify_one();  // queue space freed; unblock one submitter
      activated += 1;
      continue;
    }
    // try_activate pushed the request back to the queue front.
    if (!scheduler_->allows_bypass()) break;
    deferred.push_back(id);
  }
  return activated;
}

bool InferenceEngine::try_activate(Sequence seq, Clock::time_point now) {
  const Request& req = seq.request;
  const std::span<const std::int32_t> prompt(req.prompt);
  const auto prompt_len = static_cast<std::int64_t>(prompt.size());
  // Lease budget: the full working set — [history +] prompt + max_new,
  // which tokens minus already-emitted reconstructs. Embeddings are
  // prefill-only: they lease the prompt's worth of KV (so the class shares
  // admission pressure and accounting) but generate nothing.
  const std::int64_t budget =
      static_cast<std::int64_t>(seq.tokens.size()) - seq.emitted +
      (req.embed ? 0 : req.max_new_tokens);

  // Match before leasing so the lease can discount the blocks an aliased
  // prefix supplies for free. The match is capped at prompt_len - 1 so at
  // least one token flows through the model — the first sample needs the
  // last position's logits. The pins also shield the matched path from the
  // eviction fallback below. Resumed sequences skip the cache: their rows
  // come back by tier restore or re-prefill, and hit-rate stats stay a
  // fresh-admission signal. Embeddings skip it outright: it holds
  // GPT-computed KV rows an embedding forward never reads.
  const bool use_prefix =
      seq.fresh() && !req.embed && prefix_cache_ != nullptr;
  PrefixCache::Match m;
  if (use_prefix) m = prefix_cache_->match(prompt, prompt_len - 1);
  const std::int64_t reused = m.tokens;

  const sched::QueueItem incoming = queue_item(seq);

  auto lease_target = [&]() -> KvLease {
    KvLease lease = pool_.try_lease(budget, reused);
    if (!lease && prefix_cache_ != nullptr &&
        prefix_cache_->evict_for_blocks(
            pool_.blocks_needed(budget, reused))) {
      // Arena exhausted: cold cached prefixes were traded for headroom.
      lease = pool_.try_lease(budget, reused);
    }
    return lease;
  };
  auto acquire = [&]() -> bool {
    if (!seq.kv) seq.kv = lease_target();
    if (!seq.kv) return false;
    if (req.spec_k == 0) return true;
    if (!seq.draft_kv) seq.draft_kv = draft_pool_->try_lease(budget);
    return static_cast<bool>(seq.draft_kv);
  };

  // Preemption loop: while memory is short, ask the policy to name an
  // active victim (it sees the post-preemption active set each round).
  bool acquired = acquire();
  while (!acquired) {
    std::vector<sched::ActiveItem> items;
    items.reserve(active_.size());
    for (const Sequence& other : active_) {
      sched::ActiveItem item;
      item.id = other.request.id;
      item.priority = other.request.priority;
      item.submitted = other.submitted;
      item.emitted = other.emitted;
      items.push_back(item);
    }
    const std::size_t victim = scheduler_->pick_victim(items, incoming, now);
    if (victim == sched::kNone) break;
    preempt(victim);
    acquired = acquire();
  }
  if (!acquired) {
    if (use_prefix) prefix_cache_->unpin(m);
    seq.kv.release();
    seq.draft_kv.release();
    std::lock_guard lock(queue_mutex_);
    waiting_.push_front(std::move(seq));
    return false;
  }

  // Prefill target: a sequence that never sampled needs the whole prompt
  // resident and then samples from the last position's logits; one that
  // already emitted resumes with its cache at len - 1, exactly where a
  // never-preempted sequence's cache sits between decode steps.
  const auto len = static_cast<std::int64_t>(seq.tokens.size());
  seq.sample_first = seq.emitted == 0;
  seq.prefill_target = seq.sample_first ? len : len - 1;
  if (req.embed) {
    // Prefill-only class: the BERT forward happens in embed_phase; the GPT
    // prefill/decode machinery never touches this sequence (its leased KV
    // stays empty — the lease exists for admission accounting).
    seq.sample_first = false;
    seq.prefill_target = 0;
  }

  if (use_prefix) {
    // Prefix cache: alias the matched blocks into the lease's table (zero
    // copy). Unpin before the prefill phase so our own pins never block
    // edge splits. Aliased rows ARE the rows a cold prefill would compute,
    // so the chunked prefill (and every later decode) sees exactly the
    // cold-path cache state.
    if (reused > 0) prefix_cache_->restore(m, *seq.kv);
    prefix_cache_->unpin(m);
    std::lock_guard lock(stats_mutex_);
    stats_.record_prefix(reused, prompt_len);
  } else if (seq.swapped || (seq.session_resume && seq.preemptions == 0)) {
    // Pull the parked rows out of the tier: the ones this sequence's
    // preemption parked, else — on a session resume's first activation —
    // the session's. A host hit, a disk read, or — when the tier refused
    // the rows or the spill file went corrupt — nothing, and the prefill
    // below recomputes them: byte-identical, because KV rows depend only
    // on (token, position). Equality with the prefill target is the
    // mid-decode park + empty-prompt resume case: the cache already sits
    // exactly where decode expects it and prefill is skipped.
    const bool session = !seq.swapped;
    std::optional<kv_tier::KvTierStore::Entry> entry =
        session ? tier_.take(kv_tier::Space::kSession, req.session_id)
                : tier_.take(kv_tier::Space::kPreempt, req.id);
    const bool restored = entry.has_value() && entry->tokens > 0 &&
                          entry->tokens <= seq.prefill_target;
    if (restored) restore_kv(*seq.kv, *entry);
    seq.swapped = false;
    if (session) {
      std::lock_guard lock(stats_mutex_);
      stats_.record_session_resume(restored);
    }
  }
  seq.prefill_done = seq.kv->length() == seq.prefill_target;
  // First prefill chunk happens at admission (with chunking disabled this
  // is the whole prompt), so a prompt admitted-and-prefilled here is
  // already in the prefix cache when a sibling admitted later in the same
  // step looks it up — the pre-scheduler admission behaviour.
  if (!seq.prefill_done) {
    Sequence* one = &seq;
    prefill(std::span<Sequence* const>(&one, 1), now);
  }
  active_.push_back(std::move(seq));
  return true;
}

void InferenceEngine::note_reached_model(Sequence& seq,
                                         Clock::time_point now) {
  if (seq.queue_delay_s >= 0.0) return;
  // Submission to first model work: pure scheduling delay.
  seq.queue_delay_s = secs(now - seq.submitted);
  step_stats_.queue_delay_s.push_back(seq.queue_delay_s);
}

void InferenceEngine::prefill(std::span<Sequence* const> seqs,
                              Clock::time_point now) {
  nn::RaggedBatch batch;  // kPrefill, one logits row per sequence
  for (Sequence* seq : seqs) {
    note_reached_model(*seq, now);
    const std::int64_t cur = seq->kv->length();
    const std::int64_t want = seq->prefill_target - cur;
    MGPT_CHECK(want > 0, "prefill step on a fully-prefilled sequence");
    const std::int64_t chunk =
        config_.prefill_chunk_tokens > 0
            ? std::min(want, config_.prefill_chunk_tokens)
            : want;
    batch.add(std::span<const std::int32_t>(seq->tokens)
                  .subspan(static_cast<std::size_t>(cur),
                           static_cast<std::size_t>(chunk)),
              *seq->kv);
  }
  Tape tape;
  Var logits = model_.forward(tape, batch);
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    Sequence& seq = *seqs[i];
    if (seq.kv->length() < seq.prefill_target) continue;  // more chunks later
    seq.prefill_done = true;
    if (!seq.sample_first) continue;  // resume: decode feeds tokens.back()
    if (seq.fresh() && prefix_cache_ != nullptr) {
      // The lease now holds the full prompt's rows; cache the uncached
      // tail. Session resumes skip the insert: their cache covers history
      // the request's prompt field doesn't spell out.
      prefix_cache_->insert(
          seq.request.prompt,
          static_cast<std::int64_t>(seq.request.prompt.size()), *seq.kv);
    }
    const auto t = Clock::now();
    const std::optional<std::int32_t> first =
        count_draw(sample_row(logits, static_cast<std::int64_t>(i), seq));
    if (!first.has_value()) continue;  // dead grammar state: retires below
    seq.tokens.push_back(*first);
    seq.emitted = 1;
    seq.ttft_s = secs(t - seq.submitted);
    step_stats_.ttft_s.emplace_back(seq.ttft_s, seq.request.priority);
    seq.last_token = t;
    if (seq.request.on_token) seq.request.on_token(seq.tokens.back());
  }
}

void InferenceEngine::preempt(std::size_t idx) {
  Sequence seq = std::move(active_[idx]);
  active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(idx));
  // `submitted` stays the original arrival: aging and EDF keep measuring
  // real waiting time.
  seq.preemptions += 1;
  // Park the rows in the tier (host RAM, spilling to disk under pressure);
  // rows the tier refuses are re-prefilled on resume.
  seq.swapped = seq.kv->length() > 0 &&
                tier_.store(kv_tier::Space::kPreempt, seq.request.id,
                            gather_kv(*seq.kv));
  seq.kv.release();
  seq.draft_kv.release();  // the proposer re-prefills deterministically
  {
    std::lock_guard lock(stats_mutex_);
    stats_.record_preemption(seq.swapped);
  }
  std::lock_guard lock(queue_mutex_);
  waiting_.push_front(std::move(seq));
}

void InferenceEngine::prefill_phase(Clock::time_point now) {
  std::vector<Sequence*> chunks;
  for (Sequence& seq : active_) {
    if (!seq.prefill_done) chunks.push_back(&seq);
  }
  if (!chunks.empty()) prefill(chunks, now);
}

InferenceEngine::Draw InferenceEngine::sample_row(const Var& logits,
                                                  std::int64_t row,
                                                  Sequence& seq) const {
  const std::int64_t v = model_.config().vocab_size;
  const std::span<const float> row_logits(logits.value().data() + row * v,
                                          static_cast<std::size_t>(v));
  const workloads::TokenDfa* dfa = seq.request.grammar.get();
  if (dfa == nullptr) {
    return {nn::sample_token(row_logits, seq.request.sampling, seq.rng)};
  }
  // Per thread, reused across constrained steps instead of a per-token
  // vocab-sized allocation.
  thread_local std::vector<std::uint8_t> mask;
  thread_local std::vector<float> masked_logits;
  mask.resize(static_cast<std::size_t>(v));
  const std::int64_t legal = dfa->legal_mask(seq.gstate, mask);
  if (legal == 0) {
    // Dead state: no token and no EOS can extend the utterance. Fail the
    // request deterministically instead of hanging or sampling illegally.
    seq.finished = true;
    seq.finish_status = RequestStatus::kGrammarDead;
    return {};
  }
  Draw draw{nn::sample_token_masked(row_logits, mask, seq.request.sampling,
                                    seq.rng, masked_logits),
            /*grammar_step=*/true};
  const std::int32_t token = *draw.token;
  if (dfa->halt_on_eos() && token == dfa->eos() && dfa->eos_legal(seq.gstate)) {
    // EOS at an accepting state: the utterance is complete. The token is
    // still emitted (clients see the stop) but the sequence retires.
    seq.finished = true;
    draw.grammar_eos_stop = true;
  } else {
    const std::int32_t next = dfa->next(seq.gstate, token);
    MGPT_ASSERT(next >= 0);  // masked sampling can only pick legal tokens
    seq.gstate = next;
  }
  return draw;
}

std::optional<std::int32_t> InferenceEngine::count_draw(const Draw& draw) {
  step_stats_.grammar_steps += draw.grammar_step ? 1 : 0;
  step_stats_.grammar_eos_stops += draw.grammar_eos_stop ? 1 : 0;
  return draw.token;
}

bool InferenceEngine::park_to_session(Sequence& seq) {
  const std::uint64_t sid = seq.request.session_id;
  // A turn progressed once it reached the model: it holds a lease, or held
  // one before a preemption re-queued it. One that never did leaves the
  // history untouched — its prompt was never consumed; the client
  // resubmits it.
  const bool progressed = static_cast<bool>(seq.kv) || seq.preemptions > 0;
  bool live = false;
  {
    std::lock_guard lock(sessions_mutex_);
    auto it = sessions_.find(sid);
    if (it != sessions_.end()) {
      if (progressed) {
        // The registry copy of tokens + rng is what guarantees resume even
        // if the KV store below refuses or loses the bytes.
        it->second.tokens = seq.tokens;
        it->second.rng = seq.rng;
        it->second.turns += 1;
      }
      it->second.busy = false;
      live = true;
    }
  }
  if (!live) return false;  // session dropped mid-flight
  if (!progressed) return true;
  // The conversation's KV: the lease's rows, or the rows its preemption
  // parked under the request id, migrated to the session slot.
  std::optional<kv_tier::KvTierStore::Entry> entry;
  if (seq.swapped) {
    entry = tier_.take(kv_tier::Space::kPreempt, seq.request.id);
  } else if (seq.kv && seq.kv->length() > 0) {
    entry = gather_kv(*seq.kv);
  }
  const bool stored =
      entry.has_value() &&
      tier_.store(kv_tier::Space::kSession, sid, std::move(*entry));
  std::lock_guard lock(stats_mutex_);
  stats_.record_session_park(stored);
  return true;
}

void InferenceEngine::retire(Sequence& seq, RequestStatus status,
                             Clock::time_point now) {
  // Sessions park at EVERY retirement (ok/cancelled/timeout/parked), queued
  // or active: the conversation outlives the request, so its KV goes cold
  // instead of being discarded with the lease.
  const bool parked =
      seq.request.session_id != 0 && park_to_session(seq);
  if (seq.swapped && !parked) {
    tier_.drop(kv_tier::Space::kPreempt, seq.request.id);
  }
  RequestResult result;
  result.id = seq.request.id;
  result.status = status;
  result.priority = seq.request.priority;
  result.generated_tokens = seq.emitted;
  result.tokens = std::move(seq.tokens);
  result.ttft_s = seq.ttft_s;
  result.queue_delay_s = seq.queue_delay_s;
  result.total_s = secs(now - seq.submitted);
  result.tokens_per_s =
      result.total_s > 0.0
          ? static_cast<double>(result.generated_tokens) / result.total_s
          : 0.0;
  result.preemptions = seq.preemptions;
  result.embed = seq.request.embed;
  result.constrained = seq.request.grammar != nullptr;
  result.embedding = std::move(seq.embedding);
  result.drafts_proposed = seq.spec.drafts_proposed;
  result.drafts_accepted = seq.spec.drafts_accepted;
  // The prefill forward counts as a verify round so steps-saved compares
  // like with like against a plain request's forward count.
  result.verify_rounds =
      seq.spec.drafts_proposed > 0 ? seq.spec.verify_rounds + 1 : 0;
  seq.kv.release();        // no-op for a queued sequence
  seq.draft_kv.release();  // and for plain requests
  {
    std::lock_guard lock(stats_mutex_);
    stats_.record_request(result);
  }
  if (seq.request.on_finish) seq.request.on_finish(result);
  seq.promise.set_value(std::move(result));
}

std::size_t InferenceEngine::embed_phase(Clock::time_point now) {
  const nn::BertEncoder* enc = config_.workloads.embedder.get();
  if (enc == nullptr) return 0;
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const Sequence& seq = active_[i];
    if (seq.request.embed && !seq.finished) ready.push_back(i);
  }
  if (ready.empty()) return 0;
  // One encode forward handles one [batch, seq] rectangle of a single
  // reduce mode, so group by (length, reduce); stable sort keeps admission
  // order within a group. Groups cap at max_embed_batch per forward.
  std::stable_sort(ready.begin(), ready.end(),
                   [&](std::size_t a, std::size_t b) {
                     const Sequence& sa = active_[a];
                     const Sequence& sb = active_[b];
                     if (sa.tokens.size() != sb.tokens.size()) {
                       return sa.tokens.size() < sb.tokens.size();
                     }
                     return sa.request.embed_reduce < sb.request.embed_reduce;
                   });
  std::size_t g = 0;
  while (g < ready.size()) {
    std::size_t end = g + 1;
    while (end < ready.size() &&
           static_cast<std::int64_t>(end - g) <
               config_.workloads.max_embed_batch &&
           active_[ready[end]].tokens.size() ==
               active_[ready[g]].tokens.size() &&
           active_[ready[end]].request.embed_reduce ==
               active_[ready[g]].request.embed_reduce) {
      ++end;
    }
    std::vector<std::vector<std::int32_t>> group;
    group.reserve(end - g);
    for (std::size_t j = g; j < end; ++j) {
      Sequence& seq = active_[ready[j]];
      note_reached_model(seq, now);
      group.push_back(seq.tokens);
    }
    std::vector<std::vector<float>> vectors = workloads::embed_batch(
        *enc, group, active_[ready[g]].request.embed_reduce);
    const auto t = Clock::now();
    std::int64_t group_tokens = 0;
    for (std::size_t j = g; j < end; ++j) {
      Sequence& seq = active_[ready[j]];
      seq.embedding = std::move(vectors[j - g]);
      seq.finished = true;  // finish_status stays kOk
      // TTFT for an embedding is submit-to-vector: the latency the class
      // gate measures against generation requests' first token.
      seq.ttft_s = secs(t - seq.submitted);
      seq.last_token = t;
      group_tokens += static_cast<std::int64_t>(seq.tokens.size());
      step_stats_.ttft_s.emplace_back(seq.ttft_s, seq.request.priority);
    }
    {
      std::lock_guard lock(stats_mutex_);
      stats_.record_embed_forward(static_cast<std::int64_t>(end - g),
                                  group_tokens);
    }
    g = end;
  }
  return ready.size();
}

std::size_t InferenceEngine::decode_phase() {
  // Every decoding sequence joins one ragged forward: a plain sequence feeds
  // its last token, a speculative one its last token plus the drafts its
  // proposer guesses first (against the request's own draft cache). Logits
  // come back for every fed row — a verify gets its k+1 rows, a plain step
  // its one — and each row is bit-identical to a batch-1 generate_cached
  // step. Sequences still mid-way through a chunked prefill sit this out.
  std::vector<std::size_t> ready;
  ready.reserve(active_.size());
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const Sequence& seq = active_[i];
    if (!seq.prefill_done) continue;
    if (seq.finished) continue;  // EOS-halted / dead grammar: retires below
    if (seq.request.embed) continue;  // prefill-only class, never decodes
    if (seq.emitted >= seq.request.max_new_tokens) continue;
    ready.push_back(i);
  }
  if (ready.empty()) return 0;

  std::vector<spec::SpeculativeDecoder::Round> rounds(ready.size());
  nn::RaggedBatch batch;
  batch.path = nn::FwdPath::kDecode;
  batch.logits = nn::LogitRows::kAll;
  for (std::size_t i = 0; i < ready.size(); ++i) {
    Sequence& seq = active_[ready[i]];
    if (seq.request.spec_k > 0) {
      rounds[i] = spec_decoder_->propose(
          seq.tokens, *seq.draft_kv, seq.request.sampling, seq.rng,
          seq.request.spec_k, seq.request.max_new_tokens - seq.emitted,
          seq.spec);
      batch.add(rounds[i].feed, *seq.kv);
    } else {
      batch.add(std::span<const std::int32_t>(&seq.tokens.back(), 1),
                *seq.kv);
    }
  }
  Tape tape;
  Var logits = model_.forward(tape, batch);
  const auto now = Clock::now();

  // Draw every plain row's token in one parallel pass before emitting any.
  // A draw reads its own logits row and touches only its own sequence, so
  // each token is the one a serial loop would draw. Speculative rows keep
  // their serial accept() below: it truncates pool-owned KV.
  std::vector<std::int64_t> first_row(ready.size());
  for (std::size_t i = 1; i < ready.size(); ++i) {
    first_row[i] = first_row[i - 1] + batch.counts[i - 1];
  }
  std::vector<Draw> draws(ready.size());
  ThreadPool::current().parallel_for(
      0, ready.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          Sequence& seq = active_[ready[i]];
          if (seq.request.spec_k == 0) {
            draws[i] = sample_row(logits, first_row[i], seq);
          }
        }
      });

  // Each emitted token is recorded separately, so inter-token quantiles
  // reflect what a streaming client observes even when a verify round lands
  // a burst at once.
  auto emit = [this, now](Sequence& seq, std::int32_t token) {
    seq.emitted += 1;
    step_stats_.inter_token_s.push_back(secs(now - seq.last_token));
    seq.last_token = now;
    if (seq.request.on_token) seq.request.on_token(token);
  };
  for (std::size_t i = 0; i < ready.size(); ++i) {
    Sequence& seq = active_[ready[i]];
    if (seq.request.spec_k > 0) {
      const std::int64_t got = spec_decoder_->accept(
          rounds[i], logits, first_row[i], seq.tokens, *seq.kv,
          *seq.draft_kv, seq.request.sampling, seq.rng, seq.spec);
      for (std::int64_t t = got; t > 0; --t) {
        emit(seq, seq.tokens[seq.tokens.size() - static_cast<std::size_t>(t)]);
      }
    } else if (const std::optional<std::int32_t> token = count_draw(draws[i])) {
      seq.tokens.push_back(*token);
      emit(seq, *token);
    }
  }
  return ready.size();
}

void InferenceEngine::flush_step_stats() {
  // Snapshots fetched before stats_mutex_ so the tier and session locks
  // never nest inside it.
  const kv_tier::TierStats tier = tier_.stats();
  const std::size_t live_sessions = session_count();
  StepStats& st = step_stats_;
  {
    std::lock_guard lock(stats_mutex_);
    stats_.record_tier(tier);
    stats_.record_sessions(live_sessions);
    // The step's high-water mark: every admission and append is in.
    stats_.record_kv(active_.size(), pool_.used_blocks(),
                     pool_.total_blocks(), pool_.shared_blocks(),
                     pool_.cow_forks(), pool_.cow_rows());
    for (const double s : st.queue_delay_s) stats_.record_queue_delay(s);
    for (const auto& [s, cls] : st.ttft_s) stats_.record_ttft(s, cls);
    for (const double s : st.inter_token_s) stats_.record_inter_token(s);
    stats_.record_grammar_steps(st.grammar_steps, st.grammar_eos_stops);
    if (config_.decode_quant != kernels::WeightFormat::kF32) {
      stats_.record_gemm(ops::matmul_calls(kernels::WeightFormat::kF32),
                         ops::matmul_calls(kernels::WeightFormat::kBf16),
                         ops::matmul_calls(kernels::WeightFormat::kInt8));
    }
  }
  st = StepStats{};
}

void InferenceEngine::retire_finished() {
  // Retire finished sequences; their leases are free for the next admit().
  const auto first = std::stable_partition(
      active_.begin(), active_.end(), [](const Sequence& seq) {
        return !seq.finished && (seq.request.embed ||
                                 seq.emitted != seq.request.max_new_tokens);
      });
  for (auto it = first; it != active_.end(); ++it) {
    // A sequence that never produced a token (dead grammar state before
    // the first sample) has no last_token; retire it at "now".
    const Clock::time_point t =
        it->last_token == Clock::time_point{} ? Clock::now() : it->last_token;
    retire(*it, it->finish_status, t);
  }
  active_.erase(first, active_.end());
}

std::size_t InferenceEngine::step() {
  // stats_mutex_ is NOT held across the step: the request callbacks
  // (on_token/on_finish) fired below may block on a bounded completion
  // queue whose consumer thread also calls stats_json(); holding the lock
  // here would deadlock that pair. Per-request events lock narrowly;
  // per-token samples gather in step_stats_ and land in one acquisition.
  const auto now = Clock::now();
  retire_staged(now);
  retire_if([now](const Sequence& seq) { return seq.deadline <= now; },
            RequestStatus::kTimeout, now);
  const std::size_t admitted = admit(now);
  const std::size_t n = active_.size();
  if (n > 0) {
    prefill_phase(now);
    embed_phase(now);
    decode_phase();
  }
  flush_step_stats();
  retire_finished();
  return admitted + n;
}

void InferenceEngine::run_until_idle() {
  while (step() > 0) {
  }
}

std::vector<RequestResult> InferenceEngine::run_trace(
    std::vector<Request> requests) {
  std::vector<std::future<RequestResult>> futures;
  futures.reserve(requests.size());
  std::size_t next = 0;
  while (next < requests.size()) {
    // submit() would block on a full queue; feed what fits, then step.
    while (next < requests.size() &&
           queue_depth() < config_.queue_capacity) {
      futures.push_back(submit(std::move(requests[next++])));
    }
    step();
  }
  run_until_idle();
  std::vector<RequestResult> results;
  results.reserve(futures.size());
  for (auto& future : futures) results.push_back(future.get());
  return results;
}

}  // namespace matgpt::serve
