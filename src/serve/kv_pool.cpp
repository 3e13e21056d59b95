#include "serve/kv_pool.h"

#include <algorithm>

#include "common/error.h"

namespace matgpt::serve {

namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

}  // namespace

KvLease::~KvLease() {
  if (cache_ != nullptr) pool_->release(cache_);
}

KvLease::KvLease(KvLease&& other) noexcept
    : pool_(other.pool_), cache_(other.cache_) {
  other.pool_ = nullptr;
  other.cache_ = nullptr;
}

KvLease& KvLease::operator=(KvLease&& other) noexcept {
  if (this != &other) {
    if (cache_ != nullptr) pool_->release(cache_);
    pool_ = other.pool_;
    cache_ = other.cache_;
    other.pool_ = nullptr;
    other.cache_ = nullptr;
  }
  return *this;
}

nn::KvCache& KvLease::operator*() const {
  MGPT_CHECK(cache_ != nullptr, "dereference of an empty KV lease");
  return *cache_;
}

nn::KvCache* KvLease::operator->() const {
  MGPT_CHECK(cache_ != nullptr, "dereference of an empty KV lease");
  return cache_;
}

void KvLease::truncate(std::int64_t len) {
  MGPT_CHECK(cache_ != nullptr, "truncate of an empty KV lease");
  pool_->truncate(cache_, len);
}

void KvLease::release() {
  if (cache_ != nullptr) {
    pool_->release(cache_);
    pool_ = nullptr;
    cache_ = nullptr;
  }
}

KvCachePool::KvCachePool(const nn::GptConfig& config, std::size_t slots,
                         std::int64_t capacity_tokens)
    : KvCachePool(config, KvPoolConfig{slots, capacity_tokens,
                                       /*block_tokens=*/16,
                                       /*extra_blocks=*/0}) {}

KvCachePool::KvCachePool(const nn::GptConfig& config, const KvPoolConfig& pool)
    : slot_count_(pool.slots),
      capacity_tokens_(pool.capacity_tokens > 0 ? pool.capacity_tokens
                                                : config.max_seq) {
  MGPT_CHECK(pool.slots > 0, "KvCachePool requires at least one slot");
  MGPT_CHECK(capacity_tokens_ <= config.max_seq,
             "pool capacity_tokens " << capacity_tokens_
                                     << " exceeds model max_seq "
                                     << config.max_seq);
  MGPT_CHECK(pool.block_tokens > 0, "block_tokens must be positive");
  MGPT_CHECK(pool.extra_blocks >= 0, "extra_blocks must be non-negative");
  nn::PagedKvLayout layout;
  layout.block_tokens = pool.block_tokens;
  layout.n_layers = config.n_layers;
  layout.kv_heads = config.kv_heads();
  layout.head_dim = config.head_dim();
  const std::int64_t per_seq = ceil_div(capacity_tokens_, pool.block_tokens);
  const std::int64_t n_blocks =
      static_cast<std::int64_t>(pool.slots) * per_seq + pool.extra_blocks;
  arena_ = std::make_unique<nn::PagedKvArena>(layout, n_blocks);
  reserved_bytes_ = static_cast<double>(n_blocks) * layout.block_bytes_bf16();
}

std::size_t KvCachePool::available() const {
  return static_cast<std::size_t>(arena_->unreserved_free_blocks());
}

bool KvCachePool::all_free() const {
  std::lock_guard lock(mutex_);
  return free_.size() == slots_.size();
}

std::int64_t KvCachePool::block_tokens() const {
  return arena_->layout().block_tokens;
}

std::int64_t KvCachePool::total_blocks() const { return arena_->n_blocks(); }

std::int64_t KvCachePool::free_blocks() const { return arena_->free_blocks(); }

std::int64_t KvCachePool::used_blocks() const { return arena_->used_blocks(); }

std::int64_t KvCachePool::shared_blocks() const {
  return arena_->shared_blocks();
}

std::uint64_t KvCachePool::cow_forks() const { return arena_->cow_forks(); }

std::uint64_t KvCachePool::cow_rows() const { return arena_->cow_rows(); }

std::int64_t KvCachePool::blocks_needed(std::int64_t total_tokens,
                                        std::int64_t aliased_tokens) const {
  const std::int64_t bs = arena_->layout().block_tokens;
  const std::int64_t needed = ceil_div(total_tokens, bs) - aliased_tokens / bs;
  return std::max<std::int64_t>(needed, 0);
}

void KvCachePool::validate_budget(std::int64_t& total_tokens,
                                  std::int64_t aliased_tokens) const {
  if (total_tokens < 0) total_tokens = capacity_tokens_;
  MGPT_CHECK(total_tokens > 0, "lease requires a positive token budget");
  MGPT_CHECK(total_tokens <= capacity_tokens_,
             "lease budget " << total_tokens << " exceeds per-request cap "
                             << capacity_tokens_);
  MGPT_CHECK(aliased_tokens >= 0 && aliased_tokens <= total_tokens,
             "aliased prefix " << aliased_tokens
                               << " outside the lease budget of "
                               << total_tokens << " tokens");
}

nn::KvCache* KvCachePool::checkout(std::int64_t total_tokens,
                                   std::int64_t needed) {
  Slot* slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    auto fresh = std::make_unique<Slot>();
    fresh->seq = std::make_unique<nn::PagedKvSeq>(arena_.get());
    fresh->cache.attach_paged(fresh->seq.get());
    slot = fresh.get();
    slots_.push_back(std::move(fresh));
  }
  slot->seq->set_token_capacity(total_tokens);
  slot->seq->adopt_reservation(needed);
  return &slot->cache;
}

KvLease KvCachePool::try_lease(std::int64_t total_tokens,
                               std::int64_t aliased_tokens) {
  validate_budget(total_tokens, aliased_tokens);
  const std::int64_t needed = blocks_needed(total_tokens, aliased_tokens);
  std::lock_guard lock(mutex_);
  if (!arena_->try_reserve(needed)) return KvLease();
  return KvLease(this, checkout(total_tokens, needed));
}

KvCachePool::Slot* KvCachePool::leased_slot(const nn::KvCache* cache,
                                            const char* what) const {
  MGPT_CHECK(cache != nullptr, what << " of a null KV cache");
  for (const auto& slot : slots_) {
    if (&slot->cache != cache) continue;
    MGPT_CHECK(std::find(free_.begin(), free_.end(), slot.get()) ==
                   free_.end(),
               what << " of a KV slot that is not checked out");
    return slot.get();
  }
  MGPT_CHECK(false, what << " of a cache this pool does not own");
  return nullptr;
}

void KvCachePool::release(nn::KvCache* cache) {
  std::lock_guard lock(mutex_);
  Slot* slot = leased_slot(cache, "release");
  cache->reset();  // drops block refs and any leftover reservation
  free_.push_back(slot);
}

void KvCachePool::truncate(nn::KvCache* cache, std::int64_t len) {
  {
    std::lock_guard lock(mutex_);
    leased_slot(cache, "truncate");
  }
  cache->truncate(len);
}

}  // namespace matgpt::serve
