#include "serve/kv_pool.h"

#include <algorithm>

#include "common/error.h"

namespace matgpt::serve {

namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

}  // namespace

KvLease& KvLease::operator=(KvLease&& other) noexcept {
  if (this != &other) {
    release();
    pool_ = other.pool_;
    cache_ = std::move(other.cache_);
  }
  return *this;
}

nn::KvCache& KvLease::operator*() const {
  MGPT_CHECK(cache_ != nullptr, "dereference of an empty KV lease");
  return *cache_;
}

nn::KvCache* KvLease::operator->() const {
  MGPT_CHECK(cache_ != nullptr, "dereference of an empty KV lease");
  return cache_.get();
}

void KvLease::release() {
  if (cache_ != nullptr) {
    cache_.reset();  // the table returns its blocks and reservation
    pool_->live_leases_.fetch_sub(1);
  }
}

KvCachePool::KvCachePool(const nn::GptConfig& config, const KvPoolConfig& pool)
    : capacity_tokens_(pool.capacity_tokens > 0 ? pool.capacity_tokens
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
  arena_ = std::make_unique<nn::PagedKvArena>(
      layout, static_cast<std::int64_t>(pool.slots) * per_seq +
                  pool.extra_blocks);
}

std::size_t KvCachePool::available() const {
  return static_cast<std::size_t>(arena_->unreserved_free_blocks());
}

double KvCachePool::reserved_bytes() const {
  return static_cast<double>(arena_->n_blocks()) *
         arena_->layout().block_bytes_bf16();
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

KvLease KvCachePool::try_lease(std::int64_t total_tokens,
                               std::int64_t aliased_tokens) {
  if (total_tokens < 0) total_tokens = capacity_tokens_;
  MGPT_CHECK(total_tokens > 0, "lease requires a positive token budget");
  MGPT_CHECK(total_tokens <= capacity_tokens_,
             "lease budget " << total_tokens << " exceeds per-request cap "
                             << capacity_tokens_);
  MGPT_CHECK(aliased_tokens >= 0 && aliased_tokens <= total_tokens,
             "aliased prefix " << aliased_tokens
                               << " outside the lease budget of "
                               << total_tokens << " tokens");
  auto cache = std::make_unique<nn::KvCache>(arena_.get(), total_tokens);
  const std::int64_t needed = blocks_needed(total_tokens, aliased_tokens);
  if (!arena_->try_reserve(needed)) return KvLease();
  cache->adopt_reservation(needed);
  live_leases_.fetch_add(1);
  return KvLease(this, std::move(cache));
}

}  // namespace matgpt::serve
