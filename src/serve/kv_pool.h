#pragma once
// Pooled KV-cache allocator for serving.
//
// KV memory is one PagedKvArena of fixed-size blocks (block_tokens tokens x
// layers x K+V). A lease reserves only the blocks its token budget needs,
// so short requests never strand a max_seq-sized reservation. The prefix
// cache aliases cached blocks straight into a new lease's block table
// (refcounted, zero-copy) with copy-on-write on first divergence. `slots`
// is a sizing knob (arena = slots full-length sequences, plus extra_blocks
// headroom); concurrency is bounded by blocks, not slots.
//
// A lease is a move-only KvLease that owns its nn::KvCache (the block
// table) and resets it on destruction, returning its blocks and leftover
// reservation to the arena — so a lease cannot leak on an early return or
// an exception, and a double release is unrepresentable.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "nn/gpt.h"
#include "nn/paged_kv.h"

namespace matgpt::serve {

class KvCachePool;

/// Move-only ownership of one sequence's KV cache on a pool's arena.
/// Destroying (or release()-ing) the lease resets the cache, returning its
/// blocks and reservation. The cache lives on the heap, so get() stays
/// stable while the lease moves. A default-constructed or moved-from lease
/// is empty (`!lease`); dereferencing it is a checked error.
class KvLease {
 public:
  KvLease() = default;
  ~KvLease() { release(); }

  KvLease(KvLease&& other) noexcept = default;
  KvLease& operator=(KvLease&& other) noexcept;
  KvLease(const KvLease&) = delete;
  KvLease& operator=(const KvLease&) = delete;

  explicit operator bool() const { return cache_ != nullptr; }
  nn::KvCache* get() const { return cache_.get(); }
  nn::KvCache& operator*() const;
  nn::KvCache* operator->() const;

  /// Return the cache's blocks to the arena now instead of at destruction.
  void release();

 private:
  friend class KvCachePool;
  KvLease(KvCachePool* pool, std::unique_ptr<nn::KvCache> cache)
      : pool_(pool), cache_(std::move(cache)) {}
  KvCachePool* pool_ = nullptr;
  std::unique_ptr<nn::KvCache> cache_;
};

struct KvPoolConfig {
  /// Arena sizing in full-length sequences.
  std::size_t slots = 8;
  /// Per-request token cap; 0 = model max_seq.
  std::int64_t capacity_tokens = 0;
  std::int64_t block_tokens = 16;
  /// Extra arena blocks beyond slots * blocks-per-sequence — e.g.
  /// residency for the prefix cache's pinned blocks.
  std::int64_t extra_blocks = 0;
};

class KvCachePool {
 public:
  KvCachePool(const nn::GptConfig& config, const KvPoolConfig& pool);

  KvCachePool(const KvCachePool&) = delete;
  KvCachePool& operator=(const KvCachePool&) = delete;

  /// Per-request token cap.
  std::int64_t capacity_tokens() const { return capacity_tokens_; }
  /// Admission headroom snapshot: unreserved free blocks.
  std::size_t available() const;
  /// True when no lease is live.
  bool all_free() const { return live_leases_.load() == 0; }
  /// Accelerator bf16 bytes the pool's storage pins.
  double reserved_bytes() const;

  nn::PagedKvArena* arena() const { return arena_.get(); }
  std::int64_t block_tokens() const;
  std::int64_t total_blocks() const;
  std::int64_t free_blocks() const;
  std::int64_t used_blocks() const;
  std::int64_t shared_blocks() const;
  std::uint64_t cow_forks() const;
  std::uint64_t cow_rows() const;
  /// Blocks a try_lease(total, aliased) call must reserve: ceil(total / bs)
  /// minus the full blocks an aliased prefix supplies for free.
  std::int64_t blocks_needed(std::int64_t total_tokens,
                             std::int64_t aliased_tokens) const;

  /// Lease an empty cache on the arena, or return an empty lease (`!lease`)
  /// when the pool cannot admit. `total_tokens` is the request's worst-case
  /// KV length (< 0 = capacity_tokens()) and caps the cache; the lease
  /// reserves exactly the blocks that budget needs, of which
  /// `aliased_tokens` worth of full blocks are expected to arrive by prefix
  /// aliasing instead of allocation.
  KvLease try_lease(std::int64_t total_tokens = -1,
                    std::int64_t aliased_tokens = 0);

 private:
  friend class KvLease;

  std::int64_t capacity_tokens_;
  std::unique_ptr<nn::PagedKvArena> arena_;
  std::atomic<std::int64_t> live_leases_{0};
};

}  // namespace matgpt::serve
