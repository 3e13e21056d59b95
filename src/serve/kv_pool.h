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
// Leases are move-only KvLease handles that return themselves to the pool
// on destruction, so a lease cannot leak on an early return or an
// exception, and a double release is unrepresentable.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "nn/gpt.h"
#include "nn/paged_kv.h"

namespace matgpt::serve {

class KvCachePool;

/// Move-only ownership of one pooled KV slot. Destroying (or release()-ing)
/// the lease resets the slot and returns it to the pool. A
/// default-constructed or moved-from lease is empty (`!lease`);
/// dereferencing it is a checked error.
class KvLease {
 public:
  KvLease() = default;
  ~KvLease();

  KvLease(KvLease&& other) noexcept;
  KvLease& operator=(KvLease&& other) noexcept;
  KvLease(const KvLease&) = delete;
  KvLease& operator=(const KvLease&) = delete;

  explicit operator bool() const { return cache_ != nullptr; }
  nn::KvCache* get() const { return cache_; }
  nn::KvCache& operator*() const;
  nn::KvCache* operator->() const;

  /// Roll the slot back to `len` cached tokens (speculative rollback). Whole
  /// blocks freed by the rollback return to this lease's reservation, so
  /// the sequence can still grow to its admitted budget.
  void truncate(std::int64_t len);
  /// Return the slot to the pool now instead of at destruction.
  void release();

 private:
  friend class KvCachePool;
  KvLease(KvCachePool* pool, nn::KvCache* cache)
      : pool_(pool), cache_(cache) {}
  KvCachePool* pool_ = nullptr;
  nn::KvCache* cache_ = nullptr;
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
  /// Pool with the default block size; `capacity_tokens == 0` budgets
  /// every request at config.max_seq.
  KvCachePool(const nn::GptConfig& config, std::size_t slots,
              std::int64_t capacity_tokens = 0);
  KvCachePool(const nn::GptConfig& config, const KvPoolConfig& pool);

  KvCachePool(const KvCachePool&) = delete;
  KvCachePool& operator=(const KvCachePool&) = delete;

  /// The sizing knob: arena size in full-length sequences.
  std::size_t slot_count() const { return slot_count_; }
  /// Per-request token cap.
  std::int64_t capacity_tokens() const { return capacity_tokens_; }
  /// Admission headroom snapshot: unreserved free blocks.
  std::size_t available() const;
  /// True when every lease has been returned.
  bool all_free() const;
  /// Accelerator bf16 bytes the pool's storage pins.
  double reserved_bytes() const { return reserved_bytes_; }

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

  /// Take a slot, or return an empty lease (`!lease`) when the pool cannot
  /// admit. `total_tokens` is the request's worst-case KV length (< 0 =
  /// capacity_tokens()); the lease reserves exactly the blocks that budget
  /// needs, of which `aliased_tokens` worth of full blocks are expected to
  /// arrive by prefix aliasing instead of allocation. The leased cache is
  /// empty; it returns to the pool when the lease dies.
  KvLease try_lease(std::int64_t total_tokens = -1,
                    std::int64_t aliased_tokens = 0);

 private:
  friend class KvLease;

  struct Slot {
    nn::KvCache cache;
    std::unique_ptr<nn::PagedKvSeq> seq;
  };

  void validate_budget(std::int64_t& total_tokens,
                       std::int64_t aliased_tokens) const;
  /// Pop or lazily build a slot; caller holds mutex_ and already owns a
  /// `needed`-block reservation that the slot adopts.
  nn::KvCache* checkout(std::int64_t total_tokens, std::int64_t needed);
  /// The checked-out slot holding `cache`; throws for a foreign or
  /// already-returned cache. Caller holds mutex_.
  Slot* leased_slot(const nn::KvCache* cache, const char* what) const;
  void release(nn::KvCache* cache);
  void truncate(nn::KvCache* cache, std::int64_t len);

  std::size_t slot_count_;
  std::int64_t capacity_tokens_;
  double reserved_bytes_ = 0.0;

  std::unique_ptr<nn::PagedKvArena> arena_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<Slot*> free_;

  mutable std::mutex mutex_;
};

}  // namespace matgpt::serve
