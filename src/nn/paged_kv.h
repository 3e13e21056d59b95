#pragma once
// Block-paged KV storage for serving (the PagedAttention idea): instead of
// one fixed-capacity slab per sequence, KV memory is a pool ("arena") of
// fixed-size blocks of `block_tokens` tokens x all layers x K+V, and each
// sequence's KvCache is a block table that grows on demand. Short sequences
// stop stranding a max_seq-sized reservation, and a shared prompt prefix can
// be ALIASED into several tables at once (refcounted, zero-copy) with
// copy-on-write when a holder first appends into a shared block.
//
// Reservation discipline: admission reserves the worst-case block count for
// a request up front (PagedKvArena::try_reserve), so a sequence admitted
// against the reservation can always grow to its token budget — the arena
// can never deadlock mid-decode. Blocks freed by truncate (speculative
// rollback) return to the owning sequence's reservation, not the shared
// pool, and a dropped block the prefix tree still holds is re-reserved,
// preserving the guarantee.
//
// Thread-safety: arena bookkeeping (free list, refcounts, reservations) is
// mutex-guarded so leases may be released from any thread. Block DATA is
// unsynchronized — a block is written only by the sequence that owns it
// exclusively (refcount 1), which the copy-on-write fork enforces.

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace matgpt::nn {

struct GptConfig;

struct PagedKvLayout {
  std::int64_t block_tokens = 16;
  std::int64_t n_layers = 0;
  std::int64_t kv_heads = 0;
  std::int64_t head_dim = 0;

  /// Floats per cached token per layer per side (K or V).
  std::int64_t row() const { return kv_heads * head_dim; }
  /// Floats per block per layer per side.
  std::int64_t side_floats() const { return block_tokens * row(); }
  /// Floats per block (all layers, K and V).
  std::int64_t block_floats() const { return n_layers * 2 * side_floats(); }
  /// Accelerator bf16 bytes one block pins (K+V, all layers).
  double block_bytes_bf16() const {
    return 2.0 * static_cast<double>(n_layers) * 2.0 *
           static_cast<double>(side_floats());
  }
  void validate() const;
};

/// Refcounted arena of KV blocks. Layout per block:
/// [layer][K|V][block_tokens][kv_heads * head_dim], so a (block, layer)
/// pair exposes contiguous K rows and contiguous V rows with stride row().
class PagedKvArena {
 public:
  PagedKvArena(const PagedKvLayout& layout, std::int64_t n_blocks);

  PagedKvArena(const PagedKvArena&) = delete;
  PagedKvArena& operator=(const PagedKvArena&) = delete;

  const PagedKvLayout& layout() const { return layout_; }
  std::int64_t n_blocks() const { return n_blocks_; }
  std::int64_t free_blocks() const;
  std::int64_t used_blocks() const;
  /// Free blocks not spoken for by an outstanding reservation — what a new
  /// reservation or slack allocation can draw from.
  std::int64_t unreserved_free_blocks() const;
  std::int64_t reserved_blocks() const;
  /// Blocks referenced by two or more holders (sequences and/or the prefix
  /// tree) — the zero-copy sharing the pager exists for.
  std::int64_t shared_blocks() const;
  /// Lifetime copy-on-write counters: fork events and rows copied by forks.
  std::uint64_t cow_forks() const;
  std::uint64_t cow_rows() const;

  /// Reserve `n` blocks of guaranteed future allocation. Fails (false)
  /// without side effects when fewer than n unreserved blocks are free.
  bool try_reserve(std::int64_t n);
  /// Return unused reservation units.
  void unreserve(std::int64_t n);

  /// Allocate one block (refcount 1). Draws down *caller_reserved when
  /// positive, else falls back to unreserved slack. Returns -1 when neither
  /// can supply a block.
  std::int32_t allocate(std::int64_t* caller_reserved);
  /// Add one reference to a live block (prefix-tree insert, alias restore).
  void add_ref(std::int32_t id);
  /// Drop one reference; the block returns to the free list at zero. When
  /// `reclaim` is non-null and the block was actually freed, one reservation
  /// unit is granted back to the caller (*reclaim += 1) — truncate's path,
  /// so rollback keeps its growth guarantee.
  void release(std::int32_t id, std::int64_t* reclaim = nullptr);
  std::int32_t ref_count(std::int32_t id) const;

  float* k_data(std::int32_t id, std::int64_t layer);
  float* v_data(std::int32_t id, std::int64_t layer);
  const float* k_data(std::int32_t id, std::int64_t layer) const;
  const float* v_data(std::int32_t id, std::int64_t layer) const;

  /// Copy-on-write bookkeeping (called by KvCache when it forks).
  void note_cow(std::int64_t rows_copied);

 private:
  void check_id(std::int32_t id) const;

  PagedKvLayout layout_;
  std::int64_t n_blocks_;
  std::vector<float> storage_;
  std::vector<std::int32_t> refcounts_;
  std::vector<std::int32_t> free_;
  std::int64_t reserved_ = 0;
  std::int64_t shared_ = 0;
  std::uint64_t cow_forks_ = 0;
  std::uint64_t cow_rows_ = 0;
  mutable std::mutex mutex_;
};

/// One sequence's KV cache: a growable block table over a PagedKvArena
/// with cached per-layer block base-pointer arrays for the attention
/// kernels. `length()` is the committed token count every layer holds; a
/// forward appends each layer's rows past it and commits them once every
/// layer has appended (RaggedBatch::commit). Serving constructs it on the
/// pool's arena (a KvLease owns it); everything else — batch-1
/// generate_cached, tests, benches — binds a private arena sized for one
/// sequence with reserve(), which the forward calls itself on an unbound
/// cache. Inference-only state.
class KvCache {
 public:
  /// An unbound cache; reserve() (or the first forward) binds it.
  KvCache() = default;
  /// A cache on `arena`. `token_capacity` caps the length (0 = bounded by
  /// the arena only).
  explicit KvCache(PagedKvArena* arena, std::int64_t token_capacity = 0);
  ~KvCache();

  KvCache(const KvCache&) = delete;
  KvCache& operator=(const KvCache&) = delete;

  /// Bind a private arena of `capacity_tokens` (0 = config.max_seq) for
  /// config.n_layers layers. The cache must be unbound.
  void reserve(const GptConfig& config, std::int64_t capacity_tokens = 0);

  /// The bound arena; null until constructed on one or reserve()d.
  PagedKvArena* arena() const { return arena_; }
  std::int64_t block_tokens() const { return arena_->layout().block_tokens; }
  std::int64_t length() const { return length_; }

  /// Adopt `blocks` reservation units the caller already took via
  /// PagedKvArena::try_reserve — future growth draws them down first.
  void adopt_reservation(std::int64_t blocks);
  std::int64_t reserved_blocks() const { return reserved_; }

  /// Write `n_tokens` contiguous [row()] rows to `layer` at positions
  /// [length(), length() + n_tokens), allocating and copy-on-write-forking
  /// blocks as needed. The rows count once commit() takes them. Throws when
  /// the arena can supply no block (reservation exhausted and no unreserved
  /// slack).
  void append(std::int64_t layer, const float* k, const float* v,
              std::int64_t n_tokens);
  /// Advance length() over `n_tokens` rows every layer has appended.
  void commit(std::int64_t n_tokens);
  /// Roll back to `len` tokens (len <= length()). Whole blocks past it
  /// return to this cache's reservation, so the sequence can re-grow to its
  /// admitted budget; a dropped block another holder still references (and
  /// a shared block that becomes the partial write target) is re-reserved
  /// from the arena instead. Throws, with the cache unchanged, when the
  /// arena has no unreserved block for that. Speculative decoding appends
  /// draft tokens optimistically and truncates to the accepted prefix; the
  /// result is bit-identical to a cache that never saw the rejected tokens.
  void truncate(std::int64_t len);

  /// Gather committed rows [start, start+len) of `layer` into contiguous
  /// buffers.
  void copy_rows(std::int64_t layer, std::int64_t start, std::int64_t len,
                 float* k_out, float* v_out) const;

  /// Gather the whole history into one contiguous host buffer laid out
  /// [layer][K rows][V rows] — the serving scheduler's swap-preemption
  /// format. The cache itself is untouched.
  void swap_out(std::vector<float>& host) const;
  /// Inverse of swap_out: fill this (empty) cache with `tokens` rows per
  /// layer from `host`, drawing on its adopted reservation.
  void swap_in(std::span<const float> host, std::int64_t tokens);
  /// Floats swap_out produces / swap_in expects for `tokens` tokens.
  std::int64_t swap_floats(std::int64_t tokens) const;

  /// Adopt a shared prefix: take one reference on each of `ids` (in table
  /// order) and set the length to `tokens`. The cache must be empty. The
  /// last block may be partial — the first append into it forks it
  /// (copy-on-write); full blocks are never copied.
  void alias_blocks(std::span<const std::int32_t> ids, std::int64_t tokens);

  std::span<const std::int32_t> block_ids() const { return blocks_; }
  /// Per-layer block base pointers for the paged attention kernels. Row tk
  /// of `layer` lives at k_blocks(layer)[tk / block_tokens()] +
  /// (tk % block_tokens()) * row().
  const float* const* k_blocks(std::int64_t layer) const;
  const float* const* v_blocks(std::int64_t layer) const;

  /// Release every block reference and leftover reservation; the cache is
  /// empty (and still bound) afterwards.
  void reset();

 private:
  void bind(PagedKvArena* arena, std::int64_t token_capacity);
  void ensure_block(std::int64_t block_idx);
  void make_private(std::int64_t block_idx);
  void refresh_ptrs(std::int64_t block_idx);

  PagedKvArena* arena_ = nullptr;
  std::unique_ptr<PagedKvArena> own_arena_;  // reserve()'s private arena
  std::int64_t token_capacity_ = 0;
  std::int64_t length_ = 0;
  std::int64_t reserved_ = 0;
  std::vector<std::int32_t> blocks_;
  std::vector<std::vector<float*>> k_ptrs_;  // [layer][block]
  std::vector<std::vector<float*>> v_ptrs_;
};

}  // namespace matgpt::nn
