#pragma once
// Radix-tree prompt prefix cache over refcounted KV blocks.
//
// Requests that share a prompt prefix (system prompts, few-shot headers,
// chat history) would otherwise pay a full prefill from token zero. Because
// a token's K/V rows depend only on the tokens at or before its position,
// the rows for a shared prefix are bit-identical across every request that
// starts with it — so they are computed once and thereafter SHARED: the
// cache holds arena block references (PagedKvArena refcounts), and a hit
// aliases those very blocks into the new request's block table. No float is
// copied on either insert or restore; the only copies the scheme ever makes
// are copy-on-write forks of the final partial block when a holder first
// appends past the shared span.
//
// Structure: a path-compressed radix tree keyed by token ids. Each node
// covers its edge's token span [start, start + len) and holds one arena
// reference per block that span touches:
//
//   match()    walks the longest cached prefix of a prompt and PINS every
//              node on the path (tree refcount +1) so eviction cannot touch
//              it;
//   restore()  assembles the path's block table (deepest node wins at block
//              boundaries — a child's boundary block holds bit-identical
//              copies of the parent-span rows plus the child's own) and
//              aliases it into an empty lease's KvCache via
//              KvCache::alias_blocks — zero-copy, refcounted;
//   unpin()    drops the match's pins;
//   insert()   walks a freshly prefilled prompt into the tree, splitting
//              edges at divergence points, and caches the uncached suffix by
//              taking references on the prefilled lease's own blocks —
//              again zero-copy; then evicts LRU refcount-zero leaves until
//              the byte budget holds.
//
// Eviction is leaf-only and never touches a pinned node (an interior node is
// structurally pinned by its children — its rows are a dependency of every
// descendant's). Splitting a pinned node is refused: insert() simply stops
// caching at that boundary for the round, so pinned spans are never
// restructured. Callers therefore unpin before inserting (the engine's
// admission order: match -> lease -> restore -> unpin -> suffix prefill ->
// insert). evict_for_blocks() lets the engine trade cold cached prefixes for
// admission headroom when the arena runs out of unreserved blocks.
//
// Byte accounting is whole blocks at bf16 (block_bytes() per arena
// reference held), matching what the residency pins on a real accelerator.
// A block referenced by both a parent and a child edge counts twice — each
// reference pins it independently.
//
// Threading: like ServerStats, the cache is written only by the engine's
// scheduler thread — no internal locking (arena refcount ops are internally
// synchronized).

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "nn/gpt.h"
#include "serve/kv_pool.h"

namespace matgpt::serve {

/// Lifetime counters (monotonic; never reset by eviction).
struct PrefixCacheStats {
  std::uint64_t hits = 0;            // match() found >= 1 cached token
  std::uint64_t misses = 0;          // match() found nothing
  std::uint64_t tokens_reused = 0;   // sum of matched prefix lengths
  std::uint64_t tokens_aliased = 0;  // restored by block aliasing (no copy)
  std::uint64_t tokens_inserted = 0; // newly cached tokens (post-dedup)
  std::uint64_t nodes_evicted = 0;
  std::uint64_t tokens_evicted = 0;
};

class PrefixCache {
 public:
  /// `byte_budget` caps resident KV bytes (whole bf16 blocks, see above)
  /// and must hold at least one block. The cache holds references into
  /// `pool`'s arena and notifies it after eviction frees blocks.
  PrefixCache(const nn::GptConfig& config, std::size_t byte_budget,
              KvCachePool* pool);

  PrefixCache(const PrefixCache&) = delete;
  PrefixCache& operator=(const PrefixCache&) = delete;
  ~PrefixCache();

  /// A pinned longest-prefix match. Valid until unpin(); movable so the
  /// engine can stash it across the restore step.
  struct Match {
    /// Matched prefix length in tokens (0 = miss; nothing pinned).
    std::int64_t tokens = 0;

   private:
    friend class PrefixCache;
    std::vector<void*> path;       // pinned nodes, root-most first
    std::int64_t last_partial = 0; // tokens used of the final node's edge
  };

  /// Longest cached prefix of `tokens`, capped at `max_tokens` (callers cap
  /// at prompt_len - 1 so at least one token remains to prefill — sampling
  /// needs the last position's logits). Pins the matched path; every match
  /// with tokens > 0 must be released via unpin().
  Match match(std::span<const std::int32_t> tokens, std::int64_t max_tokens);

  /// Alias the matched blocks into `dst`, which must be an empty cache
  /// leased with the match's tokens as its aliased budget. Afterwards
  /// dst is bit-identical to a cache that prefilled the prefix itself, at
  /// the cost of zero row copies (the final partial block copy-on-write
  /// forks only when dst first appends into it).
  void restore(const Match& m, nn::KvCache& dst);

  /// Drop the match's pins (idempotent; clears the handle).
  void unpin(Match& m);

  /// Cache tokens[0, len) whose K/V rows live in `kv` (a lease that
  /// just prefilled this prompt). Already-cached spans are deduplicated by
  /// the walk; the uncached suffix is cached by taking arena references on
  /// kv's own blocks — no rows are copied. A shared partial last block
  /// costs kv one more reservation unit (its next append forks the block);
  /// when the arena has none to give, only the whole blocks are cached.
  /// Finishes by evicting LRU unpinned leaves until bytes_used() <=
  /// byte_budget() (pinned paths can transiently hold the total above
  /// budget).
  void insert(std::span<const std::int32_t> tokens, std::int64_t len,
              nn::KvCache& kv);

  /// Evict LRU refcount-zero leaves until bytes_used() <= target_bytes or
  /// nothing evictable remains. insert() calls this with the budget;
  /// exposed for tests and manual shrinking.
  void trim(std::size_t target_bytes);

  /// Evict cold leaves until the pool's arena has at least `needed`
  /// unreserved free blocks (the engine's admission fallback). Returns
  /// whether the headroom was reached.
  bool evict_for_blocks(std::int64_t needed);

  /// Accelerator bytes one cached block costs (K+V, all layers, bf16).
  std::size_t block_bytes() const { return block_bytes_; }
  std::size_t byte_budget() const { return byte_budget_; }
  std::size_t bytes_used() const { return bytes_used_; }
  /// Cached tokens, tree nodes, and arena references currently resident
  /// (root excluded).
  std::int64_t cached_tokens() const { return cached_tokens_; }
  std::size_t node_count() const { return node_count_; }
  std::int64_t block_refs() const { return block_refs_; }
  const PrefixCacheStats& stats() const { return stats_; }

 private:
  struct Node;

  Node* child_of(Node* node, std::int32_t first) const;
  void evict_leaf(Node* leaf);
  bool split(Node* node, std::int64_t offset);
  void touch(Node* node);
  void release_blocks(Node* node);

  nn::GptConfig config_;
  KvCachePool* pool_;
  std::int64_t block_tokens_;
  std::size_t byte_budget_;
  std::size_t block_bytes_;
  std::size_t bytes_used_ = 0;
  std::int64_t cached_tokens_ = 0;
  std::int64_t block_refs_ = 0;
  std::size_t node_count_ = 0;
  std::uint64_t clock_ = 0;  // logical LRU clock, bumped per touch
  std::unique_ptr<Node> root_;
  PrefixCacheStats stats_;
};

}  // namespace matgpt::serve
