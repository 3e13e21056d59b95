#include "serve/prefix_cache.h"

#include <algorithm>

#include "common/error.h"

namespace matgpt::serve {

namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

}  // namespace

// One radix edge: the token span `edge` entering this node from its parent,
// covering absolute token positions [start, start + len()). `blocks` holds
// one arena reference per KV block that span touches — blocks[i] is global
// block index start / block_tokens + i. When start is not block-aligned the
// first block is shared with the parent edge (both hold a reference to it,
// or to their own bit-identical version of the boundary block).
struct PrefixCache::Node {
  std::vector<std::int32_t> edge;
  std::int64_t start = 0;
  std::vector<std::int32_t> blocks;  // arena block ids, refcounted
  std::map<std::int32_t, std::unique_ptr<Node>> children;  // by first token
  Node* parent = nullptr;
  std::int64_t refcount = 0;
  std::uint64_t last_used = 0;

  std::int64_t len() const { return static_cast<std::int64_t>(edge.size()); }
};

PrefixCache::PrefixCache(const nn::GptConfig& config, std::size_t byte_budget,
                         KvCachePool* pool)
    : config_(config), pool_(pool), byte_budget_(byte_budget) {
  MGPT_CHECK(pool_ != nullptr,
             "PrefixCache requires a KV pool to share blocks with");
  block_tokens_ = pool_->block_tokens();
  // bf16 K + V across every layer for one whole block — the accounting unit
  // of the budget, matching the arena's per-block residency.
  block_bytes_ = static_cast<std::size_t>(
      pool_->arena()->layout().block_bytes_bf16());
  MGPT_CHECK(byte_budget_ >= block_bytes_,
             "prefix-cache budget " << byte_budget_
                                    << " B is smaller than one KV block ("
                                    << block_bytes_ << " B)");
  root_ = std::make_unique<Node>();
}

PrefixCache::~PrefixCache() {
  // Drop every arena reference so the pool's blocks return to the free
  // list; the pool outlives the cache (engine member order).
  std::vector<Node*> stack{root_.get()};
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    for (auto& [first, child] : n->children) {
      (void)first;
      stack.push_back(child.get());
    }
    release_blocks(n);
  }
}

void PrefixCache::release_blocks(Node* node) {
  for (std::int32_t id : node->blocks) pool_->arena()->release(id);
  block_refs_ -= static_cast<std::int64_t>(node->blocks.size());
  node->blocks.clear();
}

PrefixCache::Node* PrefixCache::child_of(Node* node,
                                         std::int32_t first) const {
  auto it = node->children.find(first);
  return it == node->children.end() ? nullptr : it->second.get();
}

void PrefixCache::touch(Node* node) { node->last_used = ++clock_; }

PrefixCache::Match PrefixCache::match(std::span<const std::int32_t> tokens,
                                      std::int64_t max_tokens) {
  Match m;
  const std::int64_t limit =
      std::min<std::int64_t>(static_cast<std::int64_t>(tokens.size()),
                             max_tokens);
  Node* node = root_.get();
  std::int64_t pos = 0;
  while (pos < limit) {
    Node* next = child_of(node, tokens[static_cast<std::size_t>(pos)]);
    if (next == nullptr) break;
    // Consume as much of the edge as both the prompt and the cap allow; a
    // partial consume still reuses that many rows of the node's blocks.
    std::int64_t used = 0;
    while (used < next->len() && pos + used < limit &&
           next->edge[static_cast<std::size_t>(used)] ==
               tokens[static_cast<std::size_t>(pos + used)]) {
      ++used;
    }
    if (used == 0) break;
    next->refcount += 1;
    touch(next);
    m.path.push_back(next);
    m.last_partial = used;
    pos += used;
    if (used < next->len()) break;  // diverged (or capped) mid-edge
    node = next;
  }
  m.tokens = pos;
  if (m.tokens > 0) {
    stats_.hits += 1;
    stats_.tokens_reused += static_cast<std::uint64_t>(m.tokens);
  } else {
    stats_.misses += 1;
  }
  return m;
}

void PrefixCache::restore(const Match& m, nn::KvCache& dst) {
  if (m.tokens == 0) return;
  MGPT_CHECK(dst.length() == 0, "restore requires an empty KV cache");
  MGPT_CHECK(dst.arena() == pool_->arena(),
             "restore: KV cache is bound to a different arena");
  // Assemble the prefix's block table root-most first; a deeper node
  // overwrites the boundary block it shares with its parent. That is
  // correct because the deeper node's version of the boundary block holds
  // bit-identical rows for the parent's span (both were written by
  // sequences that agreed on those tokens) plus the deeper edge's own rows.
  std::vector<std::int32_t> table(
      static_cast<std::size_t>(ceil_div(m.tokens, block_tokens_)));
  for (std::size_t i = 0; i < m.path.size(); ++i) {
    const Node* node = static_cast<const Node*>(m.path[i]);
    const std::int64_t rows =
        i + 1 < m.path.size() ? node->len() : m.last_partial;
    const std::int64_t node_first = node->start / block_tokens_;
    const std::int64_t last = (node->start + rows - 1) / block_tokens_;
    for (std::int64_t b = node_first; b <= last; ++b) {
      table[static_cast<std::size_t>(b)] =
          node->blocks[static_cast<std::size_t>(b - node_first)];
    }
  }
  dst.alias_blocks(table, m.tokens);
  stats_.tokens_aliased += static_cast<std::uint64_t>(m.tokens);
}

void PrefixCache::unpin(Match& m) {
  for (void* p : m.path) {
    Node* node = static_cast<Node*>(p);
    MGPT_CHECK(node->refcount > 0, "unpin of an unpinned prefix-cache node");
    node->refcount -= 1;
  }
  m.path.clear();
  m.tokens = 0;
  m.last_partial = 0;
}

bool PrefixCache::split(Node* node, std::int64_t offset) {
  // Splitting re-partitions the edge's block references between head and
  // tail. A pinned node must stay put — pins were taken on this exact
  // object — so the caller gives up instead (documented contract).
  if (node->refcount > 0) return false;
  MGPT_CHECK(offset > 0 && offset < node->len(),
             "split offset " << offset << " outside edge of " << node->len()
                             << " tokens");
  auto tail = std::make_unique<Node>();
  tail->edge.assign(node->edge.begin() + offset, node->edge.end());
  tail->start = node->start + offset;
  node->edge.resize(static_cast<std::size_t>(offset));
  // node keeps blocks for [start, start + offset); tail takes the rest.
  // When the cut is mid-block the boundary block belongs to both — the
  // tail takes an extra arena reference on it.
  const std::int64_t node_first = node->start / block_tokens_;
  const std::int64_t tail_first = tail->start / block_tokens_;
  tail->blocks.assign(
      node->blocks.begin() + static_cast<std::ptrdiff_t>(tail_first -
                                                         node_first),
      node->blocks.end());
  const std::int64_t node_last = (node->start + offset - 1) / block_tokens_;
  node->blocks.resize(static_cast<std::size_t>(node_last - node_first + 1));
  if (tail->start % block_tokens_ != 0) {
    // Boundary block now referenced by both head and tail.
    pool_->arena()->add_ref(tail->blocks.front());
    block_refs_ += 1;
    bytes_used_ += block_bytes_;
  }
  tail->children = std::move(node->children);
  node->children.clear();
  for (auto& [first, child] : tail->children) {
    (void)first;
    child->parent = tail.get();
  }
  tail->parent = node;
  tail->last_used = node->last_used;
  const std::int32_t tail_edge_first = tail->edge.front();
  node->children.emplace(tail_edge_first, std::move(tail));
  node_count_ += 1;  // same tokens, one more node
  return true;
}

void PrefixCache::insert(std::span<const std::int32_t> tokens,
                         std::int64_t len, nn::KvCache& kv) {
  MGPT_CHECK(len > 0 && len <= static_cast<std::int64_t>(tokens.size()),
             "insert length " << len << " outside prompt of " << tokens.size()
                              << " tokens");
  MGPT_CHECK(len <= kv.length(),
             "insert length " << len << " exceeds prefilled history of "
                              << kv.length() << " tokens");
  MGPT_CHECK(kv.arena() == pool_->arena(),
             "insert: KV cache is bound to a different arena");
  Node* node = root_.get();
  std::int64_t pos = 0;
  while (pos < len) {
    Node* next = child_of(node, tokens[static_cast<std::size_t>(pos)]);
    if (next == nullptr) break;
    std::int64_t used = 0;
    while (used < next->len() && pos + used < len &&
           next->edge[static_cast<std::size_t>(used)] ==
               tokens[static_cast<std::size_t>(pos + used)]) {
      ++used;
    }
    touch(next);
    if (used == next->len()) {  // edge fully shared; descend
      pos += used;
      node = next;
      continue;
    }
    // Diverged (or the prompt ended) mid-edge — `used` >= 1 since children
    // are keyed by first edge token. Split so the shared span becomes an
    // exact node, then branch from it. A pinned edge cannot be split — stop
    // caching here this round.
    if (!split(next, used)) return;
    pos += used;
    node = next;
    if (pos == len) return;  // prompt ends exactly at the split
  }
  if (pos >= len) return;  // everything already cached

  // A partial last block stays the lease's write target: sharing it makes
  // the lease's next append copy-on-write fork it into one block beyond the
  // ceil(total / bs) it reserved at admission. Charge that block to the
  // lease now; when the arena has no unreserved block for it, cache only
  // the whole blocks.
  if (len % block_tokens_ != 0) {
    if (pool_->arena()->try_reserve(1)) {
      kv.adopt_reservation(1);
    } else {
      len -= len % block_tokens_;
      if (pos >= len) return;
    }
  }

  // Create one leaf holding the whole uncached suffix [pos, len): the leaf
  // takes one arena reference per block of the freshly prefilled lease that
  // the suffix touches — zero rows copied. The lease keeps decoding into
  // its own table; its first append past `len` copy-on-write forks the
  // boundary block, so the cached rows are immutable from here on.
  const std::int64_t rows = len - pos;
  auto leaf = std::make_unique<Node>();
  leaf->edge.assign(tokens.begin() + pos, tokens.begin() + len);
  leaf->start = pos;
  const std::int64_t first_block = pos / block_tokens_;
  const std::int64_t last_block = (len - 1) / block_tokens_;
  std::span<const std::int32_t> seq_blocks = kv.block_ids();
  MGPT_CHECK(last_block < static_cast<std::int64_t>(seq_blocks.size()),
             "insert: lease block table shorter than the prefilled span");
  for (std::int64_t b = first_block; b <= last_block; ++b) {
    const std::int32_t id = seq_blocks[static_cast<std::size_t>(b)];
    pool_->arena()->add_ref(id);
    leaf->blocks.push_back(id);
  }
  block_refs_ += static_cast<std::int64_t>(leaf->blocks.size());
  bytes_used_ += leaf->blocks.size() * block_bytes_;
  leaf->parent = node;
  touch(leaf.get());
  const std::int32_t first = leaf->edge.front();
  node->children.emplace(first, std::move(leaf));
  node_count_ += 1;
  cached_tokens_ += rows;
  stats_.tokens_inserted += static_cast<std::uint64_t>(rows);

  trim(byte_budget_);
}

void PrefixCache::evict_leaf(Node* leaf) {
  stats_.nodes_evicted += 1;
  stats_.tokens_evicted += static_cast<std::uint64_t>(leaf->len());
  cached_tokens_ -= leaf->len();
  bytes_used_ -= leaf->blocks.size() * block_bytes_;
  node_count_ -= 1;
  release_blocks(leaf);
  leaf->parent->children.erase(leaf->edge.front());
}

namespace {

/// LRU scan over evictable leaves. The tree stays small (hundreds of nodes
/// at realistic budgets), so a full walk beats maintaining an intrusive LRU
/// list through splits and re-touches.
template <typename Node>
Node* find_victim(Node* root) {
  Node* victim = nullptr;
  std::vector<Node*> stack{root};
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    for (auto& [first, child] : n->children) {
      (void)first;
      stack.push_back(child.get());
    }
    if (n == root || !n->children.empty() || n->refcount > 0) {
      continue;  // interior and pinned nodes are never evicted
    }
    if (victim == nullptr || n->last_used < victim->last_used) victim = n;
  }
  return victim;
}

}  // namespace

void PrefixCache::trim(std::size_t target_bytes) {
  while (bytes_used_ > target_bytes) {
    Node* victim = find_victim(root_.get());
    if (victim == nullptr) break;  // everything left is pinned or interior
    evict_leaf(victim);
  }
}

bool PrefixCache::evict_for_blocks(std::int64_t needed) {
  while (pool_->arena()->unreserved_free_blocks() < needed) {
    Node* victim = find_victim(root_.get());
    if (victim == nullptr) break;
    evict_leaf(victim);
  }
  return pool_->arena()->unreserved_free_blocks() >= needed;
}

}  // namespace matgpt::serve
