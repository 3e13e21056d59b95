// Unit tests for the block-paged KV allocator (src/nn/paged_kv): arena
// alloc/free/reuse and refcounts, the reservation admission discipline,
// the KvCache block table's append/commit/truncate/gather, copy-on-write
// fork semantics on shared blocks, out-of-blocks failure, fragmentation
// churn (and a seeded churn of whole serving lifecycles checked against
// the arena's refcount and reservation invariants), and nn-level
// bit-identity of a paged forward pass against contiguous attention.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "nn/gpt.h"
#include "nn/paged_kv.h"
#include "serve/kv_pool.h"
#include "serve/prefix_cache.h"

namespace matgpt {
namespace {

nn::PagedKvLayout tiny_layout() {
  nn::PagedKvLayout l;
  l.block_tokens = 4;
  l.n_layers = 1;
  l.kv_heads = 1;
  l.head_dim = 4;
  return l;
}

// One row (kv_heads * head_dim floats) per token, value = salt + 10*t + j.
std::vector<float> rows_for(const nn::PagedKvLayout& l, std::int64_t n,
                            float salt) {
  std::vector<float> out(static_cast<std::size_t>(n * l.row()));
  for (std::int64_t t = 0; t < n; ++t) {
    for (std::int64_t j = 0; j < l.row(); ++j) {
      out[static_cast<std::size_t>(t * l.row() + j)] =
          salt + 10.0f * static_cast<float>(t) + static_cast<float>(j);
    }
  }
  return out;
}

TEST(PagedKvArena, AllocateFreeReuseAndRefcounts) {
  const nn::PagedKvLayout l = tiny_layout();
  nn::PagedKvArena arena(l, 4);
  EXPECT_EQ(arena.free_blocks(), 4);
  EXPECT_EQ(arena.used_blocks(), 0);

  // Drain the arena through the slack path (no reservation held).
  std::vector<std::int32_t> ids;
  for (int i = 0; i < 4; ++i) {
    const std::int32_t id = arena.allocate(nullptr);
    ASSERT_GE(id, 0);
    EXPECT_EQ(arena.ref_count(id), 1);
    ids.push_back(id);
  }
  EXPECT_EQ(arena.free_blocks(), 0);
  EXPECT_EQ(arena.allocate(nullptr), -1) << "exhausted arena must refuse";

  // A second reference keeps the block alive through one release.
  arena.add_ref(ids[0]);
  EXPECT_EQ(arena.ref_count(ids[0]), 2);
  EXPECT_EQ(arena.shared_blocks(), 1);
  arena.release(ids[0]);
  EXPECT_EQ(arena.ref_count(ids[0]), 1);
  EXPECT_EQ(arena.shared_blocks(), 0);
  EXPECT_EQ(arena.free_blocks(), 0) << "block freed while still referenced";

  // Final releases recycle every block; fresh allocations reuse them.
  for (const std::int32_t id : ids) arena.release(id);
  EXPECT_EQ(arena.free_blocks(), 4);
  const std::int32_t again = arena.allocate(nullptr);
  EXPECT_GE(again, 0);
  arena.release(again);
}

TEST(PagedKvArena, ReservationsGateAdmissionAndFundAllocation) {
  const nn::PagedKvLayout l = tiny_layout();
  nn::PagedKvArena arena(l, 4);
  EXPECT_TRUE(arena.try_reserve(3));
  EXPECT_EQ(arena.reserved_blocks(), 3);
  EXPECT_EQ(arena.unreserved_free_blocks(), 1);
  // A reservation that would oversubscribe the arena fails without effect.
  EXPECT_FALSE(arena.try_reserve(2));
  EXPECT_EQ(arena.reserved_blocks(), 3);

  // Allocation draws the caller's reservation down first...
  std::int64_t mine = 3;
  const std::int32_t a = arena.allocate(&mine);
  ASSERT_GE(a, 0);
  EXPECT_EQ(mine, 2);
  EXPECT_EQ(arena.reserved_blocks(), 2);
  // ...and an unrelated caller can only take the unreserved slack.
  const std::int32_t slack = arena.allocate(nullptr);
  ASSERT_GE(slack, 0);
  EXPECT_EQ(arena.allocate(nullptr), -1)
      << "slack allocation must not raid an outstanding reservation";
  // The reservation holder still gets its guaranteed blocks.
  const std::int32_t b = arena.allocate(&mine);
  const std::int32_t d = arena.allocate(&mine);
  EXPECT_GE(b, 0);
  EXPECT_GE(d, 0);
  EXPECT_EQ(mine, 0);

  // Truncate-style release with reclaim returns the unit to the caller.
  arena.release(b, &mine);
  EXPECT_EQ(mine, 1);
  EXPECT_EQ(arena.reserved_blocks(), 1);
  arena.unreserve(mine);
  arena.release(a);
  arena.release(d);
  arena.release(slack);
  EXPECT_EQ(arena.free_blocks(), 4);
  EXPECT_EQ(arena.reserved_blocks(), 0);
}

TEST(PagedKvSeq, AppendTruncateAndGatherAcrossBlocks) {
  const nn::PagedKvLayout l = tiny_layout();
  nn::PagedKvArena arena(l, 8);
  nn::KvCache seq(&arena);
  const auto k = rows_for(l, 10, 0.0f);
  const auto v = rows_for(l, 10, 0.5f);
  seq.append(0, k.data(), v.data(), 10);  // 4 + 4 + 2 -> 3 blocks
  EXPECT_EQ(seq.length(), 0) << "appended rows count only once committed";
  seq.commit(10);
  EXPECT_EQ(seq.length(), 10);
  EXPECT_EQ(seq.block_ids().size(), 3u);
  EXPECT_EQ(arena.used_blocks(), 3);

  // Gather straddling block boundaries returns the exact rows.
  std::vector<float> gk(static_cast<std::size_t>(7 * l.row()));
  std::vector<float> gv(gk.size());
  seq.copy_rows(0, 2, 7, gk.data(), gv.data());
  for (std::int64_t t = 0; t < 7; ++t) {
    for (std::int64_t j = 0; j < l.row(); ++j) {
      const auto i = static_cast<std::size_t>(t * l.row() + j);
      EXPECT_EQ(gk[i], k[static_cast<std::size_t>((t + 2) * l.row() + j)]);
      EXPECT_EQ(gv[i], v[static_cast<std::size_t>((t + 2) * l.row() + j)]);
    }
  }

  // Truncating to 5 rows drops the 3rd block; the freed unit returns to the
  // sequence's reservation, so regrowth cannot fail.
  seq.truncate(5);
  EXPECT_EQ(seq.length(), 5);
  EXPECT_EQ(seq.block_ids().size(), 2u);
  EXPECT_EQ(arena.used_blocks(), 2);
  EXPECT_EQ(seq.reserved_blocks(), 1);
  seq.append(0, k.data(), v.data(), 3);
  seq.commit(3);
  EXPECT_EQ(seq.length(), 8);
  EXPECT_THROW(seq.commit(1), Error) << "commit past the appended rows";

  seq.reset();
  EXPECT_EQ(arena.used_blocks(), 0);
  EXPECT_EQ(arena.reserved_blocks(), 0);
  EXPECT_EQ(seq.length(), 0);
}

TEST(PagedKvSeq, TokenCapacityIsEnforced) {
  const nn::PagedKvLayout l = tiny_layout();
  nn::PagedKvArena arena(l, 8);
  nn::KvCache seq(&arena, /*token_capacity=*/6);
  const auto k = rows_for(l, 7, 0.0f);
  const auto v = rows_for(l, 7, 0.5f);
  seq.append(0, k.data(), v.data(), 6);
  seq.commit(6);
  EXPECT_THROW(seq.append(0, k.data(), v.data(), 1), Error);
}

TEST(PagedKvSeq, CopyOnWriteForksOnlyTheSharedPartialBlock) {
  const nn::PagedKvLayout l = tiny_layout();
  nn::PagedKvArena arena(l, 8);
  nn::KvCache owner(&arena);
  const auto k = rows_for(l, 6, 0.0f);
  const auto v = rows_for(l, 6, 0.5f);
  owner.append(0, k.data(), v.data(), 6);  // blocks: [full, 2-row partial]
  owner.commit(6);

  // A second sequence aliases the 6-token prefix: zero copies, shared refs.
  nn::KvCache borrower(&arena);
  borrower.alias_blocks(owner.block_ids(), 6);
  EXPECT_EQ(borrower.length(), 6);
  EXPECT_EQ(arena.used_blocks(), 2) << "alias must not allocate";
  EXPECT_EQ(arena.shared_blocks(), 2);
  EXPECT_EQ(arena.cow_forks(), 0u);

  // First append past the shared prefix forks ONLY the partial block: the
  // 2 already-written rows are copied once, the full block stays shared.
  const auto nk = rows_for(l, 1, 100.0f);
  const auto nv = rows_for(l, 1, 100.5f);
  borrower.append(0, nk.data(), nv.data(), 1);
  borrower.commit(1);
  EXPECT_EQ(arena.cow_forks(), 1u);
  EXPECT_EQ(arena.cow_rows(), 2u);
  EXPECT_EQ(arena.used_blocks(), 3);
  EXPECT_EQ(arena.shared_blocks(), 1) << "full block still shared";
  EXPECT_EQ(borrower.block_ids()[0], owner.block_ids()[0]);
  EXPECT_NE(borrower.block_ids()[1], owner.block_ids()[1]);

  // The owner's rows are untouched; the borrower sees prefix + its append.
  std::vector<float> ok(static_cast<std::size_t>(6 * l.row()));
  std::vector<float> ov(ok.size());
  owner.copy_rows(0, 0, 6, ok.data(), ov.data());
  for (std::size_t i = 0; i < ok.size(); ++i) {
    ASSERT_EQ(ok[i], k[i]);
    ASSERT_EQ(ov[i], v[i]);
  }
  std::vector<float> bk(static_cast<std::size_t>(7 * l.row()));
  std::vector<float> bv(bk.size());
  borrower.copy_rows(0, 0, 7, bk.data(), bv.data());
  for (std::size_t i = 0; i < static_cast<std::size_t>(6 * l.row()); ++i) {
    ASSERT_EQ(bk[i], k[i]);
    ASSERT_EQ(bv[i], v[i]);
  }
  for (std::int64_t j = 0; j < l.row(); ++j) {
    EXPECT_EQ(bk[static_cast<std::size_t>(6 * l.row() + j)],
              nk[static_cast<std::size_t>(j)]);
    EXPECT_EQ(bv[static_cast<std::size_t>(6 * l.row() + j)],
              nv[static_cast<std::size_t>(j)]);
  }

  // Writes into a block-aligned shared boundary need no fork: a third
  // sequence aliasing exactly one full block appends into a NEW block.
  nn::KvCache aligned(&arena);
  aligned.alias_blocks(owner.block_ids().subspan(0, 1), 4);
  aligned.append(0, nk.data(), nv.data(), 1);
  EXPECT_EQ(arena.cow_forks(), 1u) << "aligned append must not fork";
  aligned.reset();

  borrower.reset();
  owner.reset();
  EXPECT_EQ(arena.used_blocks(), 0);
}

TEST(PagedKvSeq, OutOfBlocksAppendThrows) {
  const nn::PagedKvLayout l = tiny_layout();
  nn::PagedKvArena arena(l, 2);
  nn::KvCache seq(&arena);
  const auto k = rows_for(l, 9, 0.0f);
  const auto v = rows_for(l, 9, 0.5f);
  seq.append(0, k.data(), v.data(), 8);  // fills both blocks
  seq.commit(8);
  EXPECT_THROW(seq.append(0, k.data(), v.data(), 1), Error);
  // The failed append must not corrupt the sequence.
  EXPECT_EQ(seq.length(), 8);
  EXPECT_EQ(seq.block_ids().size(), 2u);
}

TEST(ServePagedPool, ChurnOfMixedLengthLeasesNeverFragments) {
  // Blocks are unit-sized, so the pager cannot fragment: any mix of lease
  // sizes that fits in free blocks must admit. Churn short/long leases and
  // assert admission succeeds whenever the block arithmetic says it should.
  nn::GptConfig c;
  c.arch = nn::ArchFamily::kLLaMA;
  c.vocab_size = 50;
  c.hidden = 16;
  c.n_layers = 2;
  c.n_heads = 2;
  c.n_kv_heads = 1;
  c.max_seq = 64;
  serve::KvPoolConfig pcfg;
  pcfg.slots = 4;  // arena = 4 * 16 = 64 blocks of 4 tokens
  pcfg.block_tokens = 4;
  serve::KvCachePool pool(c, pcfg);
  ASSERT_EQ(pool.total_blocks(), 64);

  std::vector<serve::KvLease> held;
  std::uint32_t rng = 12345;
  auto next = [&rng]() {
    rng = rng * 1664525u + 1013904223u;
    return rng >> 16;
  };
  for (int round = 0; round < 300; ++round) {
    const std::int64_t want = 1 + static_cast<std::int64_t>(next() % 64);
    const std::int64_t needed = pool.blocks_needed(want, 0);
    if (static_cast<std::int64_t>(pool.available()) >= needed) {
      serve::KvLease lease = pool.try_lease(want);
      ASSERT_TRUE(lease) << "round " << round << ": " << needed
                         << " blocks needed, " << pool.available() << " free";
      held.push_back(std::move(lease));
    } else {
      ASSERT_FALSE(held.empty());
      // Release a pseudo-random victim mid-vector: maximal churn.
      const std::size_t at = next() % held.size();
      held[at].release();
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(at));
    }
  }
  held.clear();
  EXPECT_TRUE(pool.all_free());
  EXPECT_EQ(pool.used_blocks(), 0);
}

// What KvCache::truncate throws when the arena cannot re-reserve the blocks
// a truncate below a shared prefix drops.
constexpr const char* kNoBlockToReReserve =
    "paged KV arena has no block to re-reserve";

bool is_no_block_to_re_reserve(const Error& e) {
  return std::string(e.what()).find(kNoBlockToReReserve) != std::string::npos;
}

// One live lease in the lifecycle churn below: the tokens it was planned to
// feed (its admitted budget) and the prefix of them its cache holds.
struct ChurnSeq {
  serve::KvLease lease;
  std::vector<std::int32_t> plan;
  std::int64_t fed = 0;
};

TEST(ServePagedPool, SeededLifecycleChurnKeepsRefcountsAndReservationsExact) {
  // Seeded random serving lifecycles over one small arena: leases (cold and
  // prefix-restored, so partial blocks fork copy-on-write), appends through
  // the ragged forward, rollbacks, prefix-tree inserts and evictions, lease
  // moves and releases. Rollbacks reach below rows the tree shares, where
  // truncate must re-reserve the dropped blocks or refuse. After every
  // operation each block's refcount must equal its holders (live tables
  // plus the radix tree), the arena's reservation must equal the live
  // tables' reservations, every table must still be able to grow to its
  // budget, and the pool is all-free exactly when no lease lives.
  nn::GptConfig c;
  c.arch = nn::ArchFamily::kLLaMA;
  c.vocab_size = 40;
  c.hidden = 16;
  c.n_layers = 2;
  c.n_heads = 2;
  c.n_kv_heads = 1;
  c.max_seq = 32;
  nn::GptModel model(c);
  serve::KvPoolConfig pcfg;
  pcfg.slots = 3;  // 3 * 8 blocks of 4 tokens ...
  pcfg.block_tokens = 4;
  pcfg.extra_blocks = 8;  // ... plus the prefix tree's residency
  serve::KvCachePool pool(c, pcfg);
  nn::PagedKvArena& arena = *pool.arena();
  serve::PrefixCache tree(
      c, 8 * static_cast<std::size_t>(arena.layout().block_bytes_bf16()),
      &pool);

  std::uint32_t state = 0x5eed;
  auto next = [&state](std::uint32_t n) {
    state = state * 1664525u + 1013904223u;
    return static_cast<std::int64_t>((state >> 8) % n);
  };
  // Three shared system prompts, so plans collide in the tree.
  const std::vector<std::vector<std::int32_t>> heads{
      {1, 2, 3, 4, 5, 6}, {1, 2, 3, 9, 9}, {20, 21, 22, 23, 24, 25, 26}};
  std::vector<ChurnSeq> live;

  auto check = [&](int step) {
    SCOPED_TRACE("step " + std::to_string(step));
    std::vector<std::int64_t> holders(
        static_cast<std::size_t>(arena.n_blocks()), 0);
    std::int64_t reserved = 0;
    for (const ChurnSeq& s : live) {
      ASSERT_EQ(s.lease->length(), s.fed);
      const std::span<const std::int32_t> ids = s.lease->block_ids();
      for (const std::int32_t id : ids) {
        holders[static_cast<std::size_t>(id)] += 1;
      }
      reserved += s.lease->reserved_blocks();
      // Growth guarantee: held blocks plus reservation cover the budget,
      // with one unit set aside for a shared partial last block the next
      // append forks.
      const bool fork_pending =
          s.fed % 4 != 0 &&
          arena.ref_count(ids[static_cast<std::size_t>((s.fed - 1) / 4)]) >
              1;
      ASSERT_GE(static_cast<std::int64_t>(ids.size()) +
                    s.lease->reserved_blocks() - (fork_pending ? 1 : 0),
                pool.blocks_needed(
                    static_cast<std::int64_t>(s.plan.size()), 0));
    }
    // The tree's references are whatever the tables do not hold: never
    // negative, and summing to its own count. With the tree empty this is
    // refcount == table holders for every block.
    std::int64_t tree_refs = 0;
    std::int64_t used = 0;
    for (std::int32_t id = 0; id < arena.n_blocks(); ++id) {
      const std::int64_t extra =
          arena.ref_count(id) - holders[static_cast<std::size_t>(id)];
      ASSERT_GE(extra, 0) << "block " << id << " has fewer refs than holders";
      tree_refs += extra;
      used += arena.ref_count(id) > 0 ? 1 : 0;
    }
    ASSERT_EQ(tree_refs, tree.block_refs());
    ASSERT_EQ(used, pool.used_blocks());
    ASSERT_EQ(arena.reserved_blocks(), reserved);
    ASSERT_EQ(pool.all_free(), live.empty());
  };

  for (int step = 0; step < 2000; ++step) {
    const std::int64_t op = next(8);
    if (op == 0 || live.empty()) {
      // Lease a new sequence, restoring its longest cached prefix half the
      // time; when the arena is short, trade cold prefixes for headroom.
      ChurnSeq s;
      s.plan = heads[static_cast<std::size_t>(next(3))];
      const std::int64_t total = 8 + next(25);
      while (static_cast<std::int64_t>(s.plan.size()) < total) {
        s.plan.push_back(static_cast<std::int32_t>(next(c.vocab_size)));
      }
      serve::PrefixCache::Match m;
      if (next(2) == 0) m = tree.match(s.plan, total - 1);
      s.lease = pool.try_lease(total, m.tokens);
      if (!s.lease &&
          tree.evict_for_blocks(pool.blocks_needed(total, m.tokens))) {
        s.lease = pool.try_lease(total, m.tokens);
      }
      if (s.lease) {
        tree.restore(m, *s.lease);
        s.fed = m.tokens;
        live.push_back(std::move(s));
      }
      tree.unpin(m);
    } else if (op <= 2) {
      // Append through one ragged forward over up to three sequences.
      nn::RaggedBatch batch;
      for (std::size_t i = 0; i < live.size() && batch.size() < 3; ++i) {
        ChurnSeq& s = live[(i + static_cast<std::size_t>(step)) % live.size()];
        const auto room = static_cast<std::int64_t>(s.plan.size()) - s.fed;
        if (room == 0 || next(2) == 0) continue;
        const std::int64_t n = 1 + next(static_cast<std::uint32_t>(
                                       std::min<std::int64_t>(room, 6)));
        batch.add(std::span<const std::int32_t>(s.plan).subspan(
                      static_cast<std::size_t>(s.fed),
                      static_cast<std::size_t>(n)),
                  *s.lease);
        s.fed += n;
      }
      if (batch.size() > 0) {
        Tape tape;
        model.forward(tape, batch);
      }
    } else {
      ChurnSeq& s = live[static_cast<std::size_t>(next(
          static_cast<std::uint32_t>(live.size())))];
      if (op == 3 && s.fed > 0) {
        // Roll back anywhere, shared rows included: it succeeds, or it
        // refuses for want of a block to re-reserve and changes nothing.
        const std::int64_t len = next(static_cast<std::uint32_t>(s.fed));
        try {
          s.lease->truncate(len);
          s.fed = len;
        } catch (const Error& e) {
          ASSERT_TRUE(is_no_block_to_re_reserve(e)) << e.what();
        }
      } else if (op == 4 && s.fed > 0) {
        tree.insert(s.plan, s.fed, *s.lease);
      } else if (op == 5) {
        tree.trim(next(3) == 0 ? 0
                               : static_cast<std::size_t>(next(
                                     static_cast<std::uint32_t>(
                                         tree.bytes_used() + 1))));
      } else if (op == 6) {
        // Move a lease across the vector: the cache stays where it was.
        ChurnSeq& other = live[static_cast<std::size_t>(next(
            static_cast<std::uint32_t>(live.size())))];
        const nn::KvCache* a = s.lease.get();
        const nn::KvCache* b = other.lease.get();
        if (&s != &other) std::swap(s, other);
        ASSERT_EQ(s.lease.get(), b);
        ASSERT_EQ(other.lease.get(), a);
      } else {
        // Release: explicitly, or by move-assigning the last lease over it.
        if (next(2) == 0) s.lease.release();
        if (&s != &live.back()) s = std::move(live.back());
        live.pop_back();
      }
    }
    ASSERT_NO_FATAL_FAILURE(check(step));
  }
  // The churn must have reached every mechanism it claims to check.
  EXPECT_GT(pool.cow_forks(), 0u);
  EXPECT_GT(tree.stats().tokens_aliased, 0u);
  EXPECT_GT(tree.stats().nodes_evicted, 0u);

  live.clear();
  ASSERT_NO_FATAL_FAILURE(check(-1));
  tree.trim(0);
  EXPECT_EQ(tree.block_refs(), 0);
  EXPECT_EQ(pool.used_blocks(), 0);
  EXPECT_EQ(arena.reserved_blocks(), 0);
}

// A one-slot pool of `capacity` tokens (blocks of 4) with a prefix tree,
// and one 8-token lease whose prompt the tree has cached: both of the
// lease's blocks are shared with the tree.
struct SharedPrefixLease {
  static nn::GptConfig config() {
    nn::GptConfig c;
    c.arch = nn::ArchFamily::kLLaMA;
    c.vocab_size = 40;
    c.hidden = 16;
    c.n_layers = 2;
    c.n_heads = 2;
    c.n_kv_heads = 1;
    c.max_seq = 32;
    return c;
  }
  static serve::KvPoolConfig pool_config(std::int64_t capacity) {
    serve::KvPoolConfig p;
    p.slots = 1;
    p.capacity_tokens = capacity;
    p.block_tokens = 4;
    return p;
  }

  explicit SharedPrefixLease(std::int64_t capacity)
      : model(config()),
        pool(config(), pool_config(capacity)),
        tree(config(),
             8 * static_cast<std::size_t>(
                     pool.arena()->layout().block_bytes_bf16()),
             &pool),
        lease(pool.try_lease(8)) {
    Tape tape;
    model.forward_incremental(tape, prompt, *lease);
    tree.insert(prompt, 8, *lease);
  }

  nn::GptModel model;
  serve::KvCachePool pool;
  serve::PrefixCache tree;
  const std::vector<std::int32_t> prompt{1, 2, 3, 4, 5, 6, 7, 8};
  serve::KvLease lease;
};

TEST(ServePagedPool, TruncateBelowSharedPrefixKeepsItsBudgetCovered) {
  SharedPrefixLease f(32);
  nn::PagedKvArena& arena = *f.pool.arena();
  for (const std::int32_t id : f.lease->block_ids()) {
    ASSERT_EQ(arena.ref_count(id), 2);
  }
  ASSERT_EQ(f.lease->reserved_blocks(), 0);
  // Drops block 1, which the tree keeps, and makes the shared block 0 the
  // partial write target.
  f.lease->truncate(2);
  EXPECT_EQ(f.lease->length(), 2);
  ASSERT_EQ(f.lease->block_ids().size(), 1u);
  EXPECT_GE(static_cast<std::int64_t>(f.lease->block_ids().size()) +
                f.lease->reserved_blocks(),
            f.pool.blocks_needed(8, 0));
  EXPECT_EQ(arena.reserved_blocks(), f.lease->reserved_blocks());
}

TEST(ServePagedPool, TruncatedLeaseRegrowsWhileAnotherHoldsEverySpareBlock) {
  SharedPrefixLease f(32);
  nn::PagedKvArena& arena = *f.pool.arena();
  f.lease->truncate(2);
  // A second lease takes every block no reservation speaks for ...
  const std::int64_t spare = arena.unreserved_free_blocks();
  ASSERT_GT(spare, 0);
  serve::KvLease other = f.pool.try_lease(spare * 4);
  ASSERT_TRUE(other);
  ASSERT_EQ(arena.unreserved_free_blocks(), 0);
  // ... and the truncated lease still grows back to its 8-token budget:
  // it forks block 0 and allocates a fresh block 1 from its reservation.
  Tape tape;
  f.model.forward_incremental(
      tape, std::span<const std::int32_t>(f.prompt).subspan(2), *f.lease);
  EXPECT_EQ(f.lease->length(), 8);
  EXPECT_EQ(f.lease->reserved_blocks(), 0);
}

TEST(ServePagedPool, TruncateThrowsWhenNoBlockIsLeftToReReserve) {
  // The whole arena is the lease's two blocks, both shared with the tree:
  // truncating to 0 would leave nothing to regrow into, so it refuses and
  // leaves the cache as it was.
  SharedPrefixLease f(8);
  nn::PagedKvArena& arena = *f.pool.arena();
  ASSERT_EQ(arena.n_blocks(), 2);
  const std::vector<std::int32_t> ids(f.lease->block_ids().begin(),
                                      f.lease->block_ids().end());
  try {
    f.lease->truncate(0);
    ADD_FAILURE() << "truncate below a fully shared arena must throw";
  } catch (const Error& e) {
    EXPECT_TRUE(is_no_block_to_re_reserve(e)) << e.what();
  }
  EXPECT_EQ(f.lease->length(), 8);
  EXPECT_EQ(std::vector<std::int32_t>(f.lease->block_ids().begin(),
                                      f.lease->block_ids().end()),
            ids);
  EXPECT_EQ(f.lease->reserved_blocks(), 0);
  EXPECT_EQ(arena.reserved_blocks(), 0);
  for (const std::int32_t id : ids) EXPECT_EQ(arena.ref_count(id), 2);
}

TEST(ServePagedPool, PagedForwardBitIdenticalToContiguousForward) {
  // The whole paged design rests on this: reading K/V through a block table
  // must produce byte-identical logits to the full forward's contiguous
  // causal attention, for both RoPE/GQA (LLaMA) and NeoX attention.
  for (auto arch : {nn::ArchFamily::kLLaMA, nn::ArchFamily::kNeoX}) {
    nn::GptConfig c;
    c.arch = arch;
    c.vocab_size = 60;
    c.hidden = 16;
    c.n_layers = 2;
    c.n_heads = 2;
    c.n_kv_heads = arch == nn::ArchFamily::kLLaMA ? 1 : 0;
    c.max_seq = 48;
    nn::GptModel model(c);

    nn::PagedKvLayout l;
    l.block_tokens = 4;  // prompt below straddles several blocks
    l.n_layers = c.n_layers;
    l.kv_heads = c.kv_heads();
    l.head_dim = c.head_dim();
    nn::PagedKvArena arena(l, 16);
    nn::KvCache paged(&arena, c.max_seq);

    // Last-row logits of a full re-forward over `tokens`.
    auto contiguous = [&](const std::vector<std::int32_t>& tokens) {
      Tape tape;
      NoGradGuard guard(tape);
      const auto n = static_cast<std::int64_t>(tokens.size());
      Var all = model.forward(tape, tokens, 1, n);
      return std::vector<float>(all.value().data() + (n - 1) * c.vocab_size,
                                all.value().data() + n * c.vocab_size);
    };
    auto expect_equal = [&](const Var& got, const std::vector<float>& want,
                            const char* what) {
      for (std::int64_t vcb = 0; vcb < c.vocab_size; ++vcb) {
        ASSERT_EQ(got.value().at(0, vcb),
                  want[static_cast<std::size_t>(vcb)])
            << what << " logits diverge at vocab " << vcb;
      }
    };

    std::vector<std::int32_t> tokens{7, 3, 11, 19, 2, 5, 23, 41, 8, 13};
    Tape tp;
    expect_equal(model.forward_incremental(tp, tokens, paged),
                 contiguous(tokens), "prefill");
    // A few decode steps, still bit-identical.
    for (std::int32_t tok : {17, 29, 31}) {
      const std::vector<std::int32_t> one{tok};
      tokens.push_back(tok);
      Tape t;
      expect_equal(model.forward_incremental(t, one, paged),
                   contiguous(tokens), "decode");
    }
  }
}

}  // namespace
}  // namespace matgpt
