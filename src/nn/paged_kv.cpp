#include "nn/paged_kv.h"

#include <algorithm>

#include "common/error.h"
#include "nn/gpt.h"

namespace matgpt::nn {

namespace {
std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}
}  // namespace

void PagedKvLayout::validate() const {
  MGPT_CHECK(block_tokens > 0 && n_layers > 0 && kv_heads > 0 && head_dim > 0,
             "paged KV layout dimensions must be positive");
}

PagedKvArena::PagedKvArena(const PagedKvLayout& layout, std::int64_t n_blocks)
    : layout_(layout), n_blocks_(n_blocks) {
  layout_.validate();
  MGPT_CHECK(n_blocks > 0, "paged KV arena requires at least one block");
  storage_.resize(static_cast<std::size_t>(n_blocks * layout_.block_floats()));
  refcounts_.assign(static_cast<std::size_t>(n_blocks), 0);
  free_.reserve(static_cast<std::size_t>(n_blocks));
  // Pop order is back-first; seed descending so block 0 is handed out first
  // (deterministic layouts make the tests readable).
  for (std::int64_t b = n_blocks - 1; b >= 0; --b) {
    free_.push_back(static_cast<std::int32_t>(b));
  }
}

std::int64_t PagedKvArena::free_blocks() const {
  std::lock_guard lock(mutex_);
  return static_cast<std::int64_t>(free_.size());
}

std::int64_t PagedKvArena::used_blocks() const {
  std::lock_guard lock(mutex_);
  return n_blocks_ - static_cast<std::int64_t>(free_.size());
}

std::int64_t PagedKvArena::unreserved_free_blocks() const {
  std::lock_guard lock(mutex_);
  return static_cast<std::int64_t>(free_.size()) - reserved_;
}

std::int64_t PagedKvArena::reserved_blocks() const {
  std::lock_guard lock(mutex_);
  return reserved_;
}

std::int64_t PagedKvArena::shared_blocks() const {
  std::lock_guard lock(mutex_);
  return shared_;
}

std::uint64_t PagedKvArena::cow_forks() const {
  std::lock_guard lock(mutex_);
  return cow_forks_;
}

std::uint64_t PagedKvArena::cow_rows() const {
  std::lock_guard lock(mutex_);
  return cow_rows_;
}

bool PagedKvArena::try_reserve(std::int64_t n) {
  MGPT_CHECK(n >= 0, "cannot reserve a negative block count");
  std::lock_guard lock(mutex_);
  if (static_cast<std::int64_t>(free_.size()) - reserved_ < n) return false;
  reserved_ += n;
  return true;
}

void PagedKvArena::unreserve(std::int64_t n) {
  std::lock_guard lock(mutex_);
  MGPT_CHECK(n >= 0 && n <= reserved_,
             "unreserve of " << n << " blocks exceeds " << reserved_
                             << " outstanding reservations");
  reserved_ -= n;
}

std::int32_t PagedKvArena::allocate(std::int64_t* caller_reserved) {
  std::lock_guard lock(mutex_);
  if (caller_reserved != nullptr && *caller_reserved > 0) {
    // A reservation is a promise backed by the free list: try_reserve only
    // granted it against unreserved free blocks, and reserved blocks are
    // never handed to anyone else.
    MGPT_CHECK(!free_.empty() && reserved_ > 0,
               "paged KV arena reservation invariant violated");
    *caller_reserved -= 1;
    reserved_ -= 1;
  } else if (static_cast<std::int64_t>(free_.size()) - reserved_ <= 0) {
    return -1;  // exhausted (free blocks are all spoken for)
  }
  const std::int32_t id = free_.back();
  free_.pop_back();
  refcounts_[static_cast<std::size_t>(id)] = 1;
  return id;
}

void PagedKvArena::check_id(std::int32_t id) const {
  MGPT_CHECK(id >= 0 && id < n_blocks_,
             "paged KV block id " << id << " outside arena of " << n_blocks_
                                  << " blocks");
}

void PagedKvArena::add_ref(std::int32_t id) {
  check_id(id);
  std::lock_guard lock(mutex_);
  std::int32_t& rc = refcounts_[static_cast<std::size_t>(id)];
  MGPT_CHECK(rc > 0, "add_ref of a free paged KV block");
  rc += 1;
  if (rc == 2) shared_ += 1;
}

void PagedKvArena::release(std::int32_t id, std::int64_t* reclaim) {
  check_id(id);
  std::lock_guard lock(mutex_);
  std::int32_t& rc = refcounts_[static_cast<std::size_t>(id)];
  MGPT_CHECK(rc > 0, "release of a free paged KV block");
  if (rc == 2) shared_ -= 1;
  rc -= 1;
  if (rc == 0) {
    free_.push_back(id);
    if (reclaim != nullptr) {
      reserved_ += 1;
      *reclaim += 1;
    }
  }
}

std::int32_t PagedKvArena::ref_count(std::int32_t id) const {
  check_id(id);
  std::lock_guard lock(mutex_);
  return refcounts_[static_cast<std::size_t>(id)];
}

float* PagedKvArena::k_data(std::int32_t id, std::int64_t layer) {
  check_id(id);
  return storage_.data() + id * layout_.block_floats() +
         layer * 2 * layout_.side_floats();
}

float* PagedKvArena::v_data(std::int32_t id, std::int64_t layer) {
  return k_data(id, layer) + layout_.side_floats();
}

const float* PagedKvArena::k_data(std::int32_t id, std::int64_t layer) const {
  return const_cast<PagedKvArena*>(this)->k_data(id, layer);
}

const float* PagedKvArena::v_data(std::int32_t id, std::int64_t layer) const {
  return const_cast<PagedKvArena*>(this)->v_data(id, layer);
}

void PagedKvArena::note_cow(std::int64_t rows_copied) {
  std::lock_guard lock(mutex_);
  cow_forks_ += 1;
  cow_rows_ += static_cast<std::uint64_t>(rows_copied);
}

KvCache::KvCache(PagedKvArena* arena, std::int64_t token_capacity) {
  bind(arena, token_capacity);
}

KvCache::~KvCache() { reset(); }

void KvCache::bind(PagedKvArena* arena, std::int64_t token_capacity) {
  MGPT_CHECK(arena != nullptr, "KvCache requires an arena");
  arena_ = arena;
  token_capacity_ = token_capacity;
  const auto layers = static_cast<std::size_t>(arena_->layout().n_layers);
  k_ptrs_.resize(layers);
  v_ptrs_.resize(layers);
}

void KvCache::reserve(const GptConfig& config, std::int64_t capacity_tokens) {
  MGPT_CHECK(arena_ == nullptr, "KvCache::reserve requires an unbound cache");
  const std::int64_t cap =
      capacity_tokens > 0 ? capacity_tokens : config.max_seq;
  PagedKvLayout layout;
  layout.n_layers = config.n_layers;
  layout.kv_heads = config.kv_heads();
  layout.head_dim = config.head_dim();
  own_arena_ = std::make_unique<PagedKvArena>(
      layout, ceil_div(cap, layout.block_tokens));
  bind(own_arena_.get(), cap);
}

void KvCache::adopt_reservation(std::int64_t blocks) {
  MGPT_CHECK(blocks >= 0, "cannot adopt a negative reservation");
  reserved_ += blocks;
}

const float* const* KvCache::k_blocks(std::int64_t layer) const {
  return k_ptrs_[static_cast<std::size_t>(layer)].data();
}

const float* const* KvCache::v_blocks(std::int64_t layer) const {
  return v_ptrs_[static_cast<std::size_t>(layer)].data();
}

void KvCache::refresh_ptrs(std::int64_t block_idx) {
  const std::int32_t id = blocks_[static_cast<std::size_t>(block_idx)];
  for (std::size_t l = 0; l < k_ptrs_.size(); ++l) {
    k_ptrs_[l][static_cast<std::size_t>(block_idx)] =
        arena_->k_data(id, static_cast<std::int64_t>(l));
    v_ptrs_[l][static_cast<std::size_t>(block_idx)] =
        arena_->v_data(id, static_cast<std::int64_t>(l));
  }
}

void KvCache::ensure_block(std::int64_t block_idx) {
  while (static_cast<std::int64_t>(blocks_.size()) <= block_idx) {
    const std::int32_t id = arena_->allocate(&reserved_);
    MGPT_CHECK(id >= 0,
               "paged KV arena out of blocks (reservation exhausted and no "
               "unreserved block free)");
    blocks_.push_back(id);
    for (auto& p : k_ptrs_) p.push_back(nullptr);
    for (auto& p : v_ptrs_) p.push_back(nullptr);
    refresh_ptrs(static_cast<std::int64_t>(blocks_.size()) - 1);
  }
}

void KvCache::make_private(std::int64_t block_idx) {
  const std::int32_t old_id = blocks_[static_cast<std::size_t>(block_idx)];
  if (arena_->ref_count(old_id) <= 1) return;  // already exclusive
  // Copy-on-write fork: materialize a private copy of every layer's
  // committed rows, then drop our reference on the shared original. Only
  // the rows the table covers are copied — at most one block's worth per
  // hit, never the whole prefix.
  const std::int32_t new_id = arena_->allocate(&reserved_);
  MGPT_CHECK(new_id >= 0, "paged KV arena out of blocks during CoW fork");
  const PagedKvLayout& layout = arena_->layout();
  const std::int64_t bs = layout.block_tokens;
  const std::int64_t rows =
      std::clamp<std::int64_t>(length_ - block_idx * bs, 0, bs);
  for (std::int64_t l = 0; l < layout.n_layers; ++l) {
    std::copy_n(arena_->k_data(old_id, l), rows * layout.row(),
                arena_->k_data(new_id, l));
    std::copy_n(arena_->v_data(old_id, l), rows * layout.row(),
                arena_->v_data(new_id, l));
  }
  blocks_[static_cast<std::size_t>(block_idx)] = new_id;
  refresh_ptrs(block_idx);
  arena_->release(old_id);
  arena_->note_cow(rows);
}

void KvCache::append(std::int64_t layer, const float* k, const float* v,
                     std::int64_t n_tokens) {
  MGPT_CHECK(n_tokens > 0, "KV append requires tokens");
  MGPT_CHECK(token_capacity_ == 0 || length_ + n_tokens <= token_capacity_,
             "kv cache capacity " << token_capacity_ << " exceeded (have "
                                  << length_ << ", appending " << n_tokens
                                  << ")");
  const PagedKvLayout& layout = arena_->layout();
  const std::int64_t bs = layout.block_tokens;
  const std::int64_t row = layout.row();
  const auto l = static_cast<std::size_t>(layer);
  for (std::int64_t pos = length_, end = length_ + n_tokens; pos < end;) {
    const std::int64_t b = pos / bs;
    const std::int64_t o = pos % bs;
    ensure_block(b);
    make_private(b);
    const std::int64_t take = std::min(end - pos, bs - o);
    const auto bi = static_cast<std::size_t>(b);
    std::copy_n(k, take * row, k_ptrs_[l][bi] + o * row);
    std::copy_n(v, take * row, v_ptrs_[l][bi] + o * row);
    pos += take;
    k += take * row;
    v += take * row;
  }
}

void KvCache::commit(std::int64_t n_tokens) {
  MGPT_CHECK(n_tokens >= 0 &&
                 length_ + n_tokens <=
                     static_cast<std::int64_t>(blocks_.size()) *
                         block_tokens(),
             "commit of " << n_tokens << " tokens past the appended rows");
  length_ += n_tokens;
}

void KvCache::truncate(std::int64_t len) {
  MGPT_CHECK(len >= 0 && len <= length_,
             "truncate length " << len << " outside cached history of "
                                << length_ << " tokens");
  if (arena_ == nullptr) {
    length_ = len;
    return;
  }
  const std::int64_t bs = block_tokens();
  const auto keep = static_cast<std::size_t>(ceil_div(len, bs));
  // A shared block the next append must fork: the partial last block of an
  // n-token history while another holder references it. Its fork is funded
  // by a reservation unit already held.
  auto fork_pending = [&](std::int64_t n) {
    return n % bs != 0 &&
           arena_->ref_count(blocks_[static_cast<std::size_t>(
               ceil_div(n, bs) - 1)]) > 1;
  };
  // The sequence must still be able to re-grow to its admitted budget. A
  // dropped block we were the last holder of returns its unit on release;
  // one another holder (the prefix tree) still references frees nothing,
  // so its unit is re-reserved here — as is one for a shared block that
  // becomes the partial write target. Reserved before any state changes,
  // so a refusal leaves the cache as it was.
  std::int64_t units = (fork_pending(len) ? 1 : 0) -
                       (fork_pending(length_) ? 1 : 0);
  for (std::size_t b = keep; b < blocks_.size(); ++b) {
    units += arena_->ref_count(blocks_[b]) > 1 ? 1 : 0;
  }
  MGPT_CHECK(arena_->try_reserve(units),
             "paged KV arena has no block to re-reserve for a truncate "
             "below a shared prefix ("
                 << units << " needed)");
  reserved_ += units;
  length_ = len;
  while (blocks_.size() > keep) {
    arena_->release(blocks_.back(), &reserved_);
    blocks_.pop_back();
    for (auto& p : k_ptrs_) p.pop_back();
    for (auto& p : v_ptrs_) p.pop_back();
  }
}

void KvCache::copy_rows(std::int64_t layer, std::int64_t start,
                        std::int64_t len, float* k_out, float* v_out) const {
  MGPT_CHECK(start >= 0 && len > 0 && start + len <= length_,
             "copy_rows range [" << start << ", " << start + len
                                 << ") outside cached history of " << length_
                                 << " tokens");
  const PagedKvLayout& layout = arena_->layout();
  const std::int64_t bs = layout.block_tokens;
  const std::int64_t row = layout.row();
  const auto& kp = k_ptrs_[static_cast<std::size_t>(layer)];
  const auto& vp = v_ptrs_[static_cast<std::size_t>(layer)];
  std::int64_t pos = start;
  while (pos < start + len) {
    const std::int64_t b = pos / bs;
    const std::int64_t o = pos % bs;
    const std::int64_t take = std::min(start + len - pos, bs - o);
    std::copy_n(kp[static_cast<std::size_t>(b)] + o * row, take * row, k_out);
    std::copy_n(vp[static_cast<std::size_t>(b)] + o * row, take * row, v_out);
    k_out += take * row;
    v_out += take * row;
    pos += take;
  }
}

void KvCache::alias_blocks(std::span<const std::int32_t> ids,
                           std::int64_t tokens) {
  MGPT_CHECK(blocks_.empty() && length_ == 0,
             "alias_blocks requires an empty cache");
  const std::int64_t bs = block_tokens();
  MGPT_CHECK(tokens > 0 &&
                 static_cast<std::int64_t>(ids.size()) == ceil_div(tokens, bs),
             "alias of " << ids.size() << " blocks cannot cover " << tokens
                         << " tokens at block size " << bs);
  MGPT_CHECK(token_capacity_ == 0 || tokens <= token_capacity_,
             "aliased prefix of " << tokens << " tokens exceeds capacity "
                                  << token_capacity_);
  for (const std::int32_t id : ids) {
    arena_->add_ref(id);
    blocks_.push_back(id);
    for (auto& p : k_ptrs_) p.push_back(nullptr);
    for (auto& p : v_ptrs_) p.push_back(nullptr);
    refresh_ptrs(static_cast<std::int64_t>(blocks_.size()) - 1);
  }
  length_ = tokens;
}

std::int64_t KvCache::swap_floats(std::int64_t tokens) const {
  return arena_->layout().n_layers * 2 * tokens * arena_->layout().row();
}

void KvCache::swap_out(std::vector<float>& host) const {
  MGPT_CHECK(length_ > 0, "swap_out of an empty cache");
  const std::int64_t side = length_ * arena_->layout().row();
  host.resize(static_cast<std::size_t>(swap_floats(length_)));
  float* out = host.data();
  for (std::int64_t l = 0; l < arena_->layout().n_layers; ++l) {
    copy_rows(l, 0, length_, out, out + side);
    out += 2 * side;
  }
}

void KvCache::swap_in(std::span<const float> host, std::int64_t tokens) {
  MGPT_CHECK(blocks_.empty() && length_ == 0,
             "swap_in requires an empty cache");
  MGPT_CHECK(tokens > 0, "swap_in requires tokens");
  MGPT_CHECK(static_cast<std::int64_t>(host.size()) == swap_floats(tokens),
             "swap_in buffer holds " << host.size() << " floats; " << tokens
                                     << " tokens need "
                                     << swap_floats(tokens));
  const std::int64_t side = tokens * arena_->layout().row();
  const float* in = host.data();
  for (std::int64_t l = 0; l < arena_->layout().n_layers; ++l) {
    append(l, in, in + side, tokens);
    in += 2 * side;
  }
  commit(tokens);
}

void KvCache::reset() {
  length_ = 0;
  if (arena_ == nullptr) return;
  for (const std::int32_t id : blocks_) arena_->release(id);
  blocks_.clear();
  for (auto& p : k_ptrs_) p.clear();
  for (auto& p : v_ptrs_) p.clear();
  if (reserved_ > 0) {
    arena_->unreserve(reserved_);
    reserved_ = 0;
  }
}

}  // namespace matgpt::nn
