#pragma once
// Multi-level KV residency hierarchy below the paged arena:
//
//   paged arena  (hot; rows the model reads this step)
//     -> host-RAM tier  (LRU map of contiguous fp32 stashes, byte budget)
//        -> disk tier   (one checksummed spill file per entry, byte budget)
//
// Generalizes PR 5's flat `sched::SwapArena` (a preemption-only stash)
// into the store behind both preemption survival and parked sessions:
// entries live in one of two key namespaces (`Space::kPreempt` keyed by
// request id, `Space::kSession` keyed by session id) so a parked session
// and an in-flight preemption can never collide.
//
// Movement policy:
//   * store() lands in the host tier (MRU); when the host budget
//     overflows, least-recently-stored entries demote to disk; when the
//     disk budget overflows, least-recent disk entries are evicted
//     outright. An entry nothing can hold is refused. With the disk tier
//     disabled the host tier keeps SwapArena's original refusal
//     semantics (never evicts a resident entry to admit a new one).
//   * take() removes and returns the entry wherever it lives: a host
//     entry moves out, a disk entry is read back from its spill file on
//     the calling thread. A missing, truncated, or corrupt spill file
//     (FNV-1a checksum over the payload) returns nullopt — the caller
//     falls back to recompute; wrong bytes are never returned.
//
// The store is synchronous: every movement happens inside the call that
// causes it. Host and arena share one DRAM, so a host restore is a
// memcpy; a disk entry costs one file read at the take() that needs it.
//
// Thread safety: every public method is safe from any thread (one
// internal mutex). Spill files are owned by the store and removed on
// destruction.

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace matgpt::serve {

/// Residency knobs for the tiered KV store, a sub-struct of EngineConfig.
struct KvTierConfig {
  /// Host-RAM tier byte budget (fp32 accounting). 0 = unbounded.
  std::size_t host_tier_bytes = 0;
  /// Disk tier byte budget. 0 disables the disk tier entirely.
  std::size_t disk_tier_bytes = 0;
  /// Directory for spill files; required when disk_tier_bytes > 0.
  /// Created on demand, files removed when the store is destroyed.
  std::string spill_dir;
};

namespace kv_tier {

/// Key namespace: preempted in-flight requests vs parked sessions.
enum class Space : std::uint8_t { kPreempt = 0, kSession = 1 };

/// Where an entry's bytes currently live.
enum class Residency { kNone, kHost, kDisk };

inline const char* residency_name(Residency r) {
  switch (r) {
    case Residency::kNone:
      return "none";
    case Residency::kHost:
      return "host";
    case Residency::kDisk:
      return "disk";
  }
  return "?";
}

/// Counter snapshot (lifetime totals plus current occupancy).
struct TierStats {
  std::size_t host_bytes_used = 0;
  std::size_t host_budget = 0;
  std::size_t host_entries = 0;
  std::size_t peak_host_bytes = 0;
  std::size_t disk_bytes_used = 0;
  std::size_t disk_budget = 0;
  std::size_t disk_entries = 0;
  /// Successful store()/take() calls.
  std::uint64_t stores = 0;
  std::uint64_t takes = 0;
  std::uint64_t stored_bytes = 0;
  /// take() served from host / from a disk read.
  std::uint64_t host_hits = 0;
  std::uint64_t disk_hits = 0;
  /// Tier movement: host->disk spills.
  std::uint64_t demotions = 0;
  std::uint64_t demoted_bytes = 0;
  /// Entries dropped to keep the disk tier under budget.
  std::uint64_t disk_evictions = 0;
  /// store() calls refused because no tier could hold the entry.
  std::uint64_t store_refusals = 0;
  /// Spill writes that failed (ENOSPC, bad dir, ...); entry dropped.
  std::uint64_t spill_failures = 0;
  /// Spill reads rejected (bad magic/size/checksum); entry dropped.
  std::uint64_t corrupt_drops = 0;
};

class KvTierStore {
 public:
  struct Entry {
    /// [layer][K rows][V rows], `tokens` rows per side per layer
    /// (KvCache::swap_out's layout).
    std::vector<float> data;
    std::int64_t tokens = 0;
  };

  explicit KvTierStore(KvTierConfig config);
  ~KvTierStore();
  KvTierStore(const KvTierStore&) = delete;
  KvTierStore& operator=(const KvTierStore&) = delete;

  /// Park `entry` under (`space`, `id`). Refuses (false, no side effects
  /// beyond counters) when the id is already resident, when no tier's
  /// budget can hold the entry, or when the only possible home was a
  /// spill file that failed to write. On false the caller must keep
  /// enough state to recompute.
  bool store(Space space, std::uint64_t id, Entry entry);

  /// Remove and return the entry wherever it lives. nullopt when absent
  /// or when its spill file is missing/truncated/corrupt (the entry is
  /// dropped) — the caller recomputes; corrupt bytes never escape.
  std::optional<Entry> take(Space space, std::uint64_t id);

  /// Drop an entry (and its spill file) without restoring it.
  void drop(Space space, std::uint64_t id);

  bool contains(Space space, std::uint64_t id) const;
  Residency residency(Space space, std::uint64_t id) const;

  TierStats stats() const;
  const KvTierConfig& config() const { return config_; }

 private:
  struct HostEntry {
    Entry entry;
    std::list<std::uint64_t>::iterator lru;
  };
  struct DiskEntry {
    std::filesystem::path path;
    std::size_t bytes = 0;  // payload bytes (header excluded)
    std::list<std::uint64_t>::iterator lru;
  };

  bool disk_enabled() const { return config_.disk_tier_bytes > 0; }
  std::filesystem::path spill_path(std::uint64_t key) const;
  // All of the below require `mutex_` to be held.
  bool write_spill(std::uint64_t key, const Entry& entry);
  std::optional<Entry> read_spill(std::uint64_t key);
  /// Unlink a disk entry's spill file and forget it.
  void erase_disk(std::unordered_map<std::uint64_t, DiskEntry>::iterator it);
  /// Index a spill file just written for `key` as the disk tier's MRU.
  void insert_disk(std::uint64_t key, std::size_t bytes);
  void rebalance_host();
  void trim_disk();

  KvTierConfig config_;
  mutable std::mutex mutex_;

  // MRU at the back of each list; demotion/eviction pops the front.
  std::unordered_map<std::uint64_t, HostEntry> host_;
  std::list<std::uint64_t> host_lru_;
  std::size_t host_bytes_ = 0;
  std::unordered_map<std::uint64_t, DiskEntry> disk_;
  std::list<std::uint64_t> disk_lru_;
  std::size_t disk_bytes_ = 0;
  TierStats counters_;  // occupancy fields filled on stats()
};

}  // namespace kv_tier
}  // namespace matgpt::serve
