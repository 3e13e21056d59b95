#include "serve/kv_tier/kv_tier.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <system_error>
#include <utility>

#include "common/error.h"

namespace matgpt::serve::kv_tier {
namespace {

// Spill file layout: Header then `floats` fp32 payload values. The
// checksum (FNV-1a 64 over the raw payload bytes) is what lets a torn
// write, bit rot, or a hand-truncated file degrade to recompute instead
// of resuming a session on wrong KV rows.
constexpr std::uint64_t kMagic = 0x314b56544b475459ull;  // "YGTKTVK1"

struct Header {
  std::uint64_t magic = kMagic;
  std::int64_t tokens = 0;
  std::uint64_t floats = 0;
  std::uint64_t checksum = 0;
};

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t make_key(Space space, std::uint64_t id) {
  MGPT_CHECK(id < (1ull << 63), "kv tier id out of range: " << id);
  return (id << 1) | static_cast<std::uint64_t>(space);
}

bool write_all(int fd, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (bytes > 0) {
    const ::ssize_t n = ::write(fd, p, bytes);
    if (n <= 0) return false;
    p += n;
    bytes -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

KvTierStore::KvTierStore(KvTierConfig config) : config_(std::move(config)) {
  if (disk_enabled()) {
    MGPT_CHECK(!config_.spill_dir.empty(),
               "kv tier: disk_tier_bytes > 0 requires spill_dir");
    std::error_code ec;
    std::filesystem::create_directories(config_.spill_dir, ec);
    // A failed mkdir is not fatal: spill writes will fail and the engine
    // falls back to recompute, which is the contract for a sick disk.
  }
}

KvTierStore::~KvTierStore() {
  std::error_code ec;
  for (auto& [key, entry] : disk_) std::filesystem::remove(entry.path, ec);
  if (disk_enabled()) std::filesystem::remove(config_.spill_dir, ec);
}

std::filesystem::path KvTierStore::spill_path(std::uint64_t key) const {
  const char* space = (key & 1) ? "session" : "preempt";
  return std::filesystem::path(config_.spill_dir) /
         ("spill-" + std::string(space) + "-" + std::to_string(key >> 1) +
          ".kv");
}

bool KvTierStore::write_spill(std::uint64_t key, const Entry& entry) {
  const std::filesystem::path path = spill_path(key);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return false;
  Header header;
  header.tokens = entry.tokens;
  header.floats = entry.data.size();
  header.checksum = fnv1a(entry.data.data(), entry.data.size() * sizeof(float));
  const bool ok = write_all(fd, &header, sizeof(header)) &&
                  write_all(fd, entry.data.data(),
                            entry.data.size() * sizeof(float));
  ::close(fd);
  if (!ok) ::unlink(path.c_str());  // never leave a torn file behind
  return ok;
}

std::optional<KvTierStore::Entry> KvTierStore::read_spill(std::uint64_t key) {
  const std::filesystem::path path = spill_path(key);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  struct ::stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0 ||
      static_cast<std::size_t>(st.st_size) < sizeof(Header)) {
    ::close(fd);
    return std::nullopt;
  }
  const std::size_t file_bytes = static_cast<std::size_t>(st.st_size);
  void* map = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) return std::nullopt;
  std::optional<Entry> result;
  Header header;
  std::memcpy(&header, map, sizeof(header));
  const std::size_t payload = header.floats * sizeof(float);
  if (header.magic == kMagic && header.tokens >= 0 &&
      file_bytes == sizeof(Header) + payload) {
    const auto* bytes = static_cast<const unsigned char*>(map) +
                        sizeof(Header);
    if (fnv1a(bytes, payload) == header.checksum) {
      Entry entry;
      entry.tokens = header.tokens;
      entry.data.resize(header.floats);
      std::memcpy(entry.data.data(), bytes, payload);
      result = std::move(entry);
    }
  }
  ::munmap(map, file_bytes);
  return result;
}

void KvTierStore::erase_disk(
    std::unordered_map<std::uint64_t, DiskEntry>::iterator it) {
  ::unlink(it->second.path.c_str());
  disk_bytes_ -= it->second.bytes;
  disk_lru_.erase(it->second.lru);
  disk_.erase(it);
}

void KvTierStore::insert_disk(std::uint64_t key, std::size_t bytes) {
  disk_lru_.push_back(key);
  DiskEntry de;
  de.path = spill_path(key);
  de.bytes = bytes;
  de.lru = std::prev(disk_lru_.end());
  disk_.emplace(key, std::move(de));
  disk_bytes_ += bytes;
  counters_.demotions += 1;
  counters_.demoted_bytes += bytes;
}

void KvTierStore::rebalance_host() {
  if (config_.host_tier_bytes == 0) return;
  while (host_bytes_ > config_.host_tier_bytes && !host_lru_.empty()) {
    const std::uint64_t victim = host_lru_.front();
    auto it = host_.find(victim);
    const std::size_t bytes = it->second.entry.data.size() * sizeof(float);
    if (write_spill(victim, it->second.entry)) {
      insert_disk(victim, bytes);
    } else {
      counters_.spill_failures += 1;  // entry is lost; resume recomputes
    }
    host_bytes_ -= bytes;
    host_lru_.pop_front();
    host_.erase(it);
  }
  trim_disk();
}

void KvTierStore::trim_disk() {
  while (disk_bytes_ > config_.disk_tier_bytes && !disk_lru_.empty()) {
    erase_disk(disk_.find(disk_lru_.front()));
    counters_.disk_evictions += 1;
  }
}

bool KvTierStore::store(Space space, std::uint64_t id, Entry entry) {
  const std::uint64_t key = make_key(space, id);
  const std::size_t bytes = entry.data.size() * sizeof(float);
  std::lock_guard<std::mutex> lock(mutex_);
  if (host_.count(key) != 0 || disk_.count(key) != 0) return false;
  const bool host_bounded = config_.host_tier_bytes != 0;
  if (host_bounded && !disk_enabled() &&
      host_bytes_ + bytes > config_.host_tier_bytes) {
    // SwapArena-compatible refusal: a lone host tier never evicts a
    // resident entry to admit a new one.
    counters_.store_refusals += 1;
    return false;
  }
  if (host_bounded && bytes > config_.host_tier_bytes) {
    // Too big for host RAM entirely: land directly on disk.
    if (bytes > config_.disk_tier_bytes) {
      counters_.store_refusals += 1;
      return false;
    }
    if (!write_spill(key, entry)) {
      counters_.spill_failures += 1;
      return false;
    }
    insert_disk(key, bytes);
    trim_disk();
  } else {
    host_lru_.push_back(key);
    host_.emplace(key,
                  HostEntry{std::move(entry), std::prev(host_lru_.end())});
    host_bytes_ += bytes;
    counters_.peak_host_bytes =
        std::max(counters_.peak_host_bytes, host_bytes_);
    rebalance_host();
  }
  counters_.stores += 1;
  counters_.stored_bytes += bytes;
  return true;
}

std::optional<KvTierStore::Entry> KvTierStore::take(Space space,
                                                    std::uint64_t id) {
  const std::uint64_t key = make_key(space, id);
  std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = host_.find(key); it != host_.end()) {
    Entry entry = std::move(it->second.entry);
    host_bytes_ -= entry.data.size() * sizeof(float);
    counters_.host_hits += 1;
    counters_.takes += 1;
    host_lru_.erase(it->second.lru);
    host_.erase(it);
    return entry;
  }
  if (auto it = disk_.find(key); it != disk_.end()) {
    std::optional<Entry> entry = read_spill(key);
    erase_disk(it);
    if (entry.has_value()) {
      counters_.disk_hits += 1;
      counters_.takes += 1;
    } else {
      counters_.corrupt_drops += 1;
    }
    return entry;
  }
  return std::nullopt;
}

void KvTierStore::drop(Space space, std::uint64_t id) {
  const std::uint64_t key = make_key(space, id);
  std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = host_.find(key); it != host_.end()) {
    host_bytes_ -= it->second.entry.data.size() * sizeof(float);
    host_lru_.erase(it->second.lru);
    host_.erase(it);
    return;
  }
  if (auto it = disk_.find(key); it != disk_.end()) {
    erase_disk(it);
  }
}

bool KvTierStore::contains(Space space, std::uint64_t id) const {
  return residency(space, id) != Residency::kNone;
}

Residency KvTierStore::residency(Space space, std::uint64_t id) const {
  const std::uint64_t key = make_key(space, id);
  std::lock_guard<std::mutex> lock(mutex_);
  if (host_.count(key) != 0) return Residency::kHost;
  if (disk_.count(key) != 0) return Residency::kDisk;
  return Residency::kNone;
}

TierStats KvTierStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  TierStats s = counters_;
  s.host_bytes_used = host_bytes_;
  s.host_budget = config_.host_tier_bytes;
  s.host_entries = host_.size();
  s.disk_bytes_used = disk_bytes_;
  s.disk_budget = config_.disk_tier_bytes;
  s.disk_entries = disk_.size();
  return s;
}

}  // namespace matgpt::serve::kv_tier
