// Tests for src/serve/kv_tier and the engine sessions API built on it:
// host-tier LRU demotion order, disk spill round trips, fault injection
// (corrupt / truncated / missing / unwritable spill files must degrade to
// recompute — never wrong bytes, never a crash), the KvTierConfig
// validation, and session
// park/resume byte-identity (greedy, stochastic, speculative) across every
// residency path: host hit, disk hit after demotion, and recompute
// fallback.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "nn/gpt.h"
#include "serve/engine.h"
#include "serve/kv_tier/kv_tier.h"
#include "serve/spec/proposer.h"

namespace matgpt {
namespace {

namespace fs = std::filesystem;
using serve::kv_tier::KvTierStore;
using serve::kv_tier::Residency;
using serve::kv_tier::Space;

// Per-test spill directory under the system temp dir; the store removes
// its files (and the directory) on destruction, remove_all covers the
// fault-injection tests that replace or litter it.
class SpillDir {
 public:
  explicit SpillDir(const std::string& name)
      : path_(fs::temp_directory_path() /
              ("matgpt_kv_tier_test_" + std::to_string(::getpid()) + "_" +
               name)) {
    fs::remove_all(path_);
  }
  ~SpillDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const { return path_; }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

KvTierStore::Entry make_entry(std::size_t floats, float fill,
                              std::int64_t tokens) {
  KvTierStore::Entry e;
  e.data.assign(floats, fill);
  e.tokens = tokens;
  return e;
}

// ---------------------------------------------------------------------------
// KvTierStore: LRU demotion + disk round trip
// ---------------------------------------------------------------------------

TEST(KvTierStore, LruDemotionOrderAndDiskEviction) {
  SpillDir dir("lru");
  serve::KvTierConfig tc;
  tc.host_tier_bytes = 128;  // two 64-byte entries
  tc.disk_tier_bytes = 128;  // two entries on disk, then LRU eviction
  tc.spill_dir = dir.str();
  KvTierStore store(tc);

  ASSERT_TRUE(store.store(Space::kPreempt, 1, make_entry(16, 1.0f, 1)));
  ASSERT_TRUE(store.store(Space::kPreempt, 2, make_entry(16, 2.0f, 1)));
  EXPECT_EQ(store.residency(Space::kPreempt, 1), Residency::kHost);
  EXPECT_EQ(store.residency(Space::kPreempt, 2), Residency::kHost);

  // Third store overflows host: the LEAST recently stored entry (1)
  // demotes; 2 and 3 stay hot.
  ASSERT_TRUE(store.store(Space::kPreempt, 3, make_entry(16, 3.0f, 1)));
  EXPECT_EQ(store.residency(Space::kPreempt, 1), Residency::kDisk);
  EXPECT_EQ(store.residency(Space::kPreempt, 2), Residency::kHost);
  EXPECT_EQ(store.residency(Space::kPreempt, 3), Residency::kHost);
  EXPECT_EQ(store.stats().demotions, 1u);

  // Fourth store demotes 2 — strict store order, 3 is more recent.
  ASSERT_TRUE(store.store(Space::kPreempt, 4, make_entry(16, 4.0f, 1)));
  EXPECT_EQ(store.residency(Space::kPreempt, 2), Residency::kDisk);
  EXPECT_EQ(store.residency(Space::kPreempt, 3), Residency::kHost);
  EXPECT_EQ(store.stats().demotions, 2u);

  // Fifth store demotes 3; the disk tier now holds 1, 2, 3 = 192 bytes,
  // over its 128-byte budget, so the least-recent disk entry (1) is
  // evicted outright.
  ASSERT_TRUE(store.store(Space::kPreempt, 5, make_entry(16, 5.0f, 1)));
  EXPECT_EQ(store.residency(Space::kPreempt, 1), Residency::kNone);
  EXPECT_EQ(store.residency(Space::kPreempt, 2), Residency::kDisk);
  EXPECT_EQ(store.residency(Space::kPreempt, 3), Residency::kDisk);
  EXPECT_EQ(store.stats().disk_evictions, 1u);
  EXPECT_FALSE(store.take(Space::kPreempt, 1).has_value());

  // A demoted entry round-trips byte-exactly through its spill file.
  const auto entry = store.take(Space::kPreempt, 2);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->tokens, 1);
  ASSERT_EQ(entry->data.size(), 16u);
  for (const float v : entry->data) EXPECT_EQ(v, 2.0f);
  EXPECT_EQ(store.stats().disk_hits, 1u);
}

TEST(KvTierStore, OversizedEntryLandsDirectlyOnDisk) {
  SpillDir dir("direct");
  serve::KvTierConfig tc;
  tc.host_tier_bytes = 64;
  tc.disk_tier_bytes = 1 << 20;
  tc.spill_dir = dir.str();
  KvTierStore store(tc);

  // 1024 bytes > the 64-byte host budget: straight to disk, bytes intact.
  KvTierStore::Entry big;
  for (std::size_t i = 0; i < 256; ++i) {
    big.data.push_back(static_cast<float>(i) * 0.5f);
  }
  big.tokens = 8;
  const KvTierStore::Entry want = big;
  ASSERT_TRUE(store.store(Space::kSession, 7, std::move(big)));
  EXPECT_EQ(store.residency(Space::kSession, 7), Residency::kDisk);
  EXPECT_EQ(store.stats().host_entries, 0u);

  const auto got = store.take(Space::kSession, 7);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tokens, want.tokens);
  EXPECT_EQ(got->data, want.data);
  EXPECT_EQ(store.residency(Space::kSession, 7), Residency::kNone);
}

TEST(KvTierStore, SpacesAreDistinctNamespaces) {
  serve::KvTierConfig tc;  // unbounded host, no disk
  KvTierStore store(tc);
  ASSERT_TRUE(store.store(Space::kPreempt, 9, make_entry(4, 1.0f, 1)));
  ASSERT_TRUE(store.store(Space::kSession, 9, make_entry(8, 2.0f, 2)));
  // Duplicate id within a space is refused.
  EXPECT_FALSE(store.store(Space::kPreempt, 9, make_entry(4, 3.0f, 1)));
  const auto preempt = store.take(Space::kPreempt, 9);
  const auto session = store.take(Space::kSession, 9);
  ASSERT_TRUE(preempt.has_value());
  ASSERT_TRUE(session.has_value());
  EXPECT_EQ(preempt->data.size(), 4u);
  EXPECT_EQ(session->data.size(), 8u);
}

TEST(KvTierStore, RefusesWhenNoTierCanHold) {
  SpillDir dir("refuse");
  serve::KvTierConfig tc;
  tc.host_tier_bytes = 64;
  tc.disk_tier_bytes = 128;
  tc.spill_dir = dir.str();
  KvTierStore store(tc);
  // 256 bytes: too big for host AND for disk -> refused, no side effects.
  EXPECT_FALSE(store.store(Space::kSession, 1, make_entry(64, 1.0f, 2)));
  EXPECT_EQ(store.stats().store_refusals, 1u);
  EXPECT_EQ(store.residency(Space::kSession, 1), Residency::kNone);
}

// ---------------------------------------------------------------------------
// Fault injection: corrupt / truncated / missing / unwritable spill files
// ---------------------------------------------------------------------------

fs::path session_spill_path(const SpillDir& dir, std::uint64_t id) {
  return dir.path() / ("spill-session-" + std::to_string(id) + ".kv");
}

void store_on_disk(KvTierStore& store, std::uint64_t id) {
  ASSERT_TRUE(store.store(Space::kSession, id, make_entry(256, 1.5f, 8)));
  ASSERT_EQ(store.residency(Space::kSession, id), Residency::kDisk);
}

TEST(KvTierStore, CorruptSpillPayloadIsDroppedNotReturned) {
  SpillDir dir("corrupt");
  serve::KvTierConfig tc;
  tc.host_tier_bytes = 64;  // force straight-to-disk
  tc.disk_tier_bytes = 1 << 20;
  tc.spill_dir = dir.str();
  KvTierStore store(tc);
  store_on_disk(store, 1);

  // Flip one payload byte past the header: the checksum must catch it.
  const fs::path path = session_spill_path(dir, 1);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(48);  // inside the payload (header is 32 bytes)
    const char bad = '\x5a';
    f.write(&bad, 1);
  }
  EXPECT_FALSE(store.take(Space::kSession, 1).has_value());
  EXPECT_EQ(store.stats().corrupt_drops, 1u);
  EXPECT_EQ(store.residency(Space::kSession, 1), Residency::kNone);
}

TEST(KvTierStore, TruncatedSpillIsDroppedNotReturned) {
  SpillDir dir("trunc");
  serve::KvTierConfig tc;
  tc.host_tier_bytes = 64;
  tc.disk_tier_bytes = 1 << 20;
  tc.spill_dir = dir.str();
  KvTierStore store(tc);
  store_on_disk(store, 2);
  fs::resize_file(session_spill_path(dir, 2), 40);  // mid-payload cut
  EXPECT_FALSE(store.take(Space::kSession, 2).has_value());
  EXPECT_EQ(store.stats().corrupt_drops, 1u);
}

TEST(KvTierStore, MissingSpillFileIsDroppedNotReturned) {
  SpillDir dir("missing");
  serve::KvTierConfig tc;
  tc.host_tier_bytes = 64;
  tc.disk_tier_bytes = 1 << 20;
  tc.spill_dir = dir.str();
  KvTierStore store(tc);
  store_on_disk(store, 3);
  fs::remove(session_spill_path(dir, 3));
  EXPECT_FALSE(store.take(Space::kSession, 3).has_value());
  EXPECT_EQ(store.stats().corrupt_drops, 1u);
}

TEST(KvTierStore, UnwritableSpillDirDegradesToRefusalAndDrop) {
  SpillDir dir("enospc");
  serve::KvTierConfig tc;
  tc.host_tier_bytes = 128;
  tc.disk_tier_bytes = 1 << 20;
  tc.spill_dir = dir.str();
  KvTierStore store(tc);

  // Simulate a dead disk (the ENOSPC/EIO class of failures): replace the
  // spill directory with a regular file so every open() fails.
  fs::remove_all(dir.path());
  { std::ofstream block(dir.path()); }

  // Straight-to-disk store: the write fails -> store refuses, caller
  // keeps recompute state.
  EXPECT_FALSE(store.store(Space::kSession, 1, make_entry(256, 1.0f, 8)));
  EXPECT_GE(store.stats().spill_failures, 1u);

  // Demotion spill failure: the victim entry is lost (take -> recompute),
  // but the store itself stays consistent and the new entry is resident.
  ASSERT_TRUE(store.store(Space::kSession, 2, make_entry(16, 2.0f, 1)));
  ASSERT_TRUE(store.store(Space::kSession, 3, make_entry(16, 3.0f, 1)));
  ASSERT_TRUE(store.store(Space::kSession, 4, make_entry(16, 4.0f, 1)));
  EXPECT_FALSE(store.take(Space::kSession, 2).has_value());
  EXPECT_TRUE(store.take(Space::kSession, 4).has_value());
  EXPECT_GE(store.stats().spill_failures, 2u);
}

// ---------------------------------------------------------------------------
// KvTierConfig validation
// ---------------------------------------------------------------------------

nn::GptConfig tier_model_config() {
  nn::GptConfig c;
  c.arch = nn::ArchFamily::kLLaMA;
  c.vocab_size = 50;
  c.hidden = 16;
  c.n_layers = 2;
  c.n_heads = 2;
  c.n_kv_heads = 1;
  c.max_seq = 64;
  return c;
}

TEST(KvTierConfigValidate, RejectsBadKnobs) {
  nn::GptModel model(tier_model_config());
  {
    serve::EngineConfig ec;
    ec.kv_tier.disk_tier_bytes = 1024;  // disk tier without a spill_dir
    EXPECT_THROW(serve::InferenceEngine(model, ec), Error);
  }
}

TEST(KvTierConfigValidate, HostTierBudgetReachesTheStore) {
  nn::GptModel model(tier_model_config());
  serve::EngineConfig ec;
  ec.kv_tier.host_tier_bytes = 4096;
  serve::InferenceEngine engine(model, ec);
  EXPECT_EQ(engine.tier().config().host_tier_bytes, 4096u);
}

// ---------------------------------------------------------------------------
// Engine sessions: lifecycle checks
// ---------------------------------------------------------------------------

serve::Request session_request(std::uint64_t session_id,
                               std::vector<std::int32_t> prompt,
                               std::int64_t max_new) {
  serve::Request req;
  req.session_id = session_id;
  req.prompt = std::move(prompt);
  req.max_new_tokens = max_new;
  req.sampling.temperature = 0.0f;
  return req;
}

TEST(ServeSessions, LifecycleChecks) {
  nn::GptModel model(tier_model_config());
  serve::EngineConfig ec;
  serve::InferenceEngine engine(model, ec);

  EXPECT_FALSE(engine.has_session(1));
  const std::uint64_t a = engine.create_session();
  const std::uint64_t b = engine.create_session();
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  EXPECT_TRUE(engine.has_session(a));
  EXPECT_EQ(engine.session_count(), 2u);

  // Unknown session and empty first prompt are rejected up front.
  EXPECT_THROW(engine.resume(session_request(999, {1, 2}, 4)), Error);
  EXPECT_THROW(engine.resume(session_request(a, {}, 4)), Error);
  EXPECT_FALSE(engine.session_busy(a));  // rejections never wedge the slot

  // One request in flight per session: the second submit throws, and the
  // slot is released once the first retires.
  auto f = engine.resume(session_request(a, {1, 2, 3}, 4));
  EXPECT_TRUE(engine.session_busy(a));
  EXPECT_THROW(engine.resume(session_request(a, {4}, 4)), Error);
  engine.run_until_idle();
  EXPECT_EQ(f.get().status, serve::RequestStatus::kOk);
  EXPECT_FALSE(engine.session_busy(a));

  const auto info = engine.session_info(a);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->tokens, 3 + 4);
  EXPECT_EQ(info->turns, 1);
  EXPECT_FALSE(info->busy);
  EXPECT_EQ(info->residency, Residency::kHost);  // unbounded host tier

  engine.drop_session(a);
  EXPECT_FALSE(engine.has_session(a));
  EXPECT_FALSE(engine.tier().contains(Space::kSession, a));
  EXPECT_EQ(engine.session_count(), 1u);
  EXPECT_FALSE(engine.session_info(a).has_value());
}

// ---------------------------------------------------------------------------
// Session park/resume byte-identity across residency paths
// ---------------------------------------------------------------------------

enum class Flavor { kGreedy, kStochastic, kSpeculative };

serve::Request flavored_request(std::uint64_t id, Flavor flavor,
                                std::vector<std::int32_t> prompt,
                                std::int64_t max_new) {
  serve::Request req;
  req.id = id;
  req.prompt = std::move(prompt);
  req.max_new_tokens = max_new;
  if (flavor == Flavor::kStochastic) {
    req.sampling.temperature = 0.8f;
    req.sampling.top_k = 20;
    req.sampling.top_p = 0.9f;
  } else {
    req.sampling.temperature = 0.0f;  // greedy; spec stays greedy too
  }
  req.sampling.seed = 0x5e55 + id;
  if (flavor == Flavor::kSpeculative) req.spec_k = 2;
  return req;
}

serve::EngineConfig flavored_engine_config(nn::GptModel& model,
                                           Flavor flavor) {
  serve::EngineConfig ec;
  ec.max_batch = 4;
  ec.kv_slots = 4;
  if (flavor == Flavor::kSpeculative) {
    ec.proposer = std::make_shared<serve::spec::LayerSkipDraft>(model, 1);
  }
  return ec;
}

std::vector<std::int32_t> prompt_for(std::uint64_t id) {
  std::vector<std::int32_t> p;
  for (std::int64_t t = 0; t < 8; ++t) {
    p.push_back(static_cast<std::int32_t>((id * 11 + t * 3) % 50));
  }
  return p;
}

// The never-parked reference: one uninterrupted request.
std::vector<std::int32_t> reference_tokens(nn::GptModel& model,
                                           Flavor flavor, std::uint64_t id,
                                           std::int64_t total_new) {
  serve::InferenceEngine engine(model,
                                flavored_engine_config(model, flavor));
  auto f = engine.submit(flavored_request(id, flavor, prompt_for(id),
                                          total_new));
  engine.run_until_idle();
  const serve::RequestResult result = f.get();
  EXPECT_EQ(result.status, serve::RequestStatus::kOk);
  return result.tokens;
}

// Turn 1: generate on the session until >= park_after tokens, park
// mid-decode, retire as kParked. Turn 2: empty-prompt resume to total_new.
// The concatenated stream must be byte-identical to never parking. An
// optional hook runs between the turns (fault injection on spill files).
void run_parked_session(serve::InferenceEngine& engine, Flavor flavor,
                        std::uint64_t id, std::int64_t total_new,
                        std::vector<std::int32_t>& final_tokens,
                        std::uint64_t* session_out = nullptr,
                        const std::function<void(std::uint64_t)>&
                            between_turns = {}) {
  const std::uint64_t sid = engine.create_session();
  if (session_out != nullptr) *session_out = sid;

  serve::Request turn1 = flavored_request(id, flavor, prompt_for(id),
                                          total_new);
  turn1.session_id = sid;
  std::atomic<std::int64_t> seen{0};
  turn1.on_token = [&seen](std::int32_t) { seen.fetch_add(1); };
  auto f1 = engine.resume(std::move(turn1));
  for (int guard = 0; seen.load() < 4 && guard < 200; ++guard) {
    engine.step();
  }
  ASSERT_GE(seen.load(), 4);
  engine.park(id);
  engine.run_until_idle();
  const serve::RequestResult r1 = f1.get();
  ASSERT_EQ(r1.status, serve::RequestStatus::kParked);
  ASSERT_GT(r1.generated_tokens, 0);
  ASSERT_LT(r1.generated_tokens, total_new);

  if (between_turns) between_turns(sid);

  serve::Request turn2 = flavored_request(id + 1000, flavor, {},
                                          total_new - r1.generated_tokens);
  turn2.sampling.seed = 0x5e55 + id;  // same stream; rng state carries over
  turn2.session_id = sid;
  auto f2 = engine.resume(std::move(turn2));
  engine.run_until_idle();
  const serve::RequestResult r2 = f2.get();
  ASSERT_EQ(r2.status, serve::RequestStatus::kOk);
  EXPECT_EQ(r2.generated_tokens, total_new - r1.generated_tokens);
  final_tokens = r2.tokens;
}

void check_park_resume_byte_identity(Flavor flavor) {
  nn::GptModel model(tier_model_config());
  const std::int64_t total_new = 20;
  SpillDir dir("identity");

  // Host path: unbounded host tier, resume restores from RAM.
  {
    serve::InferenceEngine engine(model,
                                  flavored_engine_config(model, flavor));
    std::vector<std::int32_t> got;
    run_parked_session(engine, flavor, 10, total_new, got);
    EXPECT_EQ(got, reference_tokens(model, flavor, 10, total_new))
        << "host-path resume diverged";
    EXPECT_GE(engine.stats().session_parks(), 1u);
    EXPECT_EQ(engine.stats().session_resume_recomputes(), 0u);
    EXPECT_GE(engine.tier().stats().host_hits, 1u);
  }

  // Disk path THROUGH demotion: the host tier holds one parked entry;
  // parking a second session pushes the first to disk, whose resume then
  // reads (and checksums) the spill file.
  {
    serve::EngineConfig ec = flavored_engine_config(model, flavor);
    ec.kv_tier.host_tier_bytes = 2048;  // one ~1.5 KiB entry, not two
    ec.kv_tier.disk_tier_bytes = 1 << 20;
    ec.kv_tier.spill_dir = dir.str();
    serve::InferenceEngine engine(model, ec);

    std::vector<std::int32_t> got_a;
    std::vector<std::int32_t> got_b;
    std::uint64_t sid_a = 0;
    // Interleave: park A's turn 1, park B's turn 1 (demotes A to disk),
    // then resume both.
    const std::uint64_t sid = engine.create_session();
    serve::Request a1 = flavored_request(20, flavor, prompt_for(20),
                                         total_new);
    a1.session_id = sid;
    std::atomic<std::int64_t> seen{0};
    a1.on_token = [&seen](std::int32_t) { seen.fetch_add(1); };
    auto fa1 = engine.resume(std::move(a1));
    for (int guard = 0; seen.load() < 4 && guard < 200; ++guard) {
      engine.step();
    }
    engine.park(20);
    engine.run_until_idle();
    const serve::RequestResult ra1 = fa1.get();
    ASSERT_EQ(ra1.status, serve::RequestStatus::kParked);
    EXPECT_EQ(engine.tier().residency(Space::kSession, sid),
              Residency::kHost);

    run_parked_session(engine, flavor, 30, total_new, got_b, &sid_a);
    // B's two parks (mid-flight and final) pushed A's entry to disk.
    EXPECT_EQ(engine.tier().residency(Space::kSession, sid),
              Residency::kDisk);
    EXPECT_GE(engine.tier().stats().demotions, 1u);

    serve::Request a2 = flavored_request(1020, flavor, {},
                                         total_new - ra1.generated_tokens);
    a2.sampling.seed = 0x5e55 + 20;
    a2.session_id = sid;
    auto fa2 = engine.resume(std::move(a2));
    engine.run_until_idle();
    const serve::RequestResult ra2 = fa2.get();
    ASSERT_EQ(ra2.status, serve::RequestStatus::kOk);
    got_a = ra2.tokens;

    EXPECT_EQ(got_a, reference_tokens(model, flavor, 20, total_new))
        << "disk-path resume diverged";
    EXPECT_EQ(got_b, reference_tokens(model, flavor, 30, total_new))
        << "demoting-session resume diverged";
    // The entry came back through a spill-file read at take().
    EXPECT_GE(engine.tier().stats().disk_hits, 1u);
    EXPECT_EQ(engine.stats().session_resume_recomputes(), 0u);
  }

  // Recompute path: a host tier too small for any entry and no disk tier
  // refuses every park; resume re-prefills from the registry history.
  {
    serve::EngineConfig ec = flavored_engine_config(model, flavor);
    ec.kv_tier.host_tier_bytes = 64;
    serve::InferenceEngine engine(model, ec);
    std::vector<std::int32_t> got;
    run_parked_session(engine, flavor, 40, total_new, got);
    EXPECT_EQ(got, reference_tokens(model, flavor, 40, total_new))
        << "recompute-fallback resume diverged";
    EXPECT_GE(engine.stats().session_park_drops(), 1u);
    EXPECT_GE(engine.stats().session_resume_recomputes(), 1u);
    EXPECT_GE(engine.tier().stats().store_refusals, 1u);
  }
}

TEST(ServeSessions, ParkResumeByteIdenticalGreedy) {
  check_park_resume_byte_identity(Flavor::kGreedy);
}

TEST(ServeSessions, ParkResumeByteIdenticalStochastic) {
  check_park_resume_byte_identity(Flavor::kStochastic);
}

TEST(ServeSessions, ParkResumeByteIdenticalSpeculative) {
  check_park_resume_byte_identity(Flavor::kSpeculative);
}

TEST(ServeSessions, CorruptSpillResumeRecomputesByteIdentical) {
  nn::GptModel model(tier_model_config());
  const std::int64_t total_new = 20;
  SpillDir dir("resume_corrupt");

  serve::EngineConfig ec = flavored_engine_config(model, Flavor::kGreedy);
  ec.kv_tier.host_tier_bytes = 256;  // smaller than any entry: direct spill
  ec.kv_tier.disk_tier_bytes = 1 << 20;
  ec.kv_tier.spill_dir = dir.str();
  serve::InferenceEngine engine(model, ec);

  std::vector<std::int32_t> got;
  run_parked_session(
      engine, Flavor::kGreedy, 50, total_new, got, nullptr,
      [&](std::uint64_t sid) {
        ASSERT_EQ(engine.tier().residency(Space::kSession, sid),
                  Residency::kDisk);
        const fs::path path =
            dir.path() / ("spill-session-" + std::to_string(sid) + ".kv");
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(64);  // payload byte
        const char bad = '\x77';
        f.write(&bad, 1);
      });
  EXPECT_EQ(got, reference_tokens(model, Flavor::kGreedy, 50, total_new))
      << "corrupt-spill resume returned wrong bytes";
  EXPECT_GE(engine.stats().session_resume_recomputes(), 1u);
  EXPECT_GE(engine.tier().stats().corrupt_drops, 1u);
}

// A session turn that is preempted and then cancelled while it waits to
// re-admit still parks its progress: the registry keeps the tokens and rng
// it reached, its preempt-parked KV moves to the session (unless the tier
// refused it: `refusing_tier` sets a 64-byte host tier and no disk tier),
// and the next turn continues byte-identically to one uninterrupted
// request.
void check_preempted_then_cancelled_session(bool refusing_tier) {
  nn::GptModel model(tier_model_config());
  serve::EngineConfig ec;
  ec.max_batch = 4;
  ec.kv_slots = 2;  // 16 blocks of 4: two 32-token lows leave no room
  ec.kv_capacity_tokens = 32;
  ec.kv_block_tokens = 4;
  ec.scheduler = serve::sched::Policy::kPriority;
  if (refusing_tier) ec.kv_tier.host_tier_bytes = 64;
  serve::InferenceEngine engine(model, ec);

  const std::int64_t total_new = 24;
  serve::Request filler = flavored_request(60, Flavor::kGreedy,
                                           prompt_for(60), total_new);
  filler.priority = serve::Priority::kLow;
  auto f_filler = engine.submit(std::move(filler));

  // Submitted second, so the youngest low: the victim the policy names.
  const std::uint64_t sid = engine.create_session();
  serve::Request turn1 = flavored_request(61, Flavor::kStochastic,
                                          prompt_for(61), total_new);
  turn1.priority = serve::Priority::kLow;
  turn1.session_id = sid;
  std::atomic<std::int64_t> seen{0};
  turn1.on_token = [&seen](std::int32_t) { seen.fetch_add(1); };
  auto f1 = engine.resume(std::move(turn1));
  for (int guard = 0; seen.load() < 4 && guard < 200; ++guard) {
    engine.step();
  }
  ASSERT_GE(seen.load(), 4);

  serve::Request high = flavored_request(62, Flavor::kGreedy, prompt_for(62),
                                         8);
  high.priority = serve::Priority::kHigh;
  auto f_high = engine.submit(std::move(high));
  engine.step();  // admits the high by preempting the session turn
  ASSERT_EQ(engine.stats().preemptions(), 1u);
  EXPECT_EQ(engine.stats().preempt_recomputes(), refusing_tier ? 1u : 0u);
  engine.cancel(61);  // retires the re-queued turn before it re-admits
  engine.run_until_idle();
  EXPECT_EQ(f_filler.get().status, serve::RequestStatus::kOk);
  EXPECT_EQ(f_high.get().status, serve::RequestStatus::kOk);

  const serve::RequestResult r1 = f1.get();
  ASSERT_EQ(r1.status, serve::RequestStatus::kCancelled);
  EXPECT_EQ(r1.preemptions, 1);
  ASSERT_GE(r1.generated_tokens, 4);
  ASSERT_LT(r1.generated_tokens, total_new);

  const auto info = engine.session_info(sid);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->tokens, static_cast<std::int64_t>(r1.tokens.size()));
  EXPECT_EQ(info->turns, 1);
  EXPECT_FALSE(info->busy);
  EXPECT_FALSE(engine.tier().contains(Space::kPreempt, 61));
  if (!refusing_tier) {
    EXPECT_EQ(info->residency, Residency::kHost);
  }

  serve::Request turn2 = flavored_request(63, Flavor::kStochastic, {},
                                          total_new - r1.generated_tokens);
  turn2.session_id = sid;
  auto f2 = engine.resume(std::move(turn2));
  engine.run_until_idle();
  const serve::RequestResult r2 = f2.get();
  ASSERT_EQ(r2.status, serve::RequestStatus::kOk);
  if (!refusing_tier) {
    EXPECT_EQ(engine.stats().session_resume_recomputes(), 0u);
  }
  EXPECT_EQ(r2.tokens,
            reference_tokens(model, Flavor::kStochastic, 61, total_new))
      << "resume after a cancelled preempted turn diverged ("
      << (refusing_tier ? "recompute" : "swap") << ")";
  EXPECT_TRUE(engine.kv_pool().all_free());
}

TEST(ServeSessions, PreemptedThenCancelledTurnParksProgressRecompute) {
  check_preempted_then_cancelled_session(/*refusing_tier=*/true);
}

TEST(ServeSessions, PreemptedThenCancelledTurnParksProgressSwap) {
  check_preempted_then_cancelled_session(/*refusing_tier=*/false);
}

TEST(ServeSessions, MultiTurnNewPromptMatchesFreshFullHistory) {
  nn::GptModel model(tier_model_config());
  serve::InferenceEngine engine(model,
                                flavored_engine_config(model,
                                                       Flavor::kGreedy));
  const std::uint64_t sid = engine.create_session();
  const std::vector<std::int32_t> p1 = {3, 1, 4, 1, 5};
  const std::vector<std::int32_t> p2 = {9, 2, 6};

  auto f1 = engine.resume(session_request(sid, p1, 6));
  engine.run_until_idle();
  const serve::RequestResult r1 = f1.get();
  ASSERT_EQ(r1.status, serve::RequestStatus::kOk);

  auto f2 = engine.resume(session_request(sid, p2, 6));
  engine.run_until_idle();
  const serve::RequestResult r2 = f2.get();
  ASSERT_EQ(r2.status, serve::RequestStatus::kOk);

  // Fresh request whose prompt spells out the whole conversation so far.
  std::vector<std::int32_t> history = r1.tokens;
  history.insert(history.end(), p2.begin(), p2.end());
  serve::InferenceEngine fresh(model,
                               flavored_engine_config(model,
                                                      Flavor::kGreedy));
  serve::Request full;
  full.prompt = history;
  full.max_new_tokens = 6;
  full.sampling.temperature = 0.0f;
  auto f3 = fresh.submit(std::move(full));
  fresh.run_until_idle();
  const serve::RequestResult r3 = f3.get();
  ASSERT_EQ(r3.status, serve::RequestStatus::kOk);
  EXPECT_EQ(r2.tokens, r3.tokens)
      << "session append diverged from fresh full-history prefill";
}

TEST(ServeSessions, StatsJsonCarriesTierAndSessionCounters) {
  nn::GptModel model(tier_model_config());
  serve::InferenceEngine engine(model,
                                flavored_engine_config(model,
                                                       Flavor::kGreedy));
  const std::uint64_t sid = engine.create_session();
  auto f = engine.resume(session_request(sid, {1, 2, 3}, 4));
  engine.run_until_idle();
  ASSERT_EQ(f.get().status, serve::RequestStatus::kOk);

  const std::string json = engine.stats_json();
  for (const char* field :
       {"\"session_parks\"", "\"session_resumes\"", "\"sessions_live\"",
        "\"kv_tier_stores\"", "\"kv_tier_host_bytes\"",
        "\"kv_tier_corrupt_drops\"", "\"parked\""}) {
    EXPECT_NE(json.find(field), std::string::npos)
        << field << " missing from stats_json";
  }
}

}  // namespace
}  // namespace matgpt
