// Result-store robustness and resumable-campaign determinism:
//
//  * wire codec round-trips and fails loudly on truncation;
//  * ResultStore create/open semantics — clobber refusal, spec-fingerprint
//    enforcement, wrong-magic rejection;
//  * crash recovery — torn frame headers, torn payloads, and corrupt
//    (checksum-mismatching) tails are truncated away on open, keeping every
//    whole record;
//  * the API-level byte-identity contract: an interrupted-then-resumed
//    campaign and a shard-merged campaign both reproduce the uninterrupted
//    single-process run's CSV and stable JSON exactly.
//
// The process-kill variant of crash recovery (STTLOCK_STORE_CRASH_AFTER
// actually _exit(137)-ing a campaign) runs in CI's "resumable" job; here
// interruption is modeled by recording only a shard's subset of the grid,
// which exercises the same resume path without forking.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/campaign.hpp"
#include "runtime/report.hpp"
#include "runtime/shard.hpp"
#include "runtime/store.hpp"
#include "runtime/wire.hpp"

namespace stt {
namespace {

std::filesystem::path temp_store(const std::string& name) {
  const auto path = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove(path);
  return path;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void append_bytes(const std::filesystem::path& path, const std::string& b) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << b;
}

/// A fast two-benchmark grid with a "none" and an oracle-free attack axis
/// point, small enough for tier-1 but wide enough that sharding is
/// non-trivial (16 rows).
CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.benchmarks = {"s641", "s1238"};
  spec.defenses = {{"independent", {}}, {"parametric", {}}};
  spec.attacks = {"static", "none"};
  spec.trials = 2;
  spec.jobs = 2;
  return spec;
}

std::string spec_fingerprint(std::uint64_t master_seed) {
  CampaignGrid grid;
  grid.master_seed = master_seed;
  grid.trials = 1;
  grid.benchmarks = {"s641"};
  grid.defenses = {{"independent", {}}};
  grid.attacks = {"none"};
  return campaign_grid_bytes(grid);
}

TEST(Wire, RoundTripsEveryTypeAndDetectsTruncation) {
  WireWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.i32(-42);
  w.i64(-1234567890123ll);
  w.b(true);
  w.f64(-0.125);
  w.str("hello world");
  const std::string bytes = w.bytes();

  WireReader r(bytes);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123ll);
  EXPECT_TRUE(r.b());
  EXPECT_EQ(r.f64(), -0.125);
  EXPECT_EQ(r.str(), "hello world");
  EXPECT_TRUE(r.done());

  WireReader truncated(std::string_view(bytes).substr(0, bytes.size() - 1));
  truncated.u8();
  truncated.u32();
  truncated.u64();
  truncated.i32();
  truncated.i64();
  truncated.b();
  truncated.f64();
  EXPECT_THROW(truncated.str(), std::runtime_error);
}

TEST(Wire, TrialRecordCodecIsCanonical) {
  TrialRecord rec;
  rec.benchmark = "s641";
  rec.defense = "xor";
  rec.defense_tuning = "count=16";
  rec.attack = "sat";
  rec.trial = 1;
  rec.ok = true;
  rec.num_luts = 7;
  rec.key_bits = 31;
  rec.attack_ran = true;
  rec.attack_success = true;
  rec.attack_queries = 12345;
  rec.lint_ran = true;
  rec.lint_verdict = "clean";
  rec.audit_log10_drop = 2.5;

  WireWriter w1;
  encode_trial_record(w1, rec);
  const std::string bytes = w1.bytes();

  WireReader r(bytes);
  const TrialRecord back = decode_trial_record(r);
  EXPECT_TRUE(r.done());

  WireWriter w2;
  encode_trial_record(w2, back);
  EXPECT_EQ(bytes, w2.bytes());  // canonical: value equality = byte equality
  EXPECT_EQ(back.benchmark, "s641");
  EXPECT_EQ(back.defense_tuning, "count=16");
  EXPECT_EQ(back.attack_queries, 12345u);
  EXPECT_EQ(back.audit_log10_drop, 2.5);
}

TEST(Store, CreateRefusesToClobberAndOpenChecksSpec) {
  const auto path = temp_store("clobber.store");
  const std::string spec = spec_fingerprint(1);
  {
    auto store = ResultStore::create(path.string(), spec);
    ASSERT_NE(store, nullptr);
    EXPECT_TRUE(store->open_stats().note.empty());
  }
  // A second create must refuse (the file holds results).
  EXPECT_THROW(ResultStore::create(path.string(), spec), std::runtime_error);
  // Resuming with the identical fingerprint succeeds...
  EXPECT_NO_THROW(ResultStore::open(path.string(), spec));
  // ...but a different campaign's fingerprint is rejected.
  EXPECT_THROW(ResultStore::open(path.string(), spec_fingerprint(2)),
               std::runtime_error);
  // Resume-from-missing-file creates it (kill/resume loops are idempotent).
  const auto fresh = temp_store("fresh-via-open.store");
  EXPECT_NO_THROW(ResultStore::open(fresh.string(), spec));
  EXPECT_TRUE(std::filesystem::exists(fresh));
}

TEST(Store, RejectsForeignFiles) {
  const auto path = temp_store("not-a-store.bin");
  append_bytes(path, "definitely not a result store\n");
  EXPECT_THROW(ResultStore::open_existing(path.string()), std::runtime_error);
  EXPECT_THROW(ResultStore::open(path.string(), spec_fingerprint(1)),
               std::runtime_error);

  // A version-1 store (trial records with the algorithm byte) is refused
  // by its magic instead of being misdecoded.
  const auto current = temp_store("current.store");
  ResultStore::create(current.string(), spec_fingerprint(1));
  std::string bytes = read_file(current);
  ASSERT_EQ(bytes.substr(0, 8), "STTSTOR2");
  bytes[7] = '1';
  const auto old = temp_store("version1.store");
  append_bytes(old, bytes);
  EXPECT_THROW(ResultStore::open_existing(old.string()), std::runtime_error);
}

TEST(Store, AppendsDedupAndReloadExactly) {
  const auto path = temp_store("roundtrip.store");
  const std::string spec = spec_fingerprint(1);
  const TrialKey key{"s641", "independent", "", "none", 0};
  TrialRecord rec;
  rec.benchmark = "s641";
  rec.defense = "independent";
  rec.attack = "none";
  rec.ok = true;
  obs::MetricsSnapshot delta;
  delta.counters["flow.runs"] = 3;
  {
    auto store = ResultStore::create(path.string(), spec);
    EXPECT_TRUE(store->append_trial(key, rec, delta));
    EXPECT_FALSE(store->append_trial(key, rec, delta));  // dedup is a no-op
    EXPECT_TRUE(store->append_stage("gen/s641/t0", delta));
    EXPECT_FALSE(store->append_stage("gen/s641/t0", delta));
  }
  auto store = ResultStore::open_existing(path.string());
  EXPECT_TRUE(store->open_stats().note.empty());
  ASSERT_EQ(store->trials().size(), 1u);
  ASSERT_EQ(store->stages().size(), 1u);
  EXPECT_TRUE(store->contains_trial(key));
  EXPECT_EQ(store->trials().at(key).record.benchmark, "s641");
  EXPECT_EQ(store->trials().at(key).obs_delta.counters.at("flow.runs"), 3u);
  EXPECT_EQ(store->stages().at("gen/s641/t0").counters.at("flow.runs"), 3u);
}

TEST(Store, TornTailIsTruncatedKeepingWholeRecords) {
  const auto path = temp_store("torn.store");
  const std::string spec = spec_fingerprint(1);
  const TrialKey key{"s641", "independent", "", "none", 0};
  {
    auto store = ResultStore::create(path.string(), spec);
    store->append_trial(key, TrialRecord{}, {});
  }
  const std::string whole = read_file(path);

  // A torn frame header (the crash-injection shape: type + half a length).
  append_bytes(path, std::string("\x01\x40\x00", 3));
  {
    auto store = ResultStore::open(path.string(), spec);
    EXPECT_EQ(store->trials().size(), 1u);
    EXPECT_NE(store->open_stats().note.find("torn"), std::string::npos);
    EXPECT_EQ(store->open_stats().dropped_bytes, 3u);
  }
  EXPECT_EQ(read_file(path), whole);  // tail gone, records intact

  // A whole header promising a payload that never made it to disk.
  {
    WireWriter w;
    w.u8(1);
    w.u32(100);  // length 100, but only 4 payload bytes follow
    w.u32(0);
    append_bytes(path, w.bytes() + "abcd");
  }
  {
    auto store = ResultStore::open(path.string(), spec);
    EXPECT_EQ(store->trials().size(), 1u);
    EXPECT_FALSE(store->open_stats().note.empty());
  }
  EXPECT_EQ(read_file(path), whole);

  // A complete frame whose checksum does not match its payload.
  {
    WireWriter w;
    w.u8(1);
    w.u32(4);
    w.u32(0xdeadbeefu);  // not crc32("junk")
    append_bytes(path, w.bytes() + "junk");
  }
  {
    auto store = ResultStore::open(path.string(), spec);
    EXPECT_EQ(store->trials().size(), 1u);
    EXPECT_NE(store->open_stats().note.find("checksum"), std::string::npos);
  }
  EXPECT_EQ(read_file(path), whole);
  // After recovery the file opens clean.
  auto store = ResultStore::open(path.string(), spec);
  EXPECT_TRUE(store->open_stats().note.empty());
}

TEST(CampaignStore, InterruptedThenResumedRunIsByteIdentical) {
  const CampaignSpec base = small_spec();
  const CampaignReport ref = run_campaign(base);
  const std::string ref_csv = campaign_results_csv(ref);
  const std::string ref_json = campaign_json(ref, /*include_profile=*/false);

  // "Interrupt": record only shard 1/2 of the grid, as a killed process
  // would have left an arbitrary recorded subset behind.
  const auto path = temp_store("resume.store");
  CampaignSpec partial = base;
  partial.store_path = path.string();
  partial.shard_index = 1;
  partial.shard_count = 2;
  run_campaign(partial);

  // Resume the full grid from the store at a different thread count.
  CampaignSpec resumed = base;
  resumed.store_path = path.string();
  resumed.resume = true;
  resumed.jobs = 4;
  const CampaignReport rep = run_campaign(resumed);
  EXPECT_EQ(rep.profile.rows_resumed, 8u);
  EXPECT_EQ(rep.profile.rows_executed, 8u);
  EXPECT_EQ(campaign_results_csv(rep), ref_csv);
  EXPECT_EQ(campaign_json(rep, false), ref_json);

  // Resuming again is a pure replay: nothing executes, bytes still match.
  const CampaignReport replay = run_campaign(resumed);
  EXPECT_EQ(replay.profile.rows_resumed, 16u);
  EXPECT_EQ(replay.profile.rows_executed, 0u);
  EXPECT_EQ(campaign_results_csv(replay), ref_csv);
  EXPECT_EQ(campaign_json(replay, false), ref_json);
}

TEST(CampaignStore, ShardUnionMergesToTheUnshardedRun) {
  const CampaignSpec base = small_spec();
  const CampaignReport ref = run_campaign(base);

  const auto p1 = temp_store("shard1.store");
  const auto p2 = temp_store("shard2.store");
  CampaignSpec s1 = base;
  s1.store_path = p1.string();
  s1.shard_index = 1;
  s1.shard_count = 2;
  s1.jobs = 1;
  CampaignSpec s2 = base;
  s2.store_path = p2.string();
  s2.shard_index = 2;
  s2.shard_count = 2;
  s2.jobs = 3;
  const CampaignReport r1 = run_campaign(s1);
  const CampaignReport r2 = run_campaign(s2);
  EXPECT_EQ(r1.rows.size() + r2.rows.size(), ref.rows.size());

  // Shards are disjoint and merging only one of them reports the gap.
  EXPECT_THROW(merge_stores({p1.string()}), std::runtime_error);

  MergeStats stats;
  const CampaignReport merged =
      merge_stores({p1.string(), p2.string()}, &stats);
  EXPECT_EQ(stats.stores, 2u);
  EXPECT_EQ(stats.trials, ref.rows.size());
  EXPECT_EQ(stats.duplicates, 0u);
  EXPECT_EQ(campaign_results_csv(merged), campaign_results_csv(ref));
  EXPECT_EQ(campaign_json(merged, false), campaign_json(ref, false));
}

TEST(CampaignStore, MergeRejectsConflictingAndForeignStores) {
  const std::string spec = spec_fingerprint(1);
  const TrialKey key{"s641", "independent", "", "none", 0};

  const auto pa = temp_store("conflict-a.store");
  const auto pb = temp_store("conflict-b.store");
  TrialRecord rec;
  rec.benchmark = "s641";
  rec.defense = "independent";
  rec.attack = "none";
  rec.ok = true;
  ResultStore::create(pa.string(), spec)->append_trial(key, rec, {});
  rec.num_luts = 99;  // same key, different payload: not shards of one run
  ResultStore::create(pb.string(), spec)->append_trial(key, rec, {});
  EXPECT_THROW(merge_stores({pa.string(), pb.string()}), std::runtime_error);

  // Different spec fingerprints can never merge.
  const auto pc = temp_store("foreign.store");
  ResultStore::create(pc.string(), spec_fingerprint(2));
  EXPECT_THROW(merge_stores({pa.string(), pc.string()}), std::runtime_error);

  EXPECT_THROW(merge_stores({}), std::runtime_error);
}

TEST(CampaignStore, DedupCacheCountsGroupReuse) {
  // Two attack rows per (benchmark, defense, trial) group share one cached
  // attacker view, so every group shows exactly one reuse.
  CampaignSpec spec = small_spec();
  spec.benchmarks = {"s641"};
  spec.defenses = {{"independent", {}}};
  spec.attacks = {"static", "bf"};
  spec.trials = 1;
  const CampaignReport rep = run_campaign(spec);
  EXPECT_EQ(rep.profile.cache_builds, 1u);
  EXPECT_EQ(rep.profile.cache_reuses, 1u);
  EXPECT_GE(rep.profile.cache_saved_ms, 0.0);
}

}  // namespace
}  // namespace stt
