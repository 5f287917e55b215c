// Crash-safe append-only campaign result store.
//
// One file per campaign (or per shard of one). The file is a magic header
// followed by length+CRC32-framed records, each fsync'd before the append
// call returns — so after a crash at any byte the file contains a prefix of
// whole records plus at most one torn tail, which `open` detects and
// truncates away with a diagnostic. Record types:
//
//   type 0  spec   — the wire-encoded resolved CampaignGrid, always the
//                    first record; resuming requires byte-equality with the
//                    resuming campaign's own grid encoding.
//   type 1  trial  — TrialKey + TrialRecord + the attack stage's captured
//                    stable-metrics delta.
//   type 2  stage  — a shared stage (circuit generation, defense flow)
//                    keyed by its job label, with its captured delta.
//
// Stage deltas are stored separately from trials because the obs contract
// (campaign.hpp) sums every stage exactly once: a resumed campaign replays
// stored deltas for stages it skips, and `merge_stores` (shard.hpp)
// deduplicates them across shard stores by key.
//
// Appends are serialized by one mutex and deduplicated against the
// in-memory key maps, so re-recording an already-stored key is a cheap
// no-op — this is what makes resume idempotent under repeated kills.
//
// Deterministic crash injection for tests/CI: when the environment variable
// STTLOCK_STORE_CRASH_AFTER=N is set, the Nth successful trial append
// writes half of the *next* frame's header and `_exit(137)`s, simulating a
// kill mid-write with a real torn tail.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"
#include "runtime/campaign.hpp"
#include "runtime/record.hpp"

namespace stt {

class WireWriter;
class WireReader;

/// The resolved campaign grid: every axis written out post-resolution
/// (benchmarks expanded) plus the knobs that alter per-row results.
/// Its canonical wire encoding is the store's spec fingerprint: two
/// campaigns may share a store (resume) or have their stores merged only if
/// the encodings are byte-identical. Scheduling knobs (--jobs, shard
/// coordinates, store paths) are deliberately absent — a campaign may be
/// resumed at a different thread count and shards of one grid share one
/// fingerprint.
struct CampaignGrid {
  std::uint64_t master_seed = 0;
  int trials = 1;
  int max_attempts = 3;
  bool lint = true;
  double activity = 0.10;
  double timing_margin = 0.05;
  std::vector<std::string> benchmarks;
  std::vector<DefenseAxis> defenses;
  std::vector<std::string> attacks;

  /// Grid size and the flat row index shared with the campaign driver:
  /// ((b*n_def + d)*n_att + a)*n_trial + t.
  std::size_t rows() const {
    return benchmarks.size() * defenses.size() * attacks.size() *
           static_cast<std::size_t>(trials);
  }
};

void encode_campaign_grid(WireWriter& w, const CampaignGrid& grid);
CampaignGrid decode_campaign_grid(WireReader& r);

/// Convenience: the canonical fingerprint bytes of a grid.
std::string campaign_grid_bytes(const CampaignGrid& grid);

/// Canonical codec for a metrics snapshot (sorted maps, trimmed histogram
/// buckets): same value -> same bytes, so stored deltas can be compared for
/// merge-conflict detection by byte equality.
void encode_metrics_snapshot(WireWriter& w, const obs::MetricsSnapshot& snap);
obs::MetricsSnapshot decode_metrics_snapshot(WireReader& r);

/// Identity of one grid point, independent of grid dimensions — stores from
/// different shards of the same grid key their trials identically.
struct TrialKey {
  std::string benchmark;
  std::string defense;
  std::string defense_tuning;
  std::string attack;
  int trial = 0;

  auto operator<=>(const TrialKey&) const = default;
};

/// One recorded grid point: the full typed record plus the attack stage's
/// captured stable-metrics delta (empty when no attack ran).
struct StoredTrial {
  TrialRecord record;
  obs::MetricsSnapshot obs_delta;
};

/// What `open` found: how much was recovered and whether a torn or corrupt
/// tail was dropped (note is empty for a clean file).
struct StoreOpenStats {
  std::size_t trials = 0;
  std::size_t stages = 0;
  std::size_t dropped_bytes = 0;
  std::string note;
};

class ResultStore {
 public:
  /// Create a fresh store at `path` with the given spec fingerprint.
  /// Refuses to clobber an existing file (throws std::runtime_error telling
  /// the caller to pass --resume instead).
  static std::unique_ptr<ResultStore> create(const std::string& path,
                                             const std::string& spec_bytes);

  /// Open `path` for resuming: recover every whole record, truncate a torn
  /// tail, and require the recorded spec to equal `spec_bytes` byte-for-
  /// byte (throws std::runtime_error on mismatch — the store belongs to a
  /// different campaign). A missing file is created fresh, so kill/resume
  /// loops can start with --resume from the first run.
  static std::unique_ptr<ResultStore> open(const std::string& path,
                                           const std::string& spec_bytes);

  /// Read-only open for `sttlock merge` and inspection: recovers records
  /// (truncating a torn tail if the file is writable) but accepts any spec.
  static std::unique_ptr<ResultStore> open_existing(const std::string& path);

  ~ResultStore();
  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  const std::string& path() const { return path_; }
  const std::string& spec_bytes() const { return spec_bytes_; }
  const StoreOpenStats& open_stats() const { return open_stats_; }
  const std::map<TrialKey, StoredTrial>& trials() const { return trials_; }
  const std::map<std::string, obs::MetricsSnapshot>& stages() const {
    return stages_;
  }
  bool contains_trial(const TrialKey& key) const {
    return trials_.count(key) != 0;
  }

  /// Append one record, fsync'd before returning. Returns false (writing
  /// nothing) when the key is already recorded. Thread-safe.
  bool append_trial(const TrialKey& key, const TrialRecord& record,
                    const obs::MetricsSnapshot& obs_delta);
  bool append_stage(const std::string& key,
                    const obs::MetricsSnapshot& obs_delta);

 private:
  ResultStore() = default;
  static std::unique_ptr<ResultStore> open_impl(const std::string& path,
                                                const std::string* spec_bytes,
                                                bool create_only,
                                                bool read_only);
  void append_frame(std::uint8_t type, const std::string& payload);
  void maybe_crash_after_trial();

  std::string path_;
  std::string spec_bytes_;
  StoreOpenStats open_stats_;
  std::map<TrialKey, StoredTrial> trials_;
  std::map<std::string, obs::MetricsSnapshot> stages_;

  std::mutex mu_;
  int fd_ = -1;  ///< -1 = read-only open
  // Crash injection (STTLOCK_STORE_CRASH_AFTER): remaining successful trial
  // appends before the store tears its own tail and exits. -1 = disabled.
  long crash_after_ = -1;
};

}  // namespace stt
