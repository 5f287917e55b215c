#include "runtime/shard.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

#include "runtime/wire.hpp"
#include "util/strings.hpp"

namespace stt {

ShardSpec parse_shard(const std::string& text) {
  // With no '/', the count is the empty tail and fails to parse.
  const std::string_view s(text);
  const std::size_t slash = std::min(s.find('/'), s.size());
  constexpr std::int64_t kMax = std::numeric_limits<unsigned>::max();
  const auto index = parse_int(s.substr(0, slash), 0, kMax);
  const auto count =
      parse_int(s.substr(std::min(slash + 1, s.size())), 0, kMax);
  if (!index || !count) {
    throw std::invalid_argument("bad shard '" + text +
                                "' (expected i/N, e.g. 2/4)");
  }
  const ShardSpec spec{static_cast<unsigned>(*index),
                       static_cast<unsigned>(*count)};
  if (spec.count < 1 || spec.index < 1 || spec.index > spec.count) {
    throw std::invalid_argument("bad shard '" + text +
                                "': index must satisfy 1 <= i <= N");
  }
  return spec;
}

namespace {

std::string trial_bytes(const StoredTrial& t) {
  WireWriter w;
  encode_trial_record(w, t.record);
  encode_metrics_snapshot(w, t.obs_delta);
  return w.take();
}

std::string snapshot_bytes(const obs::MetricsSnapshot& snap) {
  WireWriter w;
  encode_metrics_snapshot(w, snap);
  return w.take();
}

std::string key_label(const TrialKey& key) {
  std::string label =
      key.benchmark + "/" + key.defense;
  if (!key.defense_tuning.empty()) label += "(" + key.defense_tuning + ")";
  label += "/" + key.attack + "/t" + std::to_string(key.trial);
  return label;
}

}  // namespace

CampaignReport merge_stores(const std::vector<std::string>& paths,
                            MergeStats* stats) {
  if (paths.empty()) {
    throw std::runtime_error("merge: no input stores");
  }

  std::map<TrialKey, StoredTrial> trials;
  std::map<std::string, obs::MetricsSnapshot> stages;
  std::string spec_bytes;
  std::size_t duplicates = 0;

  for (const std::string& path : paths) {
    const auto store = ResultStore::open_existing(path);
    if (spec_bytes.empty()) {
      spec_bytes = store->spec_bytes();
    } else if (store->spec_bytes() != spec_bytes) {
      throw std::runtime_error(
          "merge: '" + path + "' and '" + paths.front() +
          "' were recorded by different campaigns (spec fingerprints "
          "differ); only shards of one grid can be merged");
    }
    for (const auto& [key, t] : store->trials()) {
      auto [it, inserted] = trials.emplace(key, t);
      if (inserted) continue;
      if (trial_bytes(it->second) != trial_bytes(t)) {
        throw std::runtime_error("merge: conflicting records for grid point " +
                                 key_label(key) + " in '" + path + "'");
      }
      ++duplicates;
    }
    for (const auto& [key, delta] : store->stages()) {
      auto [it, inserted] = stages.emplace(key, delta);
      if (inserted) continue;
      if (snapshot_bytes(it->second) != snapshot_bytes(delta)) {
        throw std::runtime_error("merge: conflicting stage delta '" + key +
                                 "' in '" + path + "'");
      }
      ++duplicates;
    }
  }

  WireReader reader(spec_bytes);
  const CampaignGrid grid = decode_campaign_grid(reader);

  CampaignReport report;
  report.benchmarks = grid.benchmarks;
  report.defenses = grid.defenses;
  report.attacks = grid.attacks;
  report.trials = grid.trials;
  report.master_seed = grid.master_seed;

  // Rows in grid order, independent of which store held which shard.
  report.rows.reserve(grid.rows());
  std::size_t missing = 0;
  std::string first_missing;
  for (const std::string& bench : grid.benchmarks) {
    for (const DefenseAxis& axis : grid.defenses) {
      const std::string tuning = tuning_to_string(axis.tuning);
      for (const std::string& attack : grid.attacks) {
        for (int t = 0; t < grid.trials; ++t) {
          const TrialKey key{bench, axis.kind, tuning, attack, t};
          const auto it = trials.find(key);
          if (it == trials.end()) {
            if (missing++ == 0) first_missing = key_label(key);
            continue;
          }
          report.rows.push_back(it->second.record);
        }
      }
    }
  }
  if (missing != 0) {
    throw std::runtime_error(strformat(
        "merge: %zu of %zu grid points missing from the union (first: %s); "
        "run or resume the missing shards before merging",
        missing, grid.rows(), first_missing.c_str()));
  }

  // The obs contract (campaign.hpp): sum every stage delta exactly once.
  for (const auto& [key, delta] : stages) obs::snapshot_merge(report.obs, delta);
  for (const auto& [key, t] : trials) obs::snapshot_merge(report.obs, t.obs_delta);

  report.profile.rows_resumed = report.rows.size();
  for (const TrialRecord& row : report.rows) {
    if (!row.ok) ++report.profile.failed_rows;
  }

  if (stats != nullptr) {
    stats->stores = paths.size();
    stats->trials = trials.size();
    stats->stages = stages.size();
    stats->duplicates = duplicates;
  }
  return report;
}

}  // namespace stt
