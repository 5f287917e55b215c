// Structured reporting for campaign runs.
//
// Two classes of output, deliberately kept apart:
//  * deterministic views — `campaign_results_csv` (one row per grid point)
//    and the "results"/"summary" sections of `campaign_json`. Byte-identical
//    across runs and across --jobs values; the determinism test and any
//    diff-based regression tracking key off these.
//  * measured views — `campaign_timing_csv` (Table II-style selection CPU
//    times plus scheduling latency) and the "runtime" JSON section. These
//    report what actually happened on this machine and vary run to run.
#pragma once

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/campaign.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace stt {

/// Deterministic per-grid-point result rows (RFC 4180 CSV, header first).
std::string campaign_results_csv(const CampaignReport& report);

/// Measured per-grid-point timings keyed by the full grid key (benchmark,
/// defense, tuning, attack, trial): selection CPU time in the paper's
/// MM:SS.t style and milliseconds, whole-flow and queue latency.
std::string campaign_timing_csv(const CampaignReport& report);

/// Per-defense-axis-point aggregates over the successful rows, in first-
/// appearance (grid) order.
struct DefenseSummary {
  std::string defense;
  std::string tuning;  ///< "k=v;k=v" rendering, empty = defaults
  Accumulator perf_pct, power_pct, area_pct, luts, key_bits;
  std::size_t rows = 0;
  std::size_t failed = 0;
  std::size_t attacked = 0;        ///< rows with an attack stage
  std::size_t attack_breaks = 0;   ///< attacked rows where the key fell
};
std::vector<DefenseSummary> summarize_by_defense(const CampaignReport& report);

/// Human-readable aggregate table (TextTable-rendered).
std::string campaign_summary_text(const CampaignReport& report);

/// Full JSON document: results + summary (+ runtime profile unless
/// `include_profile` is false, which callers comparing documents across
/// runs should use).
std::string campaign_json(const CampaignReport& report,
                          bool include_profile = true);

/// Thread-safe single-line progress meter ("\r[done/total] label  t=..s"),
/// written to `out` only when `enabled` (pass isatty() or a --progress
/// flag). When the obs layer is enabled and attacks/simulation are
/// running, the line also carries live global rates (SAT DIPs/s and
/// simulated patterns/s) derived from `obs::Metrics`.
///
/// finish() terminates the line; the destructor calls it too, so an
/// exception unwinding past the meter can never leave a dangling "\r"
/// line on the terminal.
class ProgressMeter {
 public:
  ProgressMeter(std::size_t total, bool enabled, std::FILE* out = stderr);
  ~ProgressMeter();
  ProgressMeter(const ProgressMeter&) = delete;
  ProgressMeter& operator=(const ProgressMeter&) = delete;

  void tick(std::size_t done, const std::string& label);
  void finish();

 private:
  std::mutex mutex_;
  std::size_t total_;
  bool enabled_;
  std::FILE* out_;
  Timer timer_;
  bool dirty_ = false;  ///< a progress line is pending termination
  std::uint64_t base_dips_ = 0;   ///< "sat.dips" at construction
  std::uint64_t base_words_ = 0;  ///< "sim.words" at construction
};

}  // namespace stt
