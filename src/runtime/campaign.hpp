// Experiment-campaign driver: expands a benchmark x defense x attack x
// trial grid into a dependency graph of jobs (one circuit-generation job
// per (benchmark, trial), one defense job per (benchmark, defense, trial)
// hanging off it, one attack job per grid point hanging off the defense)
// and executes it on a work-stealing ThreadPool.
//
// Determinism contract: every stochastic stage of a grid point derives its
// RNG stream from (master_seed, benchmark, defense, trial, attempt) via
// `campaign_seed`, and results land in a preallocated slot addressed by the
// grid index — so an N-thread campaign produces byte-identical result rows
// to a single-thread one regardless of execution interleaving. Measured
// durations (selection/flow/queue time) are inherently non-deterministic
// and are segregated by the report layer (report.hpp) into the timing
// views, never into the deterministic result CSV.
//
// Failure policy: a grid point whose defense throws (e.g. a timing-
// infeasible parametric selection) is retried with the *next attempt's*
// seed — a bounded "backoff in seed space" — and only after `max_attempts`
// tries is the row recorded as failed; the rest of the campaign always
// completes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "defense/defense.hpp"
#include "obs/obs.hpp"
#include "runtime/job.hpp"
#include "runtime/record.hpp"

namespace stt {

/// One point on the campaign's defense axis: a `defense::registry()` kind
/// plus its tuning knobs. The paper's three selection algorithms are
/// registered defenses ("independent", "dependent", "parametric").
struct DefenseAxis {
  std::string kind;
  defense::Tuning tuning;
};

/// Canonical "k=v;k=v" rendering of a tuning list (insertion order, no
/// escaping — knob keys/values are identifier-like). This string is the
/// `defense_tuning` result column and the tuning part of store trial keys.
std::string tuning_to_string(const defense::Tuning& tuning);

struct CampaignSpec {
  /// ISCAS'89 profile names; empty = all twelve Table I benchmarks.
  std::vector<std::string> benchmarks;
  /// Defense axis of the grid; must not be empty.
  std::vector<DefenseAxis> defenses;
  /// Attack axis of the grid. "none" records a row without an attack
  /// stage; every other entry must be an `attack::registry()` name. Every
  /// attack is deterministic for a fixed seed — the campaign disables
  /// wall-clock limits and caps the SAT attack by conflict budget instead,
  /// so attack columns stay inside the byte-identical result rows
  /// regardless of machine load or --jobs.
  std::vector<std::string> attacks = {"none"};
  int trials = 1;
  std::uint64_t master_seed = 20160605;  ///< the repo's Table I/II seed
  unsigned jobs = 1;                     ///< worker threads (0 = hardware)
  int max_attempts = 3;                  ///< seed-backoff retry bound
  double activity = 0.10;       ///< power sign-off switching activity
  double timing_margin = 0.05;  ///< parametric timing margin
  /// Run `sttlock lint` (structural + static security audit, src/verify)
  /// over every grid point's hybrid netlist; the verdict and the audited-
  /// vs-optimistic security delta land in the deterministic result rows.
  bool lint = true;
  /// Progress callback, invoked once per settled grid point from worker
  /// threads (serialized by the driver). May be empty.
  std::function<void(std::size_t done, std::size_t total,
                     const std::string& label)>
      on_progress;

  // -- result store / resume / sharding (store.hpp, shard.hpp) ------------
  /// Append-only result store path ("" = no store). With `resume` false
  /// the store is created fresh (refusing to clobber an existing file);
  /// with `resume` true an existing store is opened — its recorded spec
  /// must match this campaign byte-for-byte — already-recorded grid points
  /// are skipped, and their rows/obs deltas are replayed from disk so the
  /// emitted CSV/JSON stay byte-identical to an uninterrupted run. A
  /// missing file under `resume` is created, making kill/resume loops
  /// idempotent to start.
  std::string store_path;
  bool resume = false;
  /// Static 1-based shard `shard_index` of `shard_count`: this process owns
  /// exactly the grid points whose flat row index i satisfies
  /// i % shard_count == shard_index - 1. Rows (and progress, and the obs
  /// block) cover only the owned subset; `sttlock merge` recombines shard
  /// stores into the full grid deterministically.
  unsigned shard_index = 1;
  unsigned shard_count = 1;
};

struct CampaignReport {
  std::vector<std::string> benchmarks;  ///< resolved benchmark list
  std::vector<DefenseAxis> defenses;
  std::vector<std::string> attacks;
  int trials = 1;
  std::uint64_t master_seed = 0;

  /// One TrialRecord (record.hpp) per grid point, in grid order:
  /// benchmark-major, then defense, then attack, then trial — independent
  /// of execution interleaving.
  std::vector<TrialRecord> rows;

  /// Stable-metrics block: the sum of the per-stage deltas captured by
  /// `obs::ScopedCapture` around every circuit-generation, defense, and
  /// attack stage body, each stage counted exactly once. Per-stage deltas
  /// are deterministic (each stage body is single-threaded and seeded),
  /// and summation is commutative — so the block is byte-identical across
  /// --jobs values, and a resumed or shard-merged campaign reproduces it
  /// exactly by replaying stored deltas for stages it did not re-run.
  /// Lands in the deterministic part of `campaign_json`.
  obs::MetricsSnapshot obs;

  struct Profile {
    unsigned threads = 0;
    double wall_seconds = 0;
    double job_cpu_seconds = 0;  ///< sum of per-job run times
    std::uint64_t executed = 0;
    std::uint64_t stolen = 0;
    std::size_t failed_rows = 0;
    // Resume/shard accounting (store.hpp): grid points replayed from the
    // result store vs executed in this process, and the shard coordinates.
    std::size_t rows_resumed = 0;
    std::size_t rows_executed = 0;
    unsigned shard_index = 1;
    unsigned shard_count = 1;
    /// Store recovery diagnostic from open (torn tail truncated, bytes
    /// dropped); empty for a clean open or when no store is attached.
    std::string store_note;
    // Dedup cache: per (benchmark, defense, tuning, trial) group the
    // foundry view and the oracle's CompiledSim lowering are built once in
    // the defense job and reused by every oracle-backed attack row of the
    // group; `cache_saved_ms` estimates the per-trial setup time those
    // reuses avoided (build time x extra uses).
    std::uint64_t cache_builds = 0;
    std::uint64_t cache_reuses = 0;
    double cache_saved_ms = 0;
    /// Full metrics delta including runtime-tagged instruments (queue
    /// waits, steal counts); varies run to run like the rest of Profile.
    obs::MetricsSnapshot obs;
  } profile;
};

/// Seed derivation for every stochastic stage of a grid point. `stage`
/// namespaces independent streams of the same grid point (circuit
/// generation vs selection vs attack); `defense_index` is the grid point's
/// position on the defense axis (-1 for per-circuit stages); `attempt`
/// implements the retry backoff-in-seed policy.
std::uint64_t campaign_seed(std::uint64_t master_seed,
                            std::string_view benchmark, int stage,
                            int defense_index, int trial, int attempt);

/// Retry helper: calls `body(seed_for(attempt), attempt)` until it returns
/// without throwing or `max_attempts` is exhausted.
struct RetryOutcome {
  int attempts = 0;
  bool ok = false;
  std::string error;  ///< last exception message when !ok
};
RetryOutcome run_with_seed_backoff(
    int max_attempts, const std::function<std::uint64_t(int)>& seed_for,
    const std::function<void(std::uint64_t seed, int attempt)>& body);

/// Checks each defense axis point's kind, tuning keys and values against the
/// knob tables; std::invalid_argument names the first bad one.
void check_defense_axis(const std::vector<DefenseAxis>& axes);

/// Expand the grid, run it, aggregate. Throws std::invalid_argument before
/// any job starts on an unknown benchmark name, a defense axis point that
/// check_defense_axis rejects, an unknown attack name, or an empty grid (no
/// defense, attack or trial) — the message lists the valid kinds.
CampaignReport run_campaign(const CampaignSpec& spec);

}  // namespace stt
