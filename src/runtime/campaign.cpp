#include "runtime/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "attack/registry.hpp"
#include "core/hybrid.hpp"
#include "defense/registry.hpp"
#include "obs/obs.hpp"
#include "runtime/shard.hpp"
#include "runtime/store.hpp"
#include "sim/compiled.hpp"
#include "synth/generator.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"
#include "verify/lint.hpp"

namespace stt {

namespace {

// Distinct stream tags for the independent RNG streams of one grid point.
constexpr int kStageCircuit = 0;
constexpr int kStageSelection = 1;
constexpr int kStageAttack = 2;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

std::uint64_t campaign_seed(std::uint64_t master_seed,
                            std::string_view benchmark, int stage,
                            int defense_index, int trial, int attempt) {
  // Feed every coordinate through two SplitMix64 rounds so neighbouring
  // grid points (trial k vs k+1, attempt 0 vs 1) get uncorrelated streams.
  std::uint64_t h = splitmix64(master_seed ^ fnv1a(benchmark));
  h = splitmix64(h ^ (static_cast<std::uint64_t>(stage) << 48) ^
                 (static_cast<std::uint64_t>(defense_index + 1) << 32) ^
                 (static_cast<std::uint64_t>(trial) << 8) ^
                 static_cast<std::uint64_t>(attempt));
  return h;
}

std::string tuning_to_string(const defense::Tuning& tuning) {
  std::string out;
  for (const auto& [k, v] : tuning) {
    if (!out.empty()) out += ";";
    out += k + "=" + v;
  }
  return out;
}

RetryOutcome run_with_seed_backoff(
    int max_attempts, const std::function<std::uint64_t(int)>& seed_for,
    const std::function<void(std::uint64_t seed, int attempt)>& body) {
  RetryOutcome outcome;
  if (max_attempts < 1) max_attempts = 1;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    ++outcome.attempts;
    try {
      body(seed_for(attempt), attempt);
      outcome.ok = true;
      return outcome;
    } catch (const std::exception& e) {
      outcome.error = e.what();
    } catch (...) {
      outcome.error = "unknown exception";
    }
  }
  return outcome;
}

namespace {

using ProgressFn = std::function<void(std::size_t, std::size_t,
                                      const std::string&)>;

/// Serialized progress fan-in for the worker threads.
class ProgressSink {
 public:
  ProgressSink(ProgressFn fn, std::size_t total)
      : fn_(std::move(fn)), total_(total) {}

  void tick(const std::string& label) {
    if (!fn_) return;
    std::lock_guard lock(mutex_);
    fn_(++done_, total_, label);
  }

 private:
  ProgressFn fn_;
  std::size_t total_;
  std::size_t done_ = 0;
  std::mutex mutex_;
};

/// Scan-oracle attacks can borrow the group's shared CompiledSim lowering
/// of the configured chip (the campaign dedup cache); the others ignore it.
bool attack_uses_scan_oracle(const std::string& attack) {
  return attack == "sat" || attack == "bf" || attack == "ml" ||
         attack == "sens" || attack == "gsens";
}

void run_attack_stage(TrialRecord& row, const Netlist& hybrid,
                      const Netlist& attacker_view,
                      const CompiledSim* oracle_sim, const std::string& attack,
                      std::uint64_t attack_seed) {
  if (attack == "none") return;
  // Wall-clock limits are disabled and the dominant-work budgets are
  // fixed, so the outcome and every telemetry column are machine- and
  // --jobs-independent. (The stage already runs on a pool worker, so no
  // ParallelFor is passed — the SAT warm-up stays serial.)
  attack::CommonAttackOptions common;
  common.seed = attack_seed;
  common.time_limit_s = attack::CommonAttackOptions::kNoTimeLimit;
  if (attack == "sat") common.work_budget = 2'000'000;
  const attack::UnifiedResult r = attack::registry().run(
      attack, attacker_view, hybrid, common, {}, nullptr, oracle_sim);
  row.attack_ran = true;
  row.attack_success = r.success();
  row.attack_outcome = attack::outcome_name(r.outcome);
  row.attack_detail = r.detail;
  row.attack_queries = r.queries;
  row.attack_iterations = r.iterations;
  row.attack_conflicts = r.conflicts;
  row.attack_decisions = r.sat.decisions;
  row.attack_propagations = r.sat.propagations;
  row.attack_learned = r.sat.learned;
  row.attack_peak_clauses = r.sat.peak_clauses;
  row.attack_cnf_per_iter = r.sat.cnf_clauses_per_iter;
}

/// Dedup cache slot for one (benchmark, defense, trial) group: the
/// attacker's foundry view of the locked netlist and (when the attack axis
/// has scan-oracle attacks) one CompiledSim lowering of the configured
/// chip. Built once by the group's defense job, shared read-only by all of
/// its attack rows; `uses` counts consumers for the savings estimate. The
/// last of the group's `readers` (its attack jobs) drops the assets and the
/// locked result.
struct GroupAssets {
  std::shared_ptr<const Netlist> view;
  std::shared_ptr<const CompiledSim> oracle_sim;
  double build_ms = 0;
  bool built = false;
  mutable std::atomic<std::uint64_t> uses{0};
  std::atomic<std::size_t> readers{0};
};

}  // namespace

void check_defense_axis(const std::vector<DefenseAxis>& axes) {
  // at() names an unknown kind and lists the registered ones.
  for (const DefenseAxis& axis : axes) {
    defense::registry().at(axis.kind).check(axis.tuning);
  }
}

CampaignReport run_campaign(const CampaignSpec& spec) {
  CampaignReport report;
  report.benchmarks = spec.benchmarks;
  if (report.benchmarks.empty()) {
    for (const CircuitProfile& profile : iscas89_profiles()) {
      report.benchmarks.push_back(profile.name);
    }
  }
  std::vector<CircuitProfile> profiles;
  for (const std::string& name : report.benchmarks) {
    const auto profile = find_profile(name);
    if (!profile) {
      throw std::invalid_argument("unknown benchmark '" + name + "'");
    }
    profiles.push_back(*profile);
  }
  report.trials = spec.trials;
  report.master_seed = spec.master_seed;

  // Validate the defense axis up front so a typo in a kind, a tuning key
  // or a tuning value fails the whole campaign before any job starts.
  report.defenses = spec.defenses;
  check_defense_axis(report.defenses);

  // Validate the attack axis the same way.
  report.attacks = spec.attacks;
  for (const std::string& attack : report.attacks) {
    if (attack != "none" && !attack::registry().contains(attack)) {
      std::string known = "none";
      for (const std::string& name : attack::registry().names()) {
        known += "|" + name;
      }
      throw std::invalid_argument("unknown campaign attack '" + attack +
                                  "' (expected " + known + ")");
    }
  }
  if (profiles.empty() || report.defenses.empty() || report.attacks.empty() ||
      spec.trials < 1) {
    throw std::invalid_argument("campaign grid is empty");
  }
  if (spec.shard_count < 1 || spec.shard_index < 1 ||
      spec.shard_index > spec.shard_count) {
    throw std::invalid_argument(
        "campaign shard must satisfy 1 <= index <= count");
  }
  if (spec.resume && spec.store_path.empty()) {
    throw std::invalid_argument("campaign resume requires a store path");
  }

  const std::size_t n_bench = profiles.size();
  const std::size_t n_def = report.defenses.size();
  const std::size_t n_att = report.attacks.size();
  const std::size_t n_trial = static_cast<std::size_t>(spec.trials);
  report.rows.resize(n_bench * n_def * n_att * n_trial);

  // Spec fingerprint (store.hpp): the resolved grid, canonically encoded.
  // Opening/creating the store happens before any job starts, so a spec
  // mismatch or unwritable path fails the campaign cleanly.
  CampaignGrid grid;
  grid.master_seed = spec.master_seed;
  grid.trials = spec.trials;
  grid.max_attempts = spec.max_attempts;
  grid.lint = spec.lint;
  grid.activity = spec.activity;
  grid.timing_margin = spec.timing_margin;
  grid.benchmarks = report.benchmarks;
  grid.defenses = report.defenses;
  grid.attacks = report.attacks;
  std::unique_ptr<ResultStore> store;
  if (!spec.store_path.empty()) {
    const std::string spec_bytes = campaign_grid_bytes(grid);
    store = spec.resume ? ResultStore::open(spec.store_path, spec_bytes)
                        : ResultStore::create(spec.store_path, spec_bytes);
    report.profile.store_note = store->open_stats().note;
  }

  const ShardSpec shard{spec.shard_index, spec.shard_count};
  report.profile.shard_index = spec.shard_index;
  report.profile.shard_count = spec.shard_count;

  const TechLibrary lib = TechLibrary::cmos90_stt();

  // Per-(benchmark, trial) shared circuit, produced by a generation job and
  // consumed read-only by the per-defense jobs hanging off it; per-
  // (benchmark, defense, trial) locked result, produced by a defense job
  // and consumed read-only by the per-attack jobs hanging off it. The
  // GroupAssets slot beside each locked result is the dedup cache: the
  // attacker's foundry view and (for scan-oracle attacks) one CompiledSim
  // lowering, built once per group and shared by every attack row of it.
  // The last job reading a circuit (its defense jobs) or a group (its
  // attack jobs) drops it, so a campaign holds the groups in flight, not
  // the whole grid.
  std::vector<std::shared_ptr<const Netlist>> circuits(n_bench * n_trial);
  std::vector<std::atomic<std::size_t>> circuit_readers(n_bench * n_trial);
  std::vector<std::shared_ptr<const defense::DefenseResult>> locked(
      n_bench * n_def * n_trial);
  std::vector<GroupAssets> assets(n_bench * n_def * n_trial);

  const auto flat = [n_def, n_att, n_trial](std::size_t b, std::size_t d,
                                            std::size_t a, std::size_t t) {
    return ((b * n_def + d) * n_att + a) * n_trial + t;
  };
  std::vector<std::string> tuning_strs(n_def);
  for (std::size_t d = 0; d < n_def; ++d) {
    tuning_strs[d] = tuning_to_string(report.defenses[d].tuning);
  }
  // The store key of flat row i (the inverse of `flat`).
  const auto key_at = [&](std::size_t i) {
    const std::size_t d = i / (n_att * n_trial) % n_def;
    return TrialKey{report.benchmarks[i / (n_def * n_att * n_trial)],
                    report.defenses[d].kind, tuning_strs[d],
                    report.attacks[i / n_trial % n_att],
                    static_cast<int>(i % n_trial)};
  };

  // Ownership and resume state per flat row: this process runs exactly the
  // owned-and-not-yet-recorded subset; resumed rows are replayed from the
  // store after the graph finishes, unowned rows are compacted away.
  const std::size_t total_rows = report.rows.size();
  std::vector<char> owned(total_rows, 0);
  std::vector<char> resumed(total_rows, 0);
  std::size_t pending_rows = 0;
  for (std::size_t i = 0; i < total_rows; ++i) {
    owned[i] = shard_owns(shard, i) ? 1 : 0;
    if (owned[i] && store != nullptr && store->contains_trial(key_at(i))) {
      resumed[i] = 1;
    }
    if (owned[i] && !resumed[i]) ++pending_rows;
  }

  // Per-stage stable-metrics deltas (the report.obs contract): seeded from
  // the store so skipped stages still contribute, extended by ScopedCapture
  // around every stage body that runs. Trial deltas live per flat row.
  std::map<std::string, obs::MetricsSnapshot> stage_deltas;
  std::mutex stage_mu;
  if (store != nullptr) {
    for (const auto& [key, delta] : store->stages()) {
      stage_deltas.emplace(key, delta);
    }
  }
  std::vector<obs::MetricsSnapshot> trial_deltas(total_rows);
  const auto record_stage = [&stage_deltas, &stage_mu,
                             &store](const std::string& key,
                                     obs::MetricsSnapshot delta) {
    {
      std::lock_guard lock(stage_mu);
      // Insert-if-absent: a stored delta wins, and re-running a stage on
      // resume reproduces it byte-for-byte anyway (stages are seeded and
      // single-threaded).
      stage_deltas.emplace(key, delta);
    }
    if (store != nullptr) store->append_stage(key, delta);
  };

  // Whether defense jobs build dedup-cache assets is a property of the
  // grid's attack axis, never of which rows are pending — so a defense
  // stage re-run on resume captures exactly the delta of the original run.
  bool axis_has_attack = false;
  bool axis_has_oracle = false;
  for (const std::string& attack : report.attacks) {
    if (attack != "none") axis_has_attack = true;
    if (attack_uses_scan_oracle(attack)) axis_has_oracle = true;
  }

  ProgressSink progress(spec.on_progress, pending_rows);

  // Snapshot the full (runtime-inclusive) metrics around the run for the
  // profile's obs block; the deterministic report.obs is assembled from the
  // captured per-stage deltas instead.
  const obs::MetricsSnapshot obs_before_full =
      obs::Metrics::global().snapshot(/*include_runtime=*/true);

  ThreadPool pool(spec.jobs == 0 ? 0 : spec.jobs);
  JobGraph graph;
  Timer campaign_timer;

  constexpr JobId kNoJob = std::numeric_limits<JobId>::max();
  std::vector<JobId> row_jobs(total_rows, kNoJob);
  for (std::size_t b = 0; b < n_bench; ++b) {
    for (std::size_t t = 0; t < n_trial; ++t) {
      const CircuitProfile& profile = profiles[b];
      const std::size_t circuit_index = b * n_trial + t;
      const std::uint64_t circuit_seed =
          campaign_seed(spec.master_seed, profile.name, kStageCircuit, -1,
                        static_cast<int>(t), 0);
      // A defense group needs its job (and transitively the circuit) only
      // when it still has pending rows; fully-resumed or unowned groups are
      // replayed from the store or dropped, never recomputed.
      std::vector<char> def_needed(n_def, 0);
      bool gen_needed = false;
      for (std::size_t d = 0; d < n_def; ++d) {
        for (std::size_t a = 0; a < n_att; ++a) {
          if (owned[flat(b, d, a, t)] && !resumed[flat(b, d, a, t)]) {
            def_needed[d] = 1;
            gen_needed = true;
          }
        }
      }
      JobId gen_job = kNoJob;
      if (gen_needed) {
        const std::string gen_key =
            "gen/" + profile.name + "/t" + std::to_string(t);
        gen_job = graph.add(
            gen_key, [&circuits, &record_stage, circuit_index, profile,
                      circuit_seed, gen_key](JobContext&) {
              obs::ScopedCapture capture;
              circuits[circuit_index] = std::make_shared<const Netlist>(
                  generate_circuit(profile, circuit_seed));
              record_stage(gen_key, capture.stable_delta());
            });
      }
      for (std::size_t d = 0; d < n_def; ++d) {
        const DefenseAxis& axis = report.defenses[d];
        // Row (b, d, a, t) lives at ((b*n_def + d)*n_att + a)*n_trial + t;
        // `row0` is the a=0 slot, filled by the defense job as the group's
        // template and fanned out to the other attack rows.
        const std::size_t row0 = ((b * n_def + d) * n_att) * n_trial + t;
        const std::size_t def_index = (b * n_def + d) * n_trial + t;
        const std::string& tuning_str = tuning_strs[d];
        for (std::size_t a = 0; a < n_att; ++a) {
          TrialRecord& row = report.rows[row0 + a * n_trial];
          row.benchmark = profile.name;
          row.defense = axis.kind;
          row.defense_tuning = tuning_str;
          row.attack = report.attacks[a];
          row.trial = static_cast<int>(t);
          row.circuit_seed = circuit_seed;
        }
        if (!def_needed[d]) continue;
        ++circuit_readers[circuit_index];
        const std::string defense_label =
            profile.name + "/" + axis.kind + "/t" + std::to_string(t);
        const std::string def_key =
            "def/" + profile.name + "/" + axis.kind +
            (tuning_str.empty() ? "" : "(" + tuning_str + ")") + "/t" +
            std::to_string(t);
        const JobId defense_job = graph.add(
            "flow/" + defense_label,
            [&spec, &lib, &circuits, &circuit_readers, &report, &locked,
             &assets, &record_stage, circuit_index, def_index, row0, n_att,
             n_trial, axis, d, t, def_key, axis_has_attack,
             axis_has_oracle](JobContext&) {
              const Netlist& original = *circuits[circuit_index];
              TrialRecord& first = report.rows[row0];
              const auto seed_for = [&spec, &first, d, t](int attempt) {
                return campaign_seed(spec.master_seed, first.benchmark,
                                     kStageSelection, static_cast<int>(d),
                                     static_cast<int>(t), attempt);
              };
              const Timer flow_timer;
              auto result = std::make_shared<defense::DefenseResult>();
              obs::ScopedCapture capture;
              const RetryOutcome outcome = run_with_seed_backoff(
                  spec.max_attempts, seed_for,
                  [&](std::uint64_t seed, int /*attempt*/) {
                    *result = defense::registry().apply(
                        axis.kind, original, lib,
                        {seed, spec.timing_margin, spec.activity},
                        axis.tuning);
                    first.selection_seed = seed;
                    first.num_luts = result->overhead.num_stt_luts;
                    first.key_cells = result->key_cells;
                    first.key_bits = result->key_bits;
                    first.cells_added = result->cells_added;
                    first.cells_replaced = result->cells_replaced;
                    first.perf_pct = result->overhead.perf_degradation_pct();
                    first.power_pct = result->overhead.power_overhead_pct();
                    first.area_pct = result->overhead.area_overhead_pct();
                    first.original_delay_ps =
                        result->overhead.original_delay_ps;
                    first.hybrid_delay_ps = result->overhead.hybrid_delay_ps;
                    first.n_indep = result->security.n_indep.to_string();
                    first.n_dep = result->security.n_dep.to_string();
                    first.n_bf = result->security.n_bf.to_string();
                    first.paths_considered =
                        result->selection.paths_considered;
                    first.timing_retries = result->selection.timing_retries;
                    first.usl_replacements =
                        result->selection.usl_replacements;
                    first.selection_ms =
                        result->selection.selection_seconds * 1e3;
                    if (spec.lint) {
                      LintOptions lint_opt;
                      lint_opt.defense = result->annotations;
                      const LintReport lint =
                          run_lint(result->locked, lint_opt);
                      first.lint_ran = true;
                      first.lint_verdict = lint.verdict();
                      first.lint_errors = lint.counts.errors;
                      first.lint_warnings = lint.counts.warnings;
                      first.lint_infos = lint.counts.infos;
                      first.audit_log10_drop =
                          std::max({lint.audit.log10_drop_indep,
                                    lint.audit.log10_drop_dep,
                                    lint.audit.log10_drop_bf});
                      if (lint.keydep_ran) {
                        first.key_bits_static = lint.keydep.key_bits_static;
                        first.eff_key_bits = lint.keydep.eff_key_bits;
                        first.analyze_verdict = lint.keydep.verdict();
                      }
                    }
                  });
              record_stage(def_key, capture.stable_delta());
              first.attempts = outcome.attempts;
              first.ok = outcome.ok;
              first.error = outcome.error;
              first.flow_ms = flow_timer.millis();
              if (outcome.ok) {
                locked[def_index] = std::move(result);
                if (axis_has_attack) {
                  // Dedup cache: build the attacker view (and the oracle
                  // lowering) once, outside the capture, so the defense
                  // delta never depends on the attack axis contents.
                  GroupAssets& cache = assets[def_index];
                  const Timer build_timer;
                  cache.view = std::make_shared<const Netlist>(
                      foundry_view(locked[def_index]->locked));
                  if (axis_has_oracle) {
                    cache.oracle_sim = std::make_shared<const CompiledSim>(
                        locked[def_index]->locked);
                  }
                  cache.build_ms = build_timer.millis();
                  cache.built = true;
                }
              }
              if (circuit_readers[circuit_index].fetch_sub(
                      1, std::memory_order_acq_rel) == 1) {
                circuits[circuit_index].reset();
              }
              // Fan the shared defense/lint columns out to the group's
              // other attack rows; only `attack` differs at this point.
              for (std::size_t a = 1; a < n_att; ++a) {
                TrialRecord& row = report.rows[row0 + a * n_trial];
                const std::string attack = row.attack;
                row = first;
                row.attack = attack;
              }
              // Deliberately never throws: the attack jobs below must run
              // (and tick progress) even for a failed defense.
            },
            {gen_job});
        for (std::size_t a = 0; a < n_att; ++a) {
          const std::size_t row_index = row0 + a * n_trial;
          if (!owned[row_index] || resumed[row_index]) continue;
          ++assets[def_index].readers;
          std::string label = profile.name + "/" + axis.kind;
          if (n_att > 1) label += "/" + report.attacks[a];
          label += "/t" + std::to_string(t);
          row_jobs[row_index] = graph.add(
              "atk/" + label,
              [&spec, &report, &locked, &assets, &progress, &store,
               &trial_deltas, &key_at, row_index, def_index, d, t, a,
               label](JobContext&) {
                TrialRecord& row = report.rows[row_index];
                const Timer attack_timer;
                obs::ScopedCapture capture;
                if (row.ok && row.attack != "none") {
                  // The first attack axis point keeps the pre-defense-axis
                  // seed stream; later points fold the attack name into the
                  // stream tag for an independent stream.
                  const std::string stream =
                      a == 0 ? row.benchmark
                             : row.benchmark + "#" + row.attack;
                  const std::uint64_t attack_seed =
                      campaign_seed(spec.master_seed, stream, kStageAttack,
                                    static_cast<int>(d), static_cast<int>(t),
                                    0);
                  try {
                    const GroupAssets& cache = assets[def_index];
                    cache.uses.fetch_add(1, std::memory_order_relaxed);
                    run_attack_stage(
                        row, locked[def_index]->locked, *cache.view,
                        attack_uses_scan_oracle(row.attack)
                            ? cache.oracle_sim.get()
                            : nullptr,
                        row.attack, attack_seed);
                  } catch (const std::exception& e) {
                    row.ok = false;
                    row.error = "attack: " + std::string(e.what());
                  }
                }
                GroupAssets& group = assets[def_index];
                if (group.readers.fetch_sub(1, std::memory_order_acq_rel) ==
                    1) {
                  locked[def_index].reset();
                  group.view.reset();
                  group.oracle_sim.reset();
                }
                trial_deltas[row_index] = capture.stable_delta();
                row.flow_ms += attack_timer.millis();
                // Record before the failure throw below: failed rows are
                // results too, and resume must not re-run them.
                if (store != nullptr) {
                  store->append_trial(key_at(row_index), row,
                                      trial_deltas[row_index]);
                }
                progress.tick(label);
                if (!row.ok) throw std::runtime_error(row.error);
              },
              {defense_job});
        }
      }
    }
  }

  graph.run(pool);

  // Jobs that never ran (generation failed upstream) still need their rows
  // closed out, and queue latency only the graph knows. Rows without a job
  // (resumed or unowned) have nothing to collect here.
  for (std::size_t i = 0; i < total_rows; ++i) {
    if (row_jobs[i] == kNoJob) continue;
    TrialRecord& row = report.rows[i];
    const JobRecord record = graph.record(row_jobs[i]);
    row.queue_ms = record.queue_ms;
    if (record.state == JobState::kCancelled && row.error.empty()) {
      row.error = record.error;
    }
    report.profile.job_cpu_seconds += record.run_ms / 1e3;
  }

  // Replay resumed rows from the store — after the graph, because a
  // re-running defense job fans its (recomputed, byte-identical) template
  // over the whole group, including rows this process did not own.
  for (std::size_t i = 0; i < total_rows; ++i) {
    if (!resumed[i]) continue;
    const StoredTrial& stored = store->trials().at(key_at(i));
    report.rows[i] = stored.record;
    trial_deltas[i] = stored.obs_delta;
  }

  pool.wait_idle();
  report.profile.threads = pool.size();
  report.profile.wall_seconds = campaign_timer.seconds();
  const ThreadPool::Stats stats = pool.stats();
  report.profile.executed = stats.executed;
  report.profile.stolen = stats.stolen;
  report.profile.rows_executed = pending_rows;
  for (std::size_t i = 0; i < total_rows; ++i) {
    if (resumed[i]) ++report.profile.rows_resumed;
  }

  // Dedup-cache accounting: one build per group that materialized assets;
  // every use past the first reused a ~`build_ms` setup the old per-row
  // path would have repeated.
  for (const GroupAssets& cache : assets) {
    if (!cache.built) continue;
    ++report.profile.cache_builds;
    const std::uint64_t uses = cache.uses.load(std::memory_order_relaxed);
    if (uses > 1) {
      report.profile.cache_reuses += uses - 1;
      report.profile.cache_saved_ms +=
          cache.build_ms * static_cast<double>(uses - 1);
    }
  }
  // Runtime-tagged observability (process-dependent by design: resume and
  // shard state change them, so they stay out of the stable obs block).
  obs::Metrics::global()
      .counter("campaign.rows.resumed", /*stable=*/false)
      .add(report.profile.rows_resumed);
  obs::Metrics::global()
      .counter("campaign.rows.executed", /*stable=*/false)
      .add(report.profile.rows_executed);
  obs::Metrics::global()
      .counter("campaign.cache.builds", /*stable=*/false)
      .add(report.profile.cache_builds);
  obs::Metrics::global()
      .counter("campaign.cache.reuses", /*stable=*/false)
      .add(report.profile.cache_reuses);

  // The deterministic obs block: every stage delta exactly once (captured
  // here or replayed from the store), plus the owned rows' attack deltas.
  {
    std::lock_guard lock(stage_mu);
    for (const auto& [key, delta] : stage_deltas) {
      obs::snapshot_merge(report.obs, delta);
    }
  }
  for (std::size_t i = 0; i < total_rows; ++i) {
    if (owned[i]) obs::snapshot_merge(report.obs, trial_deltas[i]);
  }

  // A sharded run reports only its owned subset, in grid order.
  if (spec.shard_count > 1) {
    std::vector<TrialRecord> kept;
    kept.reserve(pending_rows + report.profile.rows_resumed);
    for (std::size_t i = 0; i < total_rows; ++i) {
      if (owned[i]) kept.push_back(std::move(report.rows[i]));
    }
    report.rows = std::move(kept);
  }
  for (const TrialRecord& row : report.rows) {
    if (!row.ok) ++report.profile.failed_rows;
  }

  report.profile.obs = obs::snapshot_diff(
      obs::Metrics::global().snapshot(/*include_runtime=*/true),
      obs_before_full);
  return report;
}

}  // namespace stt
