// Workload campaign_sat: `run_campaign` over a pinned benchmark x defense x
// attack x trial grid, closed loop, two worker threads — the user's main
// path, in which SAT solving dominates.
#include <algorithm>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/registry.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "core/hybrid.hpp"
#include "defense/registry.hpp"
#include "runtime/campaign.hpp"
#include "runtime/report.hpp"
#include "sim/compiled.hpp"
#include "synth/generator.hpp"
#include "tech/tech_library.hpp"
#include "verify/lint.hpp"

namespace sttbench {

namespace {

// Many small circuits: one SAT row's cost varies several-fold between
// seeds, so averaging 128 SAT rows per campaign keeps a run's figures
// steady across seeds (README.md says why not s5378a/s9234a/s13207).
const std::vector<std::string> kBenchmarks = {"s953", "s1196", "s1238",
                                              "s1488"};
const std::vector<std::string> kDefenses = {"parametric", "xor", "latch",
                                            "const"};
const std::vector<std::string> kAttacks = {"sat", "static"};
constexpr std::size_t kTrials = 8;
constexpr unsigned kThreads = 2;
constexpr int kMinReps = 2;  // the result CSV is compared across reps
// Stage tags of stt::campaign_seed, as run_campaign derives them.
constexpr int kStageCircuit = 0;
constexpr int kStageAttack = 2;
constexpr const char* kWorkload = "campaign_sat";

/// Row index of grid point (b, d, a, t) in a CampaignReport.
std::size_t flat(std::size_t b, std::size_t d, std::size_t a, std::size_t t) {
  return ((b * kDefenses.size() + d) * kAttacks.size() + a) * kTrials + t;
}

stt::CampaignSpec make_spec(std::uint64_t master_seed,
                            const std::vector<std::string>& attacks) {
  stt::CampaignSpec spec;
  spec.benchmarks = kBenchmarks;
  for (const std::string& kind : kDefenses) spec.defenses.push_back({kind, {}});
  spec.attacks = attacks;
  spec.trials = static_cast<int>(kTrials);
  spec.master_seed = master_seed;
  spec.jobs = kThreads;
  spec.lint = true;
  return spec;
}

/// The deterministic defense/lint columns of a row (no SAT telemetry).
std::string defense_record(const stt::TrialRecord& row) {
  std::ostringstream o;
  o << "ok=" << row.ok << " key_cells=" << row.key_cells
    << " key_bits=" << row.key_bits << " luts=" << row.num_luts
    << " lint=" << row.lint_verdict << " errors=" << row.lint_errors
    << " warnings=" << row.lint_warnings << " infos=" << row.lint_infos
    << " eff_key_bits=" << row.eff_key_bits
    << " key_bits_static=" << row.key_bits_static
    << " analyze=" << (row.analyze_verdict.empty() ? "-" : row.analyze_verdict);
  return o.str();
}

std::string item_of(const stt::TrialRecord& row) {
  return row.benchmark + "/" + row.defense + "/t" + std::to_string(row.trial);
}

/// The columns run_campaign fills from a defense and its lint report.
stt::TrialRecord replayed_record(const stt::defense::DefenseResult& d,
                                 const stt::LintReport& lint) {
  stt::TrialRecord row;
  row.ok = true;
  row.num_luts = d.overhead.num_stt_luts;
  row.key_cells = d.key_cells;
  row.key_bits = d.key_bits;
  row.lint_verdict = lint.verdict();
  row.lint_errors = lint.counts.errors;
  row.lint_warnings = lint.counts.warnings;
  row.lint_infos = lint.counts.infos;
  if (lint.keydep_ran) {
    row.key_bits_static = lint.keydep.key_bits_static;
    row.eff_key_bits = lint.keydep.eff_key_bits;
    row.analyze_verdict = lint.keydep.verdict();
  }
  return row;
}

struct Setup {
  std::uint64_t master_seed = 0;
  KnownAnswers answers;
  std::vector<std::size_t> mean_cells;  ///< per benchmark, over the trials
};

/// The variant's campaign master seed, recorded with its known answers.
std::uint64_t master_seed_of(const KnownAnswers& answers, std::uint64_t variant) {
  const auto it = answers.entries.find(KnownAnswers::key(kWorkload, variant, "master"));
  if (it == answers.entries.end() || it->second.rfind("seed=", 0) != 0) {
    throw std::runtime_error("known answers lack the campaign master seed of variant " +
                             std::to_string(variant));
  }
  return std::stoull(it->second.substr(5));
}

/// Known answers, the grid's circuits (for their sizes), and one small
/// warm-up campaign so registries and allocator pools are filled before
/// timing.
Setup set_up(const RunConfig& cfg) {
  Setup s;
  s.answers = KnownAnswers::load(cfg.expected_path);
  s.master_seed = master_seed_of(s.answers, variant_of(cfg.seed));
  for (const std::string& name : kBenchmarks) {
    std::size_t cells = 0;
    for (std::size_t t = 0; t < kTrials; ++t) {
      const std::uint64_t seed = stt::campaign_seed(
          s.master_seed, name, kStageCircuit, -1, static_cast<int>(t), 0);
      cells += stt::generate_circuit(*stt::find_profile(name), seed).size();
    }
    s.mean_cells.push_back(cells / kTrials);
  }
  stt::CampaignSpec warm_up = make_spec(s.master_seed, kAttacks);
  warm_up.benchmarks = {kBenchmarks.front()};
  warm_up.trials = 1;
  stt::run_campaign(warm_up);
  return s;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Check every row of one campaign: status, known answers, the const-lock
/// invariant, and CSV identity with the first repetition.
void check_report(const stt::CampaignReport& report, const Setup& s,
                  std::uint64_t variant, const std::vector<std::string>* first,
                  RunResult& r) {
  const std::vector<std::string> csv =
      split_lines(stt::campaign_results_csv(report));
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    const stt::TrialRecord& row = report.rows[i];
    const std::string label = item_of(row) + "/" + row.attack;
    ++r.attempted;
    if (!row.ok) {
      r.op_failed(label + ": row failed: " + row.error);
      continue;
    }
    const std::string mismatch = s.answers.check(
        KnownAnswers::key(kWorkload, variant, item_of(row)),
        defense_record(row));
    if (!mismatch.empty()) {
      r.op_failed(mismatch);
    } else if (row.defense == "const" && row.key_bits_static != row.key_bits) {
      r.op_failed(label + ": const lock recovered " +
                  std::to_string(row.key_bits_static) + " of " +
                  std::to_string(row.key_bits) + " key bits statically");
    } else if (first != nullptr &&
               (csv.size() != first->size() || csv[i + 1] != (*first)[i + 1])) {
      r.op_failed(label + ": result CSV row differs from the first repetition");
    }
  }
}

void note_inputs(const Setup& s, const stt::CampaignReport& report,
                 RunResult& r) {
  std::ostringstream o;
  o << "input: grid=" << kBenchmarks.size() << "x" << kDefenses.size() << "x"
    << kAttacks.size() << "x" << kTrials << " rows=" << report.rows.size()
    << " threads=" << kThreads << " master_seed=" << s.master_seed;
  for (std::size_t b = 0; b < kBenchmarks.size(); ++b) {
    o << " " << kBenchmarks[b] << ".mean_cells=" << s.mean_cells[b];
  }
  r.note(o.str());
  for (const stt::TrialRecord& row : report.rows) {
    if (row.trial != 0) continue;
    r.note("row: " + item_of(row) + "/" + row.attack + " key_cells=" +
           std::to_string(row.key_cells) + " key_bits=" +
           std::to_string(row.key_bits) + " " + row.attack_outcome + " " +
           row.attack_detail + " flow_ms=" + std::to_string(row.flow_ms));
  }
}

/// The traced replay: the grid's stages run serially in job-graph order
/// (generate once per benchmark and trial; defend + lint, view and
/// lowering once per group; one attack per row) with the seeds recorded in
/// `report`'s rows, each library call timed here.
void traced_replay(const stt::CampaignSpec& spec,
                   const stt::CampaignReport& report, Ledger& ledger,
                   RunResult& r) {
  const stt::TechLibrary lib = stt::TechLibrary::cmos90_stt();
  struct Group {
    std::string label;
    std::shared_ptr<const stt::defense::DefenseResult> result;
  };
  std::vector<Group> groups;
  struct Solved {
    std::size_t group;
    std::string label;
    stt::LutKey key;
  };
  std::vector<Solved> solved;
  double sat_props = 0, queries = 0, attacks = 0, successes = 0;
  for (std::size_t b = 0; b < kBenchmarks.size(); ++b) {
    const std::string& bench = kBenchmarks[b];
    for (std::size_t t = 0; t < kTrials; ++t) {
      const Clock::time_point op_t0 = Clock::now();
      const stt::Netlist circuit = ledger.time("synth.generate_s", [&] {
        return stt::generate_circuit(*stt::find_profile(bench),
                                     report.rows[flat(b, 0, 0, t)].circuit_seed);
      });
      ledger.values["synth.cells"] += static_cast<double>(circuit.size());
      for (std::size_t d = 0; d < kDefenses.size(); ++d) {
        const stt::TrialRecord& row0 = report.rows[flat(b, d, 0, t)];
        auto dr = std::make_shared<const stt::defense::DefenseResult>(
            ledger.time("defense.apply_s", [&] {
              return stt::defense::registry().apply(
                  kDefenses[d], circuit, lib,
                  {row0.selection_seed, spec.timing_margin, spec.activity},
                  {});
            }));
        ledger.values["defense.key_bits"] += dr->key_bits;
        stt::LintOptions lint_opt;
        lint_opt.defense = dr->annotations;
        const stt::LintReport lint = ledger.time(
            "verify.lint_s", [&] { return stt::run_lint(dr->locked, lint_opt); });
        const std::string replayed = defense_record(replayed_record(*dr, lint));
        if (replayed != defense_record(row0)) {
          r.op_failed(item_of(row0) + ": traced replay defense/lint columns [" +
                      replayed + "] differ from the campaign row [" +
                      defense_record(row0) + "]");
        }
        const stt::Netlist view = ledger.time(
            "sim.view_s", [&] { return stt::foundry_view(dr->locked); });
        const stt::CompiledSim oracle_sim = ledger.time(
            "sim.lower_s", [&] { return stt::CompiledSim(dr->locked); });
        for (std::size_t a = 0; a < kAttacks.size(); ++a) {
          const stt::TrialRecord& row = report.rows[flat(b, d, a, t)];
          const std::string& attack = kAttacks[a];
          ++r.attempted;
          // run_campaign's attack stage: seeded per grid point, no
          // wall-clock limit, SAT capped by a fixed conflict budget.
          stt::attack::CommonAttackOptions common;
          common.seed = stt::campaign_seed(
              spec.master_seed, a == 0 ? bench : bench + "#" + attack,
              kStageAttack, static_cast<int>(d), static_cast<int>(t), 0);
          common.time_limit_s = stt::attack::CommonAttackOptions::kNoTimeLimit;
          if (attack == "sat") common.work_budget = 2'000'000;
          const stt::attack::UnifiedResult res =
              ledger.time("attack." + attack + ".s", [&] {
                return stt::attack::registry().run(
                    attack, view, dr->locked, common, {}, nullptr,
                    attack == "sat" ? &oracle_sim : nullptr);
              });
          ++attacks;
          queries += static_cast<double>(res.queries);
          if (res.success()) {
            ++successes;
            solved.push_back({groups.size(), item_of(row) + "/" + attack, res.key});
          }
          if (attack == "sat") {
            auto& v = ledger.values;
            v["attack.sat.dips"] += static_cast<double>(res.iterations);
            v["attack.sat.conflicts"] += static_cast<double>(res.conflicts);
            v["attack.sat.peak_clauses"] =
                std::max(v["attack.sat.peak_clauses"],
                         static_cast<double>(res.sat.peak_clauses));
            sat_props += static_cast<double>(res.sat.propagations);
          }
          if (stt::attack::outcome_name(res.outcome) != row.attack_outcome ||
              res.iterations != row.attack_iterations ||
              res.conflicts != row.attack_conflicts) {
            r.op_failed(item_of(row) + "/" + attack +
                        ": traced replay attack outcome differs from the row");
          }
        }
        groups.push_back({item_of(row0), std::move(dr)});
      }
      ledger.op_seconds += seconds_since(op_t0);
    }
  }

  // Off the operation path: the lint breakdown and the key checks.
  for (const Group& g : groups) {
    time_lint_layers(g.result->locked, g.result->annotations, ledger);
  }
  double verified = 0;
  for (const Solved& k : solved) {
    const KeyVerdict v = check_key(groups[k.group].result->locked, k.key);
    if (v == KeyVerdict::kEquivalent) {
      ++verified;
    } else {
      r.note("key check: " + k.label + " " + key_verdict_name(v));
    }
    if (v == KeyVerdict::kWrong) r.op_failed(k.label + ": solved key is wrong");
  }
  // Checker self-test on the grid's first xor-locked design.
  const std::string self_label = kBenchmarks.front() + "/xor/t0";
  const auto self_group =
      std::find_if(groups.begin(), groups.end(),
                   [&](const Group& g) { return g.label == self_label; });
  if (self_group == groups.end()) {
    r.check_failed("key self-test: the grid has no group " + self_label);
  } else {
    const std::string self = self_test_key_check(self_group->result->locked,
                                                 self_group->result->key);
    if (!self.empty()) r.check_failed(self);
  }

  auto& v = ledger.values;
  const double sat_s = v["attack.sat.s"];
  v["attack.sat.conflicts_per_s"] = sat_s > 0 ? v["attack.sat.conflicts"] / sat_s : 0;
  v["attack.sat.props_per_s"] = sat_s > 0 ? sat_props / sat_s : 0;
  const double attack_s = sat_s + v["attack.static.s"];
  v["attack.queries_per_s"] = attack_s > 0 ? queries / attack_s : 0;
  v["attack.solved_frac"] = attacks > 0 ? successes / attacks : 0;
  v["attack.keys_checked"] = static_cast<double>(solved.size());
  v["attack.key_verified_frac"] =
      solved.empty() ? 0 : verified / static_cast<double>(solved.size());
  r.note("traced: " + std::to_string(solved.size()) + " solved keys checked, " +
         std::to_string(static_cast<int>(verified)) + " equivalent");
}

}  // namespace

void write_campaign_answers(std::ostream& out, std::uint64_t variant) {
  // The variant's master seed is the first candidate on which every defense
  // places key cells: a defense that selects none (the parametric selection
  // can, on a small circuit) leaves nothing to attack, and the campaign
  // records that row as failed.
  for (int candidate = 0;; ++candidate) {
    const std::uint64_t master = variant_seed(
        variant, std::string(kWorkload) + "#" + std::to_string(candidate));
    const stt::CampaignReport report =
        stt::run_campaign(make_spec(master, {"none"}));
    if (std::any_of(report.rows.begin(), report.rows.end(),
                    [](const stt::TrialRecord& row) {
                      return !row.ok || row.key_cells == 0;
                    })) {
      continue;
    }
    out << kWorkload << " " << variant << " master seed=" << master << "\n";
    for (const stt::TrialRecord& row : report.rows) {
      out << kWorkload << " " << variant << " " << item_of(row) << " "
          << defense_record(row) << "\n";
    }
    return;
  }
}

RunResult run_campaign_sat(const RunConfig& cfg) {
  RunResult r;
  const std::uint64_t variant = variant_of(cfg.seed);
  Setup s;
  r.metrics["setup_s"] = median_setup_seconds([&] { s = set_up(cfg); });
  const stt::CampaignSpec spec = make_spec(s.master_seed, kAttacks);

  // Timed phase, untraced: whole campaigns until the time is up.
  std::vector<stt::CampaignReport> reps;
  std::vector<double> rep_walls;
  double wall = 0, cpu = 0;
  const int min_reps = cfg.trace ? 1 : kMinReps;
  while (static_cast<int>(reps.size()) < min_reps ||
         (!cfg.trace && wall < cfg.seconds)) {
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    reps.push_back(stt::run_campaign(spec));
    rep_walls.push_back(seconds_since(t0));
    cpu += process_cpu_seconds() - cpu0;
    wall += rep_walls.back();
  }

  const std::vector<std::string> first_csv =
      split_lines(stt::campaign_results_csv(reps.front()));
  std::size_t rows = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    check_report(reps[i], s, variant, i == 0 ? nullptr : &first_csv, r);
    rows += reps[i].rows.size();
  }
  note_inputs(s, reps.front(), r);
  r.note("campaign: " + std::to_string(reps.size()) + " repetitions, csv digest " +
         std::to_string(fnv1a(stt::campaign_results_csv(reps.front()))));

  // Checker self-test: an altered expected verdict must be caught.
  const stt::TrialRecord& row0 = reps.front().rows.front();
  const std::string self = self_test_known_answers(
      s.answers, KnownAnswers::key(kWorkload, variant, item_of(row0)),
      defense_record(row0), "lint");
  if (!self.empty()) r.check_failed(self);

  if (!cfg.trace) {
    r.metrics["ops_per_s"] = static_cast<double>(rows) / wall;
    r.metrics["cpu_s_per_op"] = cpu / static_cast<double>(rows);
    // The user's request is the whole campaign; rows are its throughput.
    r.metrics["op_p50_s"] = median(rep_walls);
    r.metrics["op_max_s"] = max_of(rep_walls);
    r.metrics["peak_rss_mb"] = peak_rss_mb();
    r.note("samples: " + std::to_string(rep_walls.size()) +
           " campaign latencies, " + std::to_string(rows) + " rows, wall " +
           std::to_string(wall) + " s, cpu " + std::to_string(cpu) + " s");
    return r;
  }

  Ledger ledger;
  traced_replay(spec, reps.front(), ledger, r);
  auto& v = ledger.values;
  v["runtime.busy_frac"] =
      cpu / (wall * static_cast<double>(reps.front().profile.threads));
  v["runtime.glue_s"] = cpu - ledger.layer_seconds;
  v["trace.coverage"] = ledger.layer_seconds / ledger.op_seconds;
  v["trace.overhead_frac"] = ledger.op_seconds / cpu - 1.0;
  r.note("traced: op " + std::to_string(ledger.op_seconds) + " s, layers " +
         std::to_string(ledger.layer_seconds) + " s, untraced cpu " +
         std::to_string(cpu) + " s over wall " + std::to_string(wall) + " s");
  r.metrics = ledger.values;
  return r;
}

}  // namespace sttbench
