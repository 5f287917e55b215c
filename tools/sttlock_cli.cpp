// sttlock — command-line front end for the hybrid STT-CMOS flow.
//
//   sttlock gen     --profile s641 --seed 1 --out s641.bench
//   sttlock info    --in s641.bench
//   sttlock defend  --in s641.bench --kind xor --seed 7 --tune count=16
//                   --out-locked l.bench --out-foundry f.bench
//                   --out-key k.key --out-annotations a.txt
//                   [--margin 0.05] [--pack] [--out-bitstream b.sttb]
//   sttlock defend  --list            (defense kinds + tuning knobs)
//   sttlock attack  --view f.bench --oracle h.bench
//                   --kind sat|seq|sens|gsens|bf|ml|dpa|static
//                   [--seed S --time-limit T --query-budget Q --work-budget W]
//                   [--tune k=v,... --jobs N]
//                   [--trace t.json --metrics m.json]
//   sttlock attack  --list            (attack kinds + tuning knobs)
//   sttlock convert --in x.bench --out y.v     (format by extension:
//                                               .bench / .v / .blif)
//   sttlock program --in f.bench --key k.key --out chip.bench
//   sttlock campaign --jobs 8 --seeds 3 --defense parametric
//                    --benchmarks s641,s1238 --out-csv results.csv
//                    --out-json results.json [--attack sat] [--progress]
//                    [--trace t.json --metrics m.json]
//                    [--defense xor:count=16,latch --attack sat,seq]
//                    (--defense all --attack all = the full cross matrix)
//                    [--store run.store | --resume run.store] [--shard i/N]
//                    [--stable-json results.stable.json]
//   sttlock merge   --in a.store,b.store [--out-csv r.csv]
//                   [--out-json r.json] [--stable-json r.stable.json]
//                   (recombine shard / interrupted-run stores; output is
//                    byte-identical to the uninterrupted single run)
//   sttlock lint    --in h.bench [--json report.json] [--strict] [--no-audit]
//   sttlock lint    --gen s641,s820 --defense parametric --seed 7
//                   [--trace t.json --metrics m.json]
//                   (generate + defend + lint each defense's output;
//                    --gen all covers the whole ISCAS'89 set)
//   sttlock analyze --in h.bench [--annotations a.txt] [--out report.json]
//   sttlock analyze --gen s641,s820 --defense xor:count=16,const --seed 7
//                   [--jobs 8] [--json] [--quiet]
//                   [--trace t.json --metrics m.json]
//                   (key-dependency dataflow analysis, KEY001-KEY008;
//                    --gen all / --defense all sweep the full grid)
//   sttlock <command> --help          (the command's options)
//
// Netlist files are read by extension as well.
#include <climits>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "attack/registry.hpp"
#include "cli/options.hpp"
#include "core/flow.hpp"
#include "core/bitstream.hpp"
#include "core/packing.hpp"
#include "defense/registry.hpp"
#include "graph/analysis.hpp"
#include "io/blif_io.hpp"
#include "obs/obs.hpp"
#include "io/bench_io.hpp"
#include "io/verilog_reader.hpp"
#include "io/verilog_writer.hpp"
#include "power/power.hpp"
#include "runtime/campaign.hpp"
#include "runtime/parallel.hpp"
#include "runtime/report.hpp"
#include "runtime/shard.hpp"
#include "runtime/store.hpp"
#include "runtime/thread_pool.hpp"
#include "synth/generator.hpp"
#include "timing/sta.hpp"
#include "util/args.hpp"
#include "util/strings.hpp"
#include "verify/keydep.hpp"
#include "verify/lint.hpp"

namespace {

using namespace stt;
using cli::ObsCapture;
using cli::parse_tuning_list;
using cli::write_text_file;

/// Default defense axis of `campaign` and `lint --gen`: the paper's three
/// selection algorithms, registered as defenses of the same names.
constexpr const char* kPaperKinds = "independent,dependent,parametric";

Netlist load_netlist(const std::string& path) {
  if (ends_with(path, ".bench")) return read_bench_file(path);
  if (ends_with(path, ".v")) return read_verilog_file(path);
  if (ends_with(path, ".blif")) return read_blif_file(path);
  throw std::runtime_error("unknown netlist extension: " + path);
}

void save_netlist(const Netlist& nl, const std::string& path,
                  bool redact_luts) {
  if (ends_with(path, ".bench")) {
    BenchWriteOptions opt;
    opt.redact_luts = redact_luts;
    write_bench_file(nl, path, opt);
    return;
  }
  if (ends_with(path, ".v")) {
    VerilogWriteOptions opt;
    opt.redact_luts = redact_luts;
    write_verilog_file(nl, path, opt);
    return;
  }
  if (ends_with(path, ".blif")) {
    if (redact_luts) {
      throw std::runtime_error("BLIF cannot express redacted LUTs");
    }
    write_blif_file(nl, path);
    return;
  }
  throw std::runtime_error("unknown netlist extension: " + path);
}


/// Writes `text` to stdout; the exit code.
int print(const std::string& text) {
  return std::fputs(text.c_str(), stdout) < 0 ? 1 : 0;
}

int cmd_gen(const std::vector<std::string>& args) {
  ArgParser p;
  p.add_option("--profile", "ISCAS'89 profile name (e.g. s641, s38584)");
  p.add_option("--seed", "generator seed", "1");
  p.add_option("--out", "output netlist path");
  p.parse(args);
  const std::vector<std::string> names =
      cli::expand_profiles(p.get("--profile"));
  if (names.size() != 1) throw ArgError("--profile takes one profile name");
  const Netlist nl = generate_circuit(
      *find_profile(names[0]),
      static_cast<std::uint64_t>(p.get_int("--seed", 0)));
  save_netlist(nl, p.get("--out"), false);
  std::printf("wrote %s (%zu gates, %zu FFs)\n", p.get("--out").c_str(),
              nl.stats().gates, nl.stats().dffs);
  return 0;
}

int cmd_info(const std::vector<std::string>& args) {
  ArgParser p;
  p.add_option("--in", "input netlist");
  p.parse(args);
  const Netlist nl = load_netlist(p.get("--in"));
  const auto s = nl.stats();
  const TechLibrary lib = TechLibrary::cmos90_stt();
  const Sta sta(lib);
  const auto timing = sta.analyze(nl);
  const auto power = estimate_power_uniform(nl, lib, 0.10,
                                            1000.0 / timing.critical_delay_ps);
  std::printf("netlist:        %s\n", nl.name().c_str());
  std::printf("inputs/outputs: %zu / %zu\n", s.inputs, s.outputs);
  std::printf("flip-flops:     %zu\n", s.dffs);
  std::printf("logic gates:    %zu (of which %zu STT LUTs)\n", s.gates,
              s.luts);
  std::printf("max fan-in:     %d\n", s.max_fanin);
  std::printf("seq depth (D):  %d\n", circuit_seq_depth(nl));
  std::printf("critical path:  %.1f ps\n", timing.critical_delay_ps);
  std::printf("power @a=10%%:   %.2f uW\n", power.total_uw());
  std::printf("area:           %.1f um^2\n", total_area_um2(nl, lib));
  if (s.luts) std::printf("key bits:       %zu\n", key_bits(nl));
  return 0;
}

int cmd_attack(const std::vector<std::string>& args) {
  ArgParser p;
  p.add_flag("--list", "print the registered attacks and their knobs");
  p.add_option("--view", "attacker's netlist (LUT contents ignored)");
  p.add_option("--oracle", "configured netlist standing in for the chip");
  p.add_option("--kind", "attack to run: sat|seq|sens|gsens|bf|ml|dpa|static",
               "sat");
  p.add_option("--seed", "attack seed (empty = the attack's default)", "");
  p.add_option("--time-limit", "wall-clock cap in seconds (empty = default)",
               "");
  p.add_option("--query-budget", "oracle-query cap (empty = default)", "");
  p.add_option("--work-budget",
               "dominant-work cap: SAT conflicts / key combinations / "
               "annealing steps (empty = default)",
               "");
  p.add_option("--tune",
               "comma list of attack-specific key=value knobs, e.g. "
               "warmup_words=8,frames=12",
               "");
  cli::CommonOptions common_opt(p, cli::kJobs | cli::kObs | cli::kSimIsa);
  p.parse(args);
  if (p.flag("--list")) return print(cli::attack_list_text());
  common_opt.load(p);

  // Empty keeps the attack's default; the sentinels themselves
  // (kInheritSeed, a negative time limit, a zero budget) are not values.
  attack::CommonAttackOptions common;
  if (!p.get("--seed").empty()) {
    common.seed = static_cast<std::uint64_t>(p.get_int("--seed", 0));
  }
  if (!p.get("--time-limit").empty()) {
    common.time_limit_s = p.get_double("--time-limit", 0);
  }
  if (!p.get("--query-budget").empty()) {
    common.query_budget =
        static_cast<std::uint64_t>(p.get_int("--query-budget", 1));
  }
  if (!p.get("--work-budget").empty()) {
    common.work_budget = p.get_int("--work-budget", 1);
  }

  const attack::Tuning tuning = parse_tuning_list(p.get("--tune"), ',');

  const Netlist view = foundry_view(load_netlist(p.get("--view")));
  const Netlist chip = load_netlist(p.get("--oracle"));
  // registry().run rejects an unknown kind, listing the known ones.
  const std::string kind = p.get("--kind");

  const unsigned jobs = common_opt.jobs();
  ThreadPool pool(jobs == 0 ? 0u : jobs);
  ThreadPoolParallelFor par(pool);
  ParallelFor* const parallel = jobs != 1 ? &par : nullptr;

  ObsCapture capture(common_opt);
  const attack::UnifiedResult r =
      attack::registry().run(kind, view, chip, common, tuning, parallel);
  capture.finish();

  std::printf("%s attack: %s | %s | queries=%llu | %.2fs\n", kind.c_str(),
              r.success() ? "KEY RECOVERED" : attack::outcome_name(r.outcome),
              r.detail.c_str(), static_cast<unsigned long long>(r.queries),
              r.elapsed_s);
  if (kind == "sat" || kind == "seq") {
    std::printf(
        "  decisions %lld, propagations %lld, learned %lld, peak clauses "
        "%lld\n",
        static_cast<long long>(r.sat.decisions),
        static_cast<long long>(r.sat.propagations),
        static_cast<long long>(r.sat.learned),
        static_cast<long long>(r.sat.peak_clauses));
    std::printf(
        "  cnf: %lld initial + %lld dip clauses (%.1f/iter), "
        "%d key rows folded\n",
        static_cast<long long>(r.sat.cnf_initial_clauses),
        static_cast<long long>(r.sat.cnf_dip_clauses),
        r.sat.cnf_clauses_per_iter, r.sat.key_rows_resolved);
  }
  if (r.success()) std::fputs(key_to_string(r.key).c_str(), stdout);
  return r.success() ? 0 : 2;
}

int cmd_defend(const std::vector<std::string>& args) {
  ArgParser p;
  p.add_flag("--list", "print the registered defenses and their knobs");
  p.add_option("--in", "input netlist (pure CMOS)", "");
  p.add_option("--kind",
               "defense to apply: independent|dependent|parametric|xor|"
               "latch|const (see --list)",
               "parametric");
  p.add_option("--seed", "defense seed", "1");
  p.add_option("--margin", "paper-adapter timing margin", "0.05");
  p.add_option("--tune",
               "comma list of defense-specific key=value knobs, e.g. "
               "count=16,xnor=0.5",
               "");
  p.add_option("--out-locked", "locked (configured) netlist output", "");
  p.add_option("--out-foundry", "redacted netlist output", "");
  p.add_option("--out-key", "plain key-file output", "");
  p.add_option("--out-annotations",
               "defense-annotation file consumed by `sttlock lint`", "");
  p.add_option("--out-bitstream", "CRC-protected programming image output",
               "");
  p.add_flag("--pack",
             "paper kinds only: complex-function packing + dummy inputs");
  cli::CommonOptions common_opt(p, cli::kSimIsa);
  p.parse(args);
  if (p.flag("--list")) return print(cli::defense_list_text());
  common_opt.load(p);
  if (p.get("--in").empty()) {
    std::fprintf(stderr, "defend: pass --in <netlist> (or --list)\n");
    return 1;
  }
  const std::string kind = p.get("--kind");
  if (p.flag("--pack") && kind != "independent" && kind != "dependent" &&
      kind != "parametric") {
    throw ArgError("--pack applies to the paper kinds independent, "
                   "dependent and parametric, not '" + kind + "'");
  }

  defense::DefenseOptions opt;
  opt.seed = static_cast<std::uint64_t>(p.get_int("--seed", 0));
  opt.timing_margin = p.get_double("--margin", 0);
  const defense::Tuning tuning = parse_tuning_list(p.get("--tune"), ',');

  const Netlist original = load_netlist(p.get("--in"));
  const TechLibrary lib = TechLibrary::cmos90_stt();
  defense::DefenseResult r =
      defense::registry().apply(kind, original, lib, opt, tuning);
  if (p.flag("--pack")) {
    PackingOptions popt;
    popt.seed = opt.seed;
    popt.lib = &lib;
    popt.max_delay_ps =
        r.overhead.original_delay_ps * (1.0 + opt.timing_margin);
    const auto packed = pack_complex_functions(r.locked, popt);
    r.locked = strip_dead_logic(r.locked);
    r.key = extract_key(r.locked);
    r.key_cells = static_cast<int>(r.key.size());
    r.key_bits = static_cast<int>(key_bits(r.locked));
    r.overhead = compare_overhead(original, r.locked, lib);
    r.security = security_report(r.locked, SimilarityModel::paper());
    std::printf("packing: absorbed %d gates, added %d dummy inputs\n",
                packed.absorbed_gates, packed.dummies_added);
  }

  std::printf("%s: %s | %d key cells (%d key bits) | +%d cells, %d replaced\n",
              r.defense.c_str(), r.detail.c_str(), r.key_cells, r.key_bits,
              r.cells_added, r.cells_replaced);
  std::printf("overhead: perf %+.2f%% | power %+.2f%% | area %+.2f%%\n",
              r.overhead.perf_degradation_pct(),
              r.overhead.power_overhead_pct(),
              r.overhead.area_overhead_pct());
  std::printf("attack cost: N_indep=%s  N_dep=%s  N_bf=%s test clocks\n",
              r.security.n_indep.to_string().c_str(),
              r.security.n_dep.to_string().c_str(),
              r.security.n_bf.to_string().c_str());

  if (!p.get("--out-locked").empty()) {
    save_netlist(r.locked, p.get("--out-locked"), false);
  }
  if (!p.get("--out-foundry").empty()) {
    save_netlist(r.locked, p.get("--out-foundry"), true);
  }
  if (!p.get("--out-key").empty()) {
    write_text_file(p.get("--out-key"), key_to_string(r.key));
  }
  if (!p.get("--out-annotations").empty()) {
    write_text_file(p.get("--out-annotations"),
                    annotations_to_string(r.annotations));
  }
  if (!p.get("--out-bitstream").empty()) {
    write_text_file(p.get("--out-bitstream"), write_bitstream(r.locked));
  }
  return 0;
}

/// The report outputs shared by `campaign` and `merge`.
void add_report_options(ArgParser& p) {
  p.add_option("--out-csv", "deterministic result rows (CSV)", "");
  p.add_option("--out-json", "full JSON report (results+summary+runtime)", "");
  p.add_option("--stable-json",
               "deterministic JSON report (no runtime section; "
               "byte-comparable across runs, --jobs, resume and shards)",
               "");
}

/// Writes the files add_report_options() asked for, then the summary table
/// unless `quiet`.
void write_report(const ArgParser& p, const CampaignReport& report,
                  bool quiet) {
  if (!p.get("--out-csv").empty()) {
    write_text_file(p.get("--out-csv"), campaign_results_csv(report));
  }
  if (!p.get("--out-json").empty()) {
    write_text_file(p.get("--out-json"), campaign_json(report));
  }
  if (!p.get("--stable-json").empty()) {
    write_text_file(p.get("--stable-json"),
                    campaign_json(report, /*include_profile=*/false));
  }
  if (!quiet) std::printf("%s\n", campaign_summary_text(report).c_str());
}

int cmd_campaign(const std::vector<std::string>& args) {
  ArgParser p;
  p.add_option("--benchmarks",
               "comma-separated ISCAS'89 profile names, or 'all'", "all");
  p.add_option("--seeds", "trials per (benchmark, defense, attack) grid point",
               "1");
  p.add_option("--master-seed", "campaign master seed", "20160605");
  p.add_option("--retries", "max attempts per grid point (seed backoff)", "3");
  p.add_option("--attack",
               "attack axis: comma list of none and registry names "
               "(sat|seq|sens|gsens|bf|ml|dpa|static), or 'all'",
               "none");
  p.add_option("--defense",
               "defense axis: comma list of kind[:k=v[:k=v...]] entries "
               "(see 'sttlock defend --list'), or 'all'",
               kPaperKinds);
  p.add_option("--margin", "parametric timing margin", "0.05");
  add_report_options(p);
  p.add_option("--out-times-csv", "measured per-job timing rows (CSV)", "");
  p.add_option("--store",
               "record every completed grid point into this append-only "
               "result store (refuses to clobber; continue with --resume)",
               "");
  p.add_option("--resume",
               "existing result store to resume: recorded grid points are "
               "skipped and replayed from disk (created if missing)",
               "");
  p.add_option("--shard",
               "run only shard i of N as i/N (requires --store/--resume; "
               "recombine the stores with 'sttlock merge')",
               "1/1");
  p.add_flag("--progress", "live progress line on stderr");
  cli::CommonOptions common_opt(
      p, cli::kJobs | cli::kObs | cli::kSimIsa | cli::kQuiet);
  p.parse(args);
  common_opt.load(p);

  CampaignSpec spec;
  spec.benchmarks = cli::expand_profiles(p.get("--benchmarks"));
  spec.defenses = cli::parse_defense_axis(p.get("--defense"));
  // Attack axis; unknown names are rejected by run_campaign with the list
  // of valid kinds.
  spec.attacks = p.get("--attack") == "all"
                     ? attack::registry().names()
                     : cli::split_list(p.get("--attack"));
  spec.trials = static_cast<int>(p.get_int("--seeds", 1, INT_MAX));
  spec.master_seed =
      static_cast<std::uint64_t>(p.get_int("--master-seed", 0));
  spec.jobs = common_opt.jobs();
  spec.max_attempts = static_cast<int>(p.get_int("--retries", 1, INT_MAX));
  spec.timing_margin = p.get_double("--margin", 0);

  // Result store / resume / shard plumbing (runtime/store.hpp, shard.hpp).
  if (!p.get("--store").empty() && !p.get("--resume").empty()) {
    std::fprintf(stderr,
                 "campaign: pass --store (fresh) or --resume (continue), "
                 "not both\n");
    return 1;
  }
  spec.store_path = p.get("--store");
  if (!p.get("--resume").empty()) {
    spec.store_path = p.get("--resume");
    spec.resume = true;
  }
  const ShardSpec shard = parse_shard(p.get("--shard"));
  spec.shard_index = shard.index;
  spec.shard_count = shard.count;
  if (shard.count > 1 && spec.store_path.empty()) {
    std::fprintf(stderr,
                 "campaign: --shard needs --store/--resume so 'sttlock "
                 "merge' can recombine the results\n");
    return 1;
  }

  const std::size_t grid = spec.benchmarks.size() * spec.defenses.size() *
                           spec.attacks.size() *
                           static_cast<std::size_t>(spec.trials);
  ProgressMeter meter(grid, p.flag("--progress"));
  spec.on_progress = [&meter](std::size_t done, std::size_t,
                              const std::string& label) {
    meter.tick(done, label);
  };

  ObsCapture capture(common_opt);
  const CampaignReport report = run_campaign(spec);
  meter.finish();
  capture.finish();

  if (!report.profile.store_note.empty()) {
    std::fprintf(stderr, "store: %s\n", report.profile.store_note.c_str());
  }
  if (!p.get("--out-times-csv").empty()) {
    write_text_file(p.get("--out-times-csv"), campaign_timing_csv(report));
  }
  write_report(p, report, common_opt.quiet());
  std::printf(
      "campaign: %zu rows (%zu failed) on %u threads in %.1fs "
      "(job cpu %.1fs, %llu tasks, %llu stolen)\n",
      report.rows.size(), report.profile.failed_rows, report.profile.threads,
      report.profile.wall_seconds, report.profile.job_cpu_seconds,
      static_cast<unsigned long long>(report.profile.executed),
      static_cast<unsigned long long>(report.profile.stolen));
  if (!spec.store_path.empty() || spec.shard_count > 1) {
    std::printf("store: %zu rows resumed, %zu executed (shard %u/%u)\n",
                report.profile.rows_resumed, report.profile.rows_executed,
                report.profile.shard_index, report.profile.shard_count);
  }
  if (report.profile.cache_builds > 0) {
    std::printf(
        "cache: %llu group lowerings built, %llu reuses, ~%.1f ms per-trial "
        "setup saved\n",
        static_cast<unsigned long long>(report.profile.cache_builds),
        static_cast<unsigned long long>(report.profile.cache_reuses),
        report.profile.cache_saved_ms);
  }
  return report.profile.failed_rows == 0 ? 0 : 2;
}

int cmd_merge(const std::vector<std::string>& args) {
  ArgParser p;
  p.add_option("--in",
               "comma-separated result stores to merge (shards of one "
               "campaign, or an interrupted store plus its continuation)");
  add_report_options(p);
  cli::CommonOptions common_opt(p, cli::kQuiet);
  p.parse(args);
  common_opt.load(p);

  const std::vector<std::string> paths = cli::split_list(p.get("--in"));
  if (paths.empty()) {
    std::fprintf(stderr, "merge: pass --in <store>[,<store>...]\n");
    return 1;
  }

  MergeStats stats;
  const CampaignReport report = merge_stores(paths, &stats);
  write_report(p, report, common_opt.quiet());
  std::printf(
      "merge: %zu stores -> %zu rows (%zu stage deltas, %zu duplicate "
      "records, %zu failed rows)\n",
      stats.stores, report.rows.size(), stats.stages, stats.duplicates,
      report.profile.failed_rows);
  return report.profile.failed_rows == 0 ? 0 : 2;
}

/// The `--gen` options of `lint` and `analyze`; `what` says what --gen
/// does with each profile.
void add_gen_options(ArgParser& p, const std::string& what,
                     const char* default_defense) {
  p.add_option("--gen", "comma-separated ISCAS'89 profiles to " + what +
                            " ('all' = the whole set)", "");
  p.add_option("--defense",
               "with --gen: comma list of kind[:k=v[:k=v...]] entries "
               "(see 'sttlock defend --list'), or 'all'",
               default_defense);
  p.add_option("--seed", "with --gen: generation/defense seed", "1");
  p.add_option("--margin", "with --gen: paper-adapter timing margin", "0.05");
}

/// The `--gen` grid of `lint` and `analyze`, profile-major, after checking
/// every --defense axis point. `on_clean` (optional) sees "<profile>/clean",
/// `on_locked` each "<profile>/<kind>". A defense that refuses a profile
/// (paper kinds on the ITC'99 ones, generated hybrid) is reported as
/// "<tool>: <profile>/<kind>: <message>" on stderr; returns how many did.
int generate_and_defend(
    const char* tool, const ArgParser& p,
    const std::function<void(const Netlist&)>& on_clean,
    const std::function<void(defense::DefenseResult&)>& on_locked) {
  defense::DefenseOptions opt;
  opt.seed = static_cast<std::uint64_t>(p.get_int("--seed", 0));
  opt.timing_margin = p.get_double("--margin", 0);
  const std::vector<DefenseAxis> axes =
      cli::parse_defense_axis(p.get("--defense"));
  check_defense_axis(axes);
  const TechLibrary lib = TechLibrary::cmos90_stt();
  int refused = 0;
  for (const std::string& name : cli::expand_profiles(p.get("--gen"))) {
    const Netlist original = generate_circuit(*find_profile(name), opt.seed);
    if (on_clean) {
      Netlist clean = original;
      clean.set_name(name + "/clean");
      on_clean(clean);
    }
    for (const DefenseAxis& axis : axes) {
      defense::DefenseResult r;
      try {
        r = defense::registry().apply(axis.kind, original, lib, opt,
                                      axis.tuning);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s/%s: %s\n", tool, name.c_str(),
                     axis.kind.c_str(), e.what());
        ++refused;
        continue;
      }
      r.locked.set_name(name + "/" + axis.kind);
      on_locked(r);
    }
  }
  return refused;
}

/// The --annotations file, or none when the option is empty.
DefenseAnnotations read_annotations(const ArgParser& p) {
  const std::string path = p.get("--annotations");
  if (path.empty()) return {};
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return annotations_from_string(text.str());
}

int cmd_lint(const std::vector<std::string>& args) {
  ArgParser p;
  p.add_option("--in", "comma-separated netlist files to lint", "");
  add_gen_options(p, "generate, defend and lint", kPaperKinds);
  p.add_option("--scoap-threshold",
               "SEC004 resolvability bound (justify+observe cost)", "6.0");
  p.add_option("--annotations",
               "with --in: defense annotation file (sttlock defend "
               "--out-annotations) declaring key gates / decoy latches / "
               "locked constants; --gen feeds each defense's own annotations "
               "automatically",
               "");
  p.add_option("--json", "machine-readable report output path", "");
  p.add_flag("--strict", "treat warnings as errors in the exit code");
  p.add_flag("--no-audit", "structural layer only (skip the security audit)");
  cli::CommonOptions common_opt(p, cli::kObs | cli::kQuiet);
  p.parse(args);
  common_opt.load(p);

  ObsCapture capture(common_opt);
  LintOptions opt;
  opt.run_audit = !p.flag("--no-audit");
  opt.audit.resolvability_threshold = p.get_double("--scoap-threshold", 0);

  std::vector<LintReport> reports;
  auto lint_one = [&](const Netlist& nl, const DefenseAnnotations& defense) {
    opt.defense = defense;
    reports.push_back(run_lint(nl, opt));
    if (!common_opt.quiet()) {
      std::fputs(lint_text(reports.back()).c_str(), stdout);
    }
  };

  const DefenseAnnotations file_annotations = read_annotations(p);
  for (const std::string& path : cli::split_list(p.get("--in"))) {
    lint_one(load_netlist(path), file_annotations);
  }

  int refused = 0;
  if (!p.get("--gen").empty()) {
    // The clean pre-lock netlist is part of the regression surface too.
    refused = generate_and_defend(
        "lint", p, [&](const Netlist& clean) { lint_one(clean, {}); },
        [&](defense::DefenseResult& r) { lint_one(r.locked, r.annotations); });
  }

  capture.finish();

  if (reports.empty()) {
    std::fprintf(stderr, "lint: nothing to do (pass --in or --gen)\n");
    return 1;
  }
  if (!p.get("--json").empty()) {
    write_text_file(p.get("--json"), reports.size() == 1
                                         ? lint_json(reports.front())
                                         : lint_json(reports));
  }

  int failed = 0;
  for (const LintReport& report : reports) {
    if (report.failed(p.flag("--strict"))) ++failed;
  }
  std::printf("lint: %zu netlist(s), %d failed%s\n", reports.size(), failed,
              p.flag("--strict") ? " (strict)" : "");
  if (refused > 0) return 1;
  return failed == 0 ? 0 : 2;
}

int cmd_analyze(const std::vector<std::string>& args) {
  ArgParser p;
  p.add_option("--in", "comma-separated netlist files to analyze", "");
  add_gen_options(p, "generate, lock and analyze", "parametric");
  p.add_option("--annotations",
               "with --in: defense annotation file (sttlock defend "
               "--out-annotations); --gen feeds each defense's own "
               "annotations automatically",
               "");
  p.add_option("--out", "machine-readable report output path", "");
  cli::CommonOptions common_opt(
      p, cli::kJobs | cli::kObs | cli::kQuiet | cli::kJson);
  p.parse(args);
  common_opt.load(p);

  ObsCapture capture(common_opt);
  struct AnalyzeTask {
    std::string name;
    Netlist nl;
    DefenseAnnotations annotations;
  };
  std::vector<AnalyzeTask> tasks;

  const DefenseAnnotations file_annotations = read_annotations(p);
  for (const std::string& path : cli::split_list(p.get("--in"))) {
    tasks.push_back({path, load_netlist(path), file_annotations});
  }

  int failed = 0;
  if (!p.get("--gen").empty()) {
    failed = generate_and_defend(
        "analyze", p, nullptr, [&](defense::DefenseResult& r) {
          std::string name = r.locked.name();
          tasks.push_back(
              {std::move(name), std::move(r.locked), std::move(r.annotations)});
        });
  }
  if (tasks.empty() && failed == 0) {
    std::fprintf(stderr, "analyze: nothing to do (pass --in or --gen)\n");
    return 1;
  }

  // Index-addressed result slots: the output is assembled in task order
  // after the pool drains, so the report is byte-identical across --jobs.
  std::vector<KeydepResult> results(tasks.size());
  std::vector<std::string> errors(tasks.size());
  const auto analyze_at = [&](std::size_t i) {
    KeydepOptions opt;
    opt.defense = tasks[i].annotations;
    try {
      results[i] = analyze_keydep(tasks[i].nl, opt);
    } catch (const std::exception& e) {
      errors[i] = e.what();
    }
  };
  const unsigned jobs = common_opt.jobs();
  if (jobs == 1) {
    for (std::size_t i = 0; i < tasks.size(); ++i) analyze_at(i);
  } else {
    ThreadPool pool(jobs == 0 ? 0u : jobs);
    ThreadPoolParallelFor par(pool);
    par.run(tasks.size(), analyze_at);
  }
  capture.finish();

  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (!errors[i].empty()) {
      std::fprintf(stderr, "analyze: %s: %s\n", tasks[i].name.c_str(),
                   errors[i].c_str());
      ++failed;
      continue;
    }
    const KeydepResult& r = results[i];
    if (!common_opt.quiet()) {
      std::printf(
          "%s: %s | key cells %d, bits %d nominal / %d static / %d "
          "effective | const %d removable %d mutable %d pairwise %d hard "
          "%d | %zu interference edges\n",
          tasks[i].name.c_str(), r.verdict().c_str(), r.key_cells,
          r.key_bits, r.key_bits_static, r.eff_key_bits, r.constant_cells,
          r.removable_cells, r.mutable_cells, r.pairwise_cells, r.hard_cells,
          r.edges.size());
    }
  }
  if (failed) return 1;

  if (!p.get("--out").empty() || common_opt.json()) {
    std::string doc;
    if (tasks.size() == 1) {
      doc = keydep_json(tasks[0].nl, results[0]);
    } else {
      doc = "[\n";
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        std::string one = keydep_json(tasks[i].nl, results[i]);
        if (!one.empty() && one.back() == '\n') one.pop_back();
        doc += one;
        doc += i + 1 < tasks.size() ? ",\n" : "\n";
      }
      doc += "]\n";
    }
    if (!p.get("--out").empty()) write_text_file(p.get("--out"), doc);
    if (common_opt.json()) std::fputs(doc.c_str(), stdout);
  }
  return 0;
}

int cmd_convert(const std::vector<std::string>& args) {
  ArgParser p;
  p.add_option("--in", "input netlist");
  p.add_option("--out", "output netlist");
  p.add_flag("--redact", "withhold LUT configurations in the output");
  p.parse(args);
  const Netlist nl = load_netlist(p.get("--in"));
  save_netlist(nl, p.get("--out"), p.flag("--redact"));
  std::printf("wrote %s\n", p.get("--out").c_str());
  return 0;
}

int cmd_program(const std::vector<std::string>& args) {
  ArgParser p;
  p.add_option("--in", "fabricated (redacted) netlist");
  p.add_option("--key", "key file or STTB programming image");
  p.add_option("--out", "configured netlist output");
  p.parse(args);
  Netlist nl = load_netlist(p.get("--in"));
  std::ifstream key_file(p.get("--key"));
  if (!key_file) {
    std::fprintf(stderr, "cannot open key file\n");
    return 1;
  }
  std::ostringstream buf;
  buf << key_file.rdbuf();
  const std::string content = buf.str();
  if (starts_with(content, "STTB")) {
    // CRC + fingerprint verified image.
    program_from_bitstream(nl, content);
  } else {
    apply_key(nl, key_from_string(content));
  }
  save_netlist(nl, p.get("--out"), false);
  std::printf("programmed %zu LUTs -> %s\n", extract_key(nl).size(),
              p.get("--out").c_str());
  return 0;
}

void usage() {
  std::fputs(
      "usage: sttlock <command> [options]\n"
      "commands: gen, info, defend, attack, campaign, merge, lint, analyze, "
      "convert, program\n"
      "run 'sttlock <command> --help' to list a command's options.\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string cmd = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "info") return cmd_info(args);
    if (cmd == "defend") return cmd_defend(args);
    if (cmd == "attack") return cmd_attack(args);
    if (cmd == "campaign") return cmd_campaign(args);
    if (cmd == "merge") return cmd_merge(args);
    if (cmd == "lint") return cmd_lint(args);
    if (cmd == "analyze") return cmd_analyze(args);
    if (cmd == "convert") return cmd_convert(args);
    if (cmd == "program") return cmd_program(args);
  } catch (const HelpRequested& help) {
    std::printf("usage: sttlock %s [options]\n%s", cmd.c_str(),
                help.text.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
  return 1;
}
