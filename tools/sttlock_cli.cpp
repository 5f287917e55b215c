// sttlock — command-line front end for the hybrid STT-CMOS flow.
//
//   sttlock gen     --profile s641 --seed 1 --out s641.bench
//   sttlock info    --in s641.bench
//   sttlock lock    --in s641.bench --algorithm parametric --seed 7
//                   --out-hybrid h.bench --out-foundry f.bench --out-key k.key
//                   [--margin 0.05] [--pack] [--paths N]
//   sttlock defend  --in s641.bench --kind xor --seed 7 --tune count=16
//                   --out-locked l.bench --out-foundry f.bench
//                   --out-key k.key --out-annotations a.txt
//   sttlock defend  --list            (defense kinds + tuning knobs)
//   sttlock attack  --view f.bench --oracle h.bench
//                   --kind sat|seq|sens|gsens|bf|ml|dpa|static
//                   [--seed S --time-limit T --query-budget Q --work-budget W]
//                   [--tune k=v,... --jobs N --naive]
//                   [--trace t.json --metrics m.json]
//   sttlock attack  --list            (attack kinds + tuning knobs)
//   sttlock convert --in x.bench --out y.v     (format by extension:
//                                               .bench / .v / .blif)
//   sttlock program --in f.bench --key k.key --out chip.bench
//   sttlock campaign --jobs 8 --seeds 3 --algorithms parametric
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
//   sttlock lint    --gen s641,s820 --algorithms parametric --seed 7
//                   (generate + lock + lint each algorithm's output;
//                    --gen all covers the whole ISCAS'89 set)
//   sttlock analyze --in h.bench [--annotations a.txt] [--out report.json]
//   sttlock analyze --gen s641,s820 --defense xor:count=16,const --seed 7
//                   [--jobs 8] [--json] [--quiet]
//                   (key-dependency dataflow analysis, KEY001-KEY008;
//                    --gen all / --defense all sweep the full grid)
//
// Netlist files are read by extension as well.
#include <cstdio>
#include <fstream>
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
using cli::write_text_file;

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


int cmd_gen(const std::vector<std::string>& args) {
  ArgParser p;
  p.add_option("--profile", "ISCAS'89 profile name (e.g. s641, s38584)");
  p.add_option("--seed", "generator seed", "1");
  p.add_option("--out", "output netlist path");
  p.parse(args);
  const auto profile = find_profile(p.get("--profile"));
  if (!profile) {
    std::fprintf(stderr, "unknown profile '%s'; available:",
                 p.get("--profile").c_str());
    for (const auto& pr : iscas89_profiles()) {
      std::fprintf(stderr, " %s", pr.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }
  const Netlist nl = generate_circuit(
      *profile, static_cast<std::uint64_t>(p.get_int("--seed")));
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

int cmd_lock(const std::vector<std::string>& args) {
  ArgParser p;
  p.add_option("--in", "input netlist (pure CMOS)");
  p.add_option("--algorithm", "independent | dependent | parametric",
               "parametric");
  p.add_option("--seed", "selection seed", "1");
  p.add_option("--margin", "parametric timing margin", "0.05");
  p.add_option("--paths", "parametric timing-path count (0 = auto)", "0");
  p.add_option("--count", "independent gate count", "5");
  p.add_option("--out-hybrid", "configured hybrid netlist output", "");
  p.add_option("--out-foundry", "redacted netlist output", "");
  p.add_option("--out-key", "plain key-file output", "");
  p.add_option("--out-bitstream", "CRC-protected programming image output",
               "");
  p.add_flag("--pack", "apply complex-function packing + dummy inputs");
  p.parse(args);

  const Netlist original = load_netlist(p.get("--in"));
  const TechLibrary lib = TechLibrary::cmos90_stt();
  FlowOptions opt;
  const std::string alg = p.get("--algorithm");
  if (alg == "independent") {
    opt.algorithm = SelectionAlgorithm::kIndependent;
  } else if (alg == "dependent") {
    opt.algorithm = SelectionAlgorithm::kDependent;
  } else if (alg == "parametric") {
    opt.algorithm = SelectionAlgorithm::kParametric;
  } else {
    std::fprintf(stderr, "unknown algorithm '%s'\n", alg.c_str());
    return 1;
  }
  opt.selection.seed = static_cast<std::uint64_t>(p.get_int("--seed"));
  opt.selection.timing_margin = p.get_double("--margin");
  opt.selection.para_num_paths = static_cast<int>(p.get_int("--paths"));
  opt.selection.indep_count = static_cast<int>(p.get_int("--count"));

  FlowResult flow = run_secure_flow(original, lib, opt);
  if (p.flag("--pack")) {
    PackingOptions popt;
    popt.seed = opt.selection.seed;
    popt.lib = &lib;
    popt.max_delay_ps = flow.overhead.original_delay_ps *
                        (1.0 + opt.selection.timing_margin);
    const auto packed = pack_complex_functions(flow.hybrid, popt);
    flow.hybrid = strip_dead_logic(flow.hybrid);
    flow.selection.key = extract_key(flow.hybrid);
    flow.overhead = compare_overhead(original, flow.hybrid, lib);
    flow.security = security_report(flow.hybrid, SimilarityModel::paper());
    std::printf("packing: absorbed %d gates, added %d dummy inputs\n",
                packed.absorbed_gates, packed.dummies_added);
  }

  std::printf("%s: %zu LUTs | perf %+.2f%% | power %+.2f%% | area %+.2f%%\n",
              algorithm_name(opt.algorithm).c_str(),
              flow.selection.key.size(),
              flow.overhead.perf_degradation_pct(),
              flow.overhead.power_overhead_pct(),
              flow.overhead.area_overhead_pct());
  std::printf("attack cost: N_indep=%s  N_dep=%s  N_bf=%s test clocks\n",
              flow.security.n_indep.to_string().c_str(),
              flow.security.n_dep.to_string().c_str(),
              flow.security.n_bf.to_string().c_str());

  if (!p.get("--out-hybrid").empty()) {
    save_netlist(flow.hybrid, p.get("--out-hybrid"), false);
  }
  if (!p.get("--out-foundry").empty()) {
    save_netlist(flow.hybrid, p.get("--out-foundry"), true);
  }
  if (!p.get("--out-key").empty()) {
    std::ofstream key(p.get("--out-key"));
    key << key_to_string(flow.selection.key);
  }
  if (!p.get("--out-bitstream").empty()) {
    std::ofstream image(p.get("--out-bitstream"));
    image << write_bitstream(flow.hybrid);
  }
  return 0;
}

attack::Tuning parse_tuning_list(const std::string& list, char sep) {
  attack::Tuning tuning;
  for (const std::string& kv : split(list, sep)) {
    if (trim(kv).empty()) continue;
    const auto eq = kv.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("tuning entries must be key=value, got '" +
                               kv + "'");
    }
    tuning.emplace_back(std::string(trim(kv.substr(0, eq))),
                        std::string(trim(kv.substr(eq + 1))));
  }
  return tuning;
}

int list_attacks() {
  std::printf("registered attacks:\n");
  for (const attack::AttackInfo& info : attack::registry().catalogue()) {
    std::printf("  %-6s %s\n", info.name.c_str(), info.description.c_str());
    for (const attack::AttackKnob& knob : info.knobs) {
      std::printf("         --tune %s=<v> (default %s): %s\n",
                  knob.key.c_str(), knob.default_value.c_str(),
                  knob.help.c_str());
    }
  }
  return 0;
}

int list_defenses() {
  std::printf("registered defenses:\n");
  for (const std::string& name : defense::registry().names()) {
    const defense::DefenseBase& d = defense::registry().at(name);
    std::printf("  %-12s %s\n", name.c_str(),
                std::string(d.description()).c_str());
    for (const defense::TuningKnob& knob : d.knobs()) {
      std::printf("               --tune %s=<v> (default %s): %s\n",
                  knob.key.c_str(), knob.default_value.c_str(),
                  knob.help.c_str());
    }
  }
  return 0;
}

int cmd_attack(const std::vector<std::string>& args) {
  ArgParser p;
  p.add_flag("--list", "print the registered attacks and their knobs");
  p.add_option("--view", "attacker's netlist (LUT contents ignored)");
  p.add_option("--oracle", "configured netlist standing in for the chip");
  p.add_option("--kind", "attack to run: sat|seq|sens|gsens|bf|ml|dpa|static", "");
  p.add_option("--method", "deprecated alias for --kind", "");
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
  p.add_flag("--naive", "legacy full-copy DIP encoding (sat baseline)");
  cli::CommonOptions common_opt(p, cli::kJobs | cli::kObs | cli::kSimIsa);
  p.parse(args);
  if (p.flag("--list")) return list_attacks();
  common_opt.load(p);

  const Netlist view = foundry_view(load_netlist(p.get("--view")));
  const Netlist chip = load_netlist(p.get("--oracle"));
  std::string kind = p.get("--kind");
  if (kind.empty()) kind = p.get("--method");
  if (kind.empty()) kind = "sat";
  if (!attack::registry().contains(kind)) {
    std::fprintf(stderr, "unknown attack '%s'; known:", kind.c_str());
    for (const std::string& name : attack::registry().names()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }

  attack::CommonAttackOptions common;
  if (!p.get("--seed").empty()) {
    common.seed = static_cast<std::uint64_t>(p.get_int("--seed"));
  }
  if (!p.get("--time-limit").empty()) {
    common.time_limit_s = p.get_double("--time-limit");
  }
  if (!p.get("--query-budget").empty()) {
    common.query_budget = static_cast<std::uint64_t>(p.get_int("--query-budget"));
  }
  if (!p.get("--work-budget").empty()) {
    common.work_budget = p.get_int("--work-budget");
  }

  attack::Tuning tuning = parse_tuning_list(p.get("--tune"), ',');
  if (p.flag("--naive")) tuning.emplace_back("naive", "1");

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
  if (kind == "sat") {
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
  cli::CommonOptions common_opt(p, cli::kSimIsa);
  p.parse(args);
  if (p.flag("--list")) return list_defenses();
  common_opt.load(p);
  if (p.get("--in").empty()) {
    std::fprintf(stderr, "defend: pass --in <netlist> (or --list)\n");
    return 1;
  }

  const Netlist original = load_netlist(p.get("--in"));
  const TechLibrary lib = TechLibrary::cmos90_stt();
  defense::DefenseOptions opt;
  opt.seed = static_cast<std::uint64_t>(p.get_int("--seed"));
  opt.timing_margin = p.get_double("--margin");
  const defense::DefenseResult r =
      defense::registry().apply(p.get("--kind"), original, lib, opt,
                                parse_tuning_list(p.get("--tune"), ','));

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
  return 0;
}

int cmd_campaign(const std::vector<std::string>& args) {
  ArgParser p;
  p.add_option("--benchmarks",
               "comma-separated ISCAS'89 profile names (default: all 12)", "");
  p.add_option("--algorithms",
               "comma-separated subset of independent,dependent,parametric",
               "independent,dependent,parametric");
  p.add_option("--seeds", "trials per (benchmark, algorithm) grid point", "1");
  p.add_option("--master-seed", "campaign master seed", "20160605");
  p.add_option("--retries", "max attempts per grid point (seed backoff)", "3");
  p.add_option("--attack",
               "attack axis: comma list of none and registry names "
               "(sat|seq|sens|gsens|bf|ml|dpa|static), or 'all'",
               "none");
  p.add_option("--defense",
               "defense axis: comma list of kind[:k=v[:k=v...]] entries "
               "(see 'sttlock defend --list'), or 'all'; default is the "
               "--algorithms paper sweep",
               "");
  p.add_option("--margin", "parametric timing margin", "0.05");
  p.add_option("--out-csv", "deterministic result rows (CSV)", "");
  p.add_option("--out-times-csv", "measured per-job timing rows (CSV)", "");
  p.add_option("--out-json", "full JSON report (results+summary+runtime)", "");
  p.add_option("--stable-json",
               "deterministic JSON report (no runtime section; "
               "byte-comparable across runs, --jobs, resume and shards)",
               "");
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
  if (!p.get("--benchmarks").empty()) {
    spec.benchmarks = split(p.get("--benchmarks"), ',');
  }
  spec.algorithms.clear();
  for (const std::string& name : split(p.get("--algorithms"), ',')) {
    if (name == "independent") {
      spec.algorithms.push_back(SelectionAlgorithm::kIndependent);
    } else if (name == "dependent") {
      spec.algorithms.push_back(SelectionAlgorithm::kDependent);
    } else if (name == "parametric") {
      spec.algorithms.push_back(SelectionAlgorithm::kParametric);
    } else {
      std::fprintf(stderr, "unknown algorithm '%s'\n", name.c_str());
      return 1;
    }
  }
  spec.trials = static_cast<int>(p.get_int("--seeds"));
  spec.master_seed = static_cast<std::uint64_t>(p.get_int("--master-seed"));
  spec.jobs = common_opt.jobs();
  spec.max_attempts = static_cast<int>(p.get_int("--retries"));
  spec.timing_margin = p.get_double("--margin");

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

  // Defense axis: explicit entries override the --algorithms paper sweep.
  const std::string defense_arg = p.get("--defense");
  if (defense_arg == "all") {
    for (const std::string& name : defense::registry().names()) {
      spec.defenses.push_back({name, {}});
    }
  } else {
    for (const std::string& entry : split(defense_arg, ',')) {
      if (trim(entry).empty()) continue;
      DefenseAxis axis;
      const auto colon = entry.find(':');
      axis.kind = std::string(trim(entry.substr(0, colon)));
      if (colon != std::string::npos) {
        axis.tuning = parse_tuning_list(entry.substr(colon + 1), ':');
      }
      spec.defenses.push_back(std::move(axis));
    }
  }
  // Attack axis; unknown names are rejected by run_campaign with the list
  // of valid kinds.
  const std::string attack_arg = p.get("--attack");
  if (attack_arg == "all") {
    spec.attacks = attack::registry().names();
  } else {
    for (const std::string& name : split(attack_arg, ',')) {
      if (trim(name).empty()) continue;
      spec.attacks.push_back(std::string(trim(name)));
    }
  }

  const std::size_t grid =
      (spec.benchmarks.empty() ? iscas89_profiles().size()
                               : spec.benchmarks.size()) *
      (spec.defenses.empty() ? spec.algorithms.size()
                             : spec.defenses.size()) *
      (spec.attacks.empty() ? 1 : spec.attacks.size()) *
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
  if (!p.get("--out-csv").empty()) {
    write_text_file(p.get("--out-csv"), campaign_results_csv(report));
  }
  if (!p.get("--out-times-csv").empty()) {
    write_text_file(p.get("--out-times-csv"), campaign_timing_csv(report));
  }
  if (!p.get("--out-json").empty()) {
    write_text_file(p.get("--out-json"), campaign_json(report));
  }
  if (!p.get("--stable-json").empty()) {
    write_text_file(p.get("--stable-json"),
                    campaign_json(report, /*include_profile=*/false));
  }

  if (!common_opt.quiet()) {
    std::printf("%s\n", campaign_summary_text(report).c_str());
  }
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
  p.add_option("--out-csv", "deterministic result rows (CSV)", "");
  p.add_option("--out-json", "full JSON report (results+summary+runtime)", "");
  p.add_option("--stable-json",
               "deterministic JSON report (no runtime section; "
               "byte-comparable across runs, --jobs, resume and shards)",
               "");
  cli::CommonOptions common_opt(p, cli::kQuiet);
  p.parse(args);
  common_opt.load(p);

  std::vector<std::string> paths;
  for (const std::string& path : split(p.get("--in"), ',')) {
    if (!trim(path).empty()) paths.push_back(std::string(trim(path)));
  }
  if (paths.empty()) {
    std::fprintf(stderr, "merge: pass --in <store>[,<store>...]\n");
    return 1;
  }

  MergeStats stats;
  const CampaignReport report = merge_stores(paths, &stats);

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
  if (!common_opt.quiet()) {
    std::printf("%s\n", campaign_summary_text(report).c_str());
  }
  std::printf(
      "merge: %zu stores -> %zu rows (%zu stage deltas, %zu duplicate "
      "records, %zu failed rows)\n",
      stats.stores, report.rows.size(), stats.stages, stats.duplicates,
      report.profile.failed_rows);
  return report.profile.failed_rows == 0 ? 0 : 2;
}

int cmd_lint(const std::vector<std::string>& args) {
  ArgParser p;
  p.add_option("--in", "comma-separated netlist files to lint", "");
  p.add_option("--gen",
               "comma-separated ISCAS'89 profiles to generate, lock and lint "
               "('all' = the whole set)",
               "");
  p.add_option("--algorithms",
               "with --gen: subset of independent,dependent,parametric",
               "independent,dependent,parametric");
  p.add_option("--seed", "with --gen: generation/selection seed", "1");
  p.add_option("--margin", "with --gen: parametric timing margin", "0.05");
  p.add_option("--scoap-threshold",
               "SEC004 resolvability bound (justify+observe cost)", "6.0");
  p.add_option("--annotations",
               "defense annotation file (sttlock defend --out-annotations): "
               "declared key gates / decoy latches / locked constants",
               "");
  p.add_option("--json", "machine-readable report output path", "");
  p.add_flag("--strict", "treat warnings as errors in the exit code");
  p.add_flag("--no-audit", "structural layer only (skip the security audit)");
  cli::CommonOptions common_opt(p, cli::kQuiet);
  p.parse(args);
  common_opt.load(p);

  LintOptions opt;
  opt.run_audit = !p.flag("--no-audit");
  opt.audit.resolvability_threshold = p.get_double("--scoap-threshold");
  if (!p.get("--annotations").empty()) {
    std::ifstream in(p.get("--annotations"));
    if (!in) throw std::runtime_error("cannot read " + p.get("--annotations"));
    std::ostringstream text;
    text << in.rdbuf();
    opt.defense = annotations_from_string(text.str());
  }

  std::vector<LintReport> reports;
  auto lint_one = [&](const Netlist& nl) {
    reports.push_back(run_lint(nl, opt));
    if (!common_opt.quiet()) {
      std::fputs(lint_text(reports.back()).c_str(), stdout);
    }
  };

  for (const std::string& path : split(p.get("--in"), ',')) {
    if (trim(path).empty()) continue;
    lint_one(load_netlist(std::string(trim(path))));
  }

  if (!p.get("--gen").empty()) {
    std::vector<std::string> names;
    if (p.get("--gen") == "all") {
      for (const auto& profile : iscas89_profiles()) {
        names.push_back(profile.name);
      }
    } else {
      names = split(p.get("--gen"), ',');
    }
    std::vector<SelectionAlgorithm> algorithms;
    for (const std::string& name : split(p.get("--algorithms"), ',')) {
      if (name == "independent") {
        algorithms.push_back(SelectionAlgorithm::kIndependent);
      } else if (name == "dependent") {
        algorithms.push_back(SelectionAlgorithm::kDependent);
      } else if (name == "parametric") {
        algorithms.push_back(SelectionAlgorithm::kParametric);
      } else {
        std::fprintf(stderr, "unknown algorithm '%s'\n", name.c_str());
        return 1;
      }
    }
    const TechLibrary lib = TechLibrary::cmos90_stt();
    const auto seed = static_cast<std::uint64_t>(p.get_int("--seed"));
    for (const std::string& name : names) {
      const auto profile = find_profile(name);
      if (!profile) {
        std::fprintf(stderr, "unknown profile '%s'\n", name.c_str());
        return 1;
      }
      const Netlist original = generate_circuit(*profile, seed);
      // The clean pre-lock netlist is part of the regression surface too.
      Netlist clean = original;
      clean.set_name(name + "/clean");
      lint_one(clean);
      for (const SelectionAlgorithm alg : algorithms) {
        FlowOptions fopt;
        fopt.algorithm = alg;
        fopt.selection.seed = seed;
        fopt.selection.timing_margin = p.get_double("--margin");
        FlowResult flow = run_secure_flow(original, lib, fopt);
        flow.hybrid.set_name(name + "/" + algorithm_name(alg));
        lint_one(flow.hybrid);
      }
    }
  }

  if (reports.empty()) {
    std::fprintf(stderr, "lint: nothing to do (pass --in or --gen)\n");
    return 1;
  }
  if (!p.get("--json").empty()) {
    std::ofstream out(p.get("--json"));
    if (!out) throw std::runtime_error("cannot write " + p.get("--json"));
    out << (reports.size() == 1 ? lint_json(reports.front())
                                : lint_json(reports));
  }

  int failed = 0;
  for (const LintReport& report : reports) {
    if (report.failed(p.flag("--strict"))) ++failed;
  }
  std::printf("lint: %zu netlist(s), %d failed%s\n", reports.size(), failed,
              p.flag("--strict") ? " (strict)" : "");
  return failed == 0 ? 0 : 2;
}

int cmd_analyze(const std::vector<std::string>& args) {
  ArgParser p;
  p.add_option("--in", "comma-separated netlist files to analyze", "");
  p.add_option("--gen",
               "comma-separated ISCAS'89 profiles to generate, lock and "
               "analyze ('all' = the whole set)",
               "");
  p.add_option("--defense",
               "with --gen: comma list of kind[:k=v[:k=v...]] entries "
               "(see 'sttlock defend --list'), or 'all'",
               "parametric");
  p.add_option("--seed", "with --gen: generation/defense seed", "1");
  p.add_option("--margin", "with --gen: paper-adapter timing margin", "0.05");
  p.add_option("--annotations",
               "with --in: defense annotation file (sttlock defend "
               "--out-annotations); --gen feeds each defense's own "
               "annotations automatically",
               "");
  p.add_option("--out", "machine-readable report output path", "");
  p.add_flag("--no-support",
             "skip the support-function pass (KEY008 vacuousness)");
  cli::CommonOptions common_opt(p, cli::kJobs | cli::kQuiet | cli::kJson);
  p.parse(args);
  common_opt.load(p);

  struct AnalyzeTask {
    std::string name;
    Netlist nl;
    DefenseAnnotations annotations;
  };
  std::vector<AnalyzeTask> tasks;

  DefenseAnnotations file_annotations;
  if (!p.get("--annotations").empty()) {
    std::ifstream in(p.get("--annotations"));
    if (!in) throw std::runtime_error("cannot read " + p.get("--annotations"));
    std::ostringstream text;
    text << in.rdbuf();
    file_annotations = annotations_from_string(text.str());
  }
  for (const std::string& path : split(p.get("--in"), ',')) {
    if (trim(path).empty()) continue;
    const std::string file(trim(path));
    tasks.push_back({file, load_netlist(file), file_annotations});
  }

  if (!p.get("--gen").empty()) {
    std::vector<std::string> names;
    if (p.get("--gen") == "all") {
      for (const auto& profile : iscas89_profiles()) {
        names.push_back(profile.name);
      }
    } else {
      names = split(p.get("--gen"), ',');
    }
    std::vector<DefenseAxis> axes;
    if (p.get("--defense") == "all") {
      for (const std::string& kind : defense::registry().names()) {
        axes.push_back({kind, {}});
      }
    } else {
      for (const std::string& entry : split(p.get("--defense"), ',')) {
        if (trim(entry).empty()) continue;
        DefenseAxis axis;
        const auto colon = entry.find(':');
        axis.kind = std::string(trim(entry.substr(0, colon)));
        if (colon != std::string::npos) {
          axis.tuning = parse_tuning_list(entry.substr(colon + 1), ':');
        }
        axes.push_back(std::move(axis));
      }
    }
    const TechLibrary lib = TechLibrary::cmos90_stt();
    defense::DefenseOptions opt;
    opt.seed = static_cast<std::uint64_t>(p.get_int("--seed"));
    opt.timing_margin = p.get_double("--margin");
    for (const std::string& name : names) {
      const auto profile = find_profile(name);
      if (!profile) {
        std::fprintf(stderr, "unknown profile '%s'\n", name.c_str());
        return 1;
      }
      const Netlist original = generate_circuit(*profile, opt.seed);
      for (const DefenseAxis& axis : axes) {
        defense::DefenseResult r = defense::registry().apply(
            axis.kind, original, lib, opt, axis.tuning);
        r.locked.set_name(name + "/" + axis.kind);
        tasks.push_back({name + "/" + axis.kind, std::move(r.locked),
                         std::move(r.annotations)});
      }
    }
  }
  if (tasks.empty()) {
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
    opt.support_analysis = !p.flag("--no-support");
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

  int failed = 0;
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
      "commands: gen, info, lock, defend, attack, campaign, merge, lint, "
      "analyze, convert, program\n"
      "run 'sttlock <command> --help' is not needed — errors list options.\n",
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
    if (cmd == "lock") return cmd_lock(args);
    if (cmd == "defend") return cmd_defend(args);
    if (cmd == "attack") return cmd_attack(args);
    if (cmd == "campaign") return cmd_campaign(args);
    if (cmd == "merge") return cmd_merge(args);
    if (cmd == "lint") return cmd_lint(args);
    if (cmd == "analyze") return cmd_analyze(args);
    if (cmd == "convert") return cmd_convert(args);
    if (cmd == "program") return cmd_program(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
  return 1;
}
