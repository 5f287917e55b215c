#include "attack/registry.hpp"

#include <charconv>
#include <chrono>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "attack/brute_force.hpp"
#include "attack/dpa.hpp"
#include "attack/guided_sens.hpp"
#include "attack/ml_attack.hpp"
#include "attack/oracle.hpp"
#include "attack/sensitization.hpp"
#include "attack/seq_attack.hpp"
#include "obs/obs.hpp"
#include "power/trace.hpp"
#include "tech/tech_library.hpp"
#include "verify/keydep.hpp"

namespace stt::attack {

namespace {

struct Ctx {
  const Netlist& hybrid;
  const Netlist& configured;
  const CommonAttackOptions& common;
  const Tuning& tuning;
  ParallelFor* parallel;
  const CompiledSim* oracle_sim;  ///< optional shared lowering of configured
};

/// Build the scan oracle for an adapter: borrow the caller's shared
/// lowering when one was supplied, otherwise compile our own.
ScanOracle make_oracle(const Ctx& c) {
  return c.oracle_sim != nullptr ? ScanOracle(c.configured, *c.oracle_sim)
                                 : ScanOracle(c.configured);
}

[[noreturn]] void bad_tuning(const std::string& attack,
                             const std::string& key) {
  throw std::invalid_argument("attack registry: unknown tuning key \"" + key +
                              "\" for attack \"" + attack + "\"");
}

bool truthy(const std::string& v) { return v == "1" || v == "true"; }

/// Strict parse of a numeric tuning value: the whole string must be a
/// finite number (an integer for integral T) >= `min`, else
/// std::invalid_argument names the attack, the key and the value.
template <typename T>
T parse_knob(const std::string& attack, const std::string& key,
             const std::string& value, T min) {
  T v{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) || v < min) {
    std::ostringstream need;
    need << (std::is_integral_v<T> ? "an integer" : "a number") << " >= "
         << min;
    throw std::invalid_argument("attack \"" + attack + "\": tuning key \"" +
                                key + "\" needs " + need.str() + ", got \"" +
                                value + "\"");
  }
  return v;
}

void fold_base(UnifiedResult& u, const AttackBase& b) {
  static_cast<AttackBase&>(u) = b;
}

UnifiedResult run_sat(const Ctx& c) {
  SatAttackOptions opt;
  opt.overlay(c.common);
  opt.parallel = c.parallel;
  for (const auto& [k, v] : c.tuning) {
    if (k == "max_iterations") {
      opt.max_iterations = parse_knob("sat", k, v, 1);
    } else if (k == "warmup_words") {
      opt.warmup_words = parse_knob("sat", k, v, 0);
    } else {
      bad_tuning("sat", k);
    }
  }
  ScanOracle oracle = make_oracle(c);
  const SatAttackResult r = run_sat_attack(c.hybrid, oracle, opt);
  UnifiedResult u;
  fold_base(u, r);
  u.iterations = static_cast<std::uint64_t>(r.iterations);
  u.conflicts = r.conflicts;
  u.sat = r.stats;
  std::ostringstream d;
  d << "dips=" << r.iterations << " conflicts=" << r.conflicts
    << " warm_rows=" << r.stats.key_rows_resolved;
  u.detail = d.str();
  return u;
}

UnifiedResult run_seq(const Ctx& c) {
  SeqAttackOptions opt;
  opt.overlay(c.common);
  for (const auto& [k, v] : c.tuning) {
    if (k == "frames") {
      opt.frames = parse_knob("seq", k, v, 1);
    } else if (k == "max_iterations") {
      opt.max_iterations = parse_knob("seq", k, v, 1);
    } else {
      bad_tuning("seq", k);
    }
  }
  const SeqAttackResult r =
      run_sequential_sat_attack(c.hybrid, c.configured, opt);
  UnifiedResult u;
  fold_base(u, r);
  u.iterations = static_cast<std::uint64_t>(r.iterations);
  u.conflicts = r.conflicts;
  u.sat = r.stats;
  std::ostringstream d;
  d << "sequences=" << r.iterations << " frames=" << opt.frames
    << " cycles=" << r.queries;
  u.detail = d.str();
  return u;
}

UnifiedResult run_bf(const Ctx& c) {
  BruteForceOptions opt;
  opt.overlay(c.common);
  for (const auto& [k, v] : c.tuning) {
    if (k == "screening_patterns") {
      opt.screening_patterns = parse_knob("bf", k, v, 1);
    } else if (k == "all_masks") {
      opt.standard_candidates_only = !truthy(v);
    } else {
      bad_tuning("bf", k);
    }
  }
  ScanOracle oracle = make_oracle(c);
  const BruteForceResult r = run_brute_force(c.hybrid, oracle, opt);
  UnifiedResult u;
  fold_base(u, r);
  u.iterations = r.combinations_tried;
  std::ostringstream d;
  d << "combinations=" << r.combinations_tried
    << " space=" << r.search_space.to_string();
  u.detail = d.str();
  return u;
}

UnifiedResult run_ml(const Ctx& c) {
  MlAttackOptions opt;
  opt.overlay(c.common);
  for (const auto& [k, v] : c.tuning) {
    if (k == "training_patterns") {
      opt.training_patterns = parse_knob("ml", k, v, 1);
    } else if (k == "bitflip") {
      opt.standard_candidates_only = !truthy(v);
    } else {
      bad_tuning("ml", k);
    }
  }
  ScanOracle oracle = make_oracle(c);
  const MlAttackResult r = run_ml_attack(c.hybrid, oracle, opt);
  UnifiedResult u;
  fold_base(u, r);
  u.iterations = static_cast<std::uint64_t>(r.steps);
  std::ostringstream d;
  d << "steps=" << r.steps << " accuracy=" << r.final_accuracy;
  u.detail = d.str();
  return u;
}

UnifiedResult run_sens(const Ctx& c) {
  SensitizationOptions opt;
  opt.overlay(c.common);
  if (!c.tuning.empty()) bad_tuning("sens", c.tuning.front().first);
  ScanOracle oracle = make_oracle(c);
  const SensitizationResult r =
      run_sensitization_attack(c.hybrid, oracle, opt);
  UnifiedResult u;
  fold_base(u, r);
  u.iterations = static_cast<std::uint64_t>(r.rows_resolved);
  std::ostringstream d;
  d << "rows=" << r.rows_resolved << "/" << r.rows_total
    << " luts=" << r.luts_resolved << "/" << r.luts_total;
  u.detail = d.str();
  return u;
}

UnifiedResult run_gsens(const Ctx& c) {
  GuidedSensOptions opt;
  opt.overlay(c.common);
  for (const auto& [k, v] : c.tuning) {
    if (k == "max_witnesses_per_row") {
      opt.max_witnesses_per_row = parse_knob("gsens", k, v, 1);
    } else {
      bad_tuning("gsens", k);
    }
  }
  ScanOracle oracle = make_oracle(c);
  const GuidedSensResult r = run_guided_sensitization(c.hybrid, oracle, opt);
  UnifiedResult u;
  fold_base(u, r);
  u.iterations = static_cast<std::uint64_t>(r.rows_resolved);
  std::ostringstream d;
  d << "rows=" << r.rows_resolved << "/" << r.rows_total
    << " unreachable=" << r.rows_proven_unreachable;
  u.detail = d.str();
  return u;
}

UnifiedResult run_dpa(const Ctx& c) {
  DpaOptions opt;
  opt.overlay(c.common);
  TraceOptions trace;
  std::string target_name;
  for (const auto& [k, v] : c.tuning) {
    if (k == "cycles") {
      trace.cycles = parse_knob("dpa", k, v, 1);
    } else if (k == "noise_fj") {
      trace.noise_sigma_fj = parse_knob("dpa", k, v, 0.0);
    } else if (k == "target") {
      target_name = v;
    } else {
      bad_tuning("dpa", k);
    }
  }
  trace.seed = opt.seed;

  CellId target = kNullCell;
  if (!target_name.empty()) {
    target = c.configured.find(target_name);
    if (target == kNullCell || c.configured.cell(target).kind != CellKind::kLut) {
      throw std::invalid_argument(
          "attack registry: dpa target must name a LUT cell");
    }
  } else {
    for (CellId id = 0; id < c.configured.size(); ++id) {
      if (c.configured.cell(id).kind == CellKind::kLut) {
        target = id;
        break;
      }
    }
  }
  UnifiedResult u;
  if (target == kNullCell) {
    u.outcome = Outcome::kAbandoned;
    u.detail = "no LUT target cell";
    return u;
  }
  const std::uint64_t truth = c.configured.cell(target).lut_mask;
  const PowerTraceResult measurement =
      simulate_power_trace(c.configured, TechLibrary::cmos90_stt(), trace);
  const DpaResult r =
      run_dpa_attack(c.configured, target, truth, measurement, opt);
  fold_base(u, r);
  u.iterations = r.ranking.size();
  std::ostringstream d;
  d << "target=" << c.configured.cell(target).name << " best=0x" << std::hex
    << r.best_mask << std::dec << " margin=" << r.margin();
  u.detail = d.str();
  return u;
}

// Oracle-free static attack: the key-dependency analysis (verify/keydep)
// runs on the attacker's netlist alone — it never reads a LUT mask and
// never touches the configured chip, so `queries` is zero by construction.
// Every `constant` cell (the const defense's injected XOR-companion
// template unit-propagates to the constant-0 function) is claimed with its
// propagated mask; every `removable` cell (statically blocked from all
// observation points) is claimed with mask 0, which is interface-preserving
// by the removability proof. Solved when nothing else holds key material.
UnifiedResult run_static(const Ctx& c) {
  if (!c.tuning.empty()) bad_tuning("static", c.tuning.front().first);
  const auto start = std::chrono::steady_clock::now();
  const KeydepResult r = analyze_keydep(c.hybrid);
  UnifiedResult u;
  int resolved_cells = 0;
  int constant_bits = 0;
  int free_bits = 0;
  for (const KeyCellReport& cell : r.cells) {
    if (cell.verdict == KeyVerdict::kConstant) {
      u.key[cell.name] = cell.propagated_mask;
      ++resolved_cells;
      constant_bits += cell.nominal_bits;
    } else if (cell.verdict == KeyVerdict::kRemovable) {
      u.key[cell.name] = 0;
      ++resolved_cells;
      free_bits += cell.nominal_bits;
    }
  }
  u.outcome = resolved_cells == r.key_cells ? Outcome::kSolved
                                            : Outcome::kAbandoned;
  u.queries = 0;
  u.iterations = static_cast<std::uint64_t>(resolved_cells);
  u.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::ostringstream d;
  d << "cells=" << resolved_cells << "/" << r.key_cells
    << " const_bits=" << constant_bits << " free_bits=" << free_bits
    << " eff_bits=" << r.eff_key_bits << "/" << r.key_bits
    << " verdict=" << r.verdict();
  u.detail = d.str();
  return u;
}

using Runner = UnifiedResult (*)(const Ctx&);

const std::map<std::string, Runner, std::less<>>& runners() {
  static const std::map<std::string, Runner, std::less<>> m = {
      {"bf", &run_bf},     {"dpa", &run_dpa},       {"gsens", &run_gsens},
      {"ml", &run_ml},     {"sat", &run_sat},       {"sens", &run_sens},
      {"seq", &run_seq},   {"static", &run_static},
  };
  return m;
}

// Catalogue text for `sttlock attack --list`. The knob keys must stay in
// lock-step with the adapters above (attack_api_test pins the coverage).
const std::map<std::string, AttackInfo, std::less<>>& catalogue_entries() {
  static const std::map<std::string, AttackInfo, std::less<>> m = {
      {"bf",
       {"bf",
        "exhaustive key search over the Eq. (3) candidate space, "
        "screening-pattern pre-filtered",
        {{"screening_patterns", "192",
          "oracle patterns per candidate screen (>= 1)"},
         {"all_masks", "0", "search all 2^2^k masks, not just standard "
                            "gate candidates"}}}},
      {"dpa",
       {"dpa",
        "differential power analysis of one STT LUT from a simulated "
        "power trace",
        {{"cycles", "512", "measured trace length in clock cycles (>= 1)"},
         {"noise_fj", "0", "gaussian measurement noise sigma in fJ (>= 0)"},
         {"target", "<first LUT>", "name of the LUT cell to attack"}}}},
      {"gsens",
       {"gsens",
        "SAT-guided sensitization: prove or refute a propagation witness "
        "per truth-table row",
        {{"max_witnesses_per_row", "16",
          "witness attempts before a row is abandoned (>= 1)"}}}},
      {"ml",
       {"ml",
        "simulated-annealing model fit of the key against oracle responses",
        {{"training_patterns", "256",
          "oracle patterns in the training set (>= 1)"},
         {"bitflip", "0", "anneal over raw mask bits instead of standard "
                          "gate candidates"}}}},
      {"sat",
       {"sat",
        "oracle-guided SAT attack (DIP refinement, cone-pruned encoding, "
        "simulation warm-up)",
        {{"max_iterations", "512", "DIP cap (>= 1)"},
         {"warmup_words", "4", "64-pattern simulation words seeding the "
                               "learned-row warm-up (0 disables)"}}}},
      {"sens",
       {"sens",
        "classic input-sensitization attack: justify each row, observe "
        "through a sensitized path",
        {}}},
      {"seq",
       {"seq",
        "sequential SAT attack: time-frame unrolling against a "
        "scan-locked chip",
        {{"frames", "8", "unrolled time frames per query (>= 1)"},
         {"max_iterations", "256", "distinguishing-sequence cap (>= 1)"}}}},
      {"static",
       {"static",
        "oracle-free key-dependency analysis: unit-propagates injected "
        "constants and claims removable key cells with zero queries",
        {}}},
  };
  return m;
}

}  // namespace

UnifiedResult Registry::run(std::string_view name, const Netlist& hybrid,
                            const Netlist& configured,
                            const CommonAttackOptions& common,
                            const Tuning& tuning, ParallelFor* parallel,
                            const CompiledSim* oracle_sim) const {
  const auto it = runners().find(name);
  if (it == runners().end()) {
    std::string known;
    for (const auto& [n, fn] : runners()) {
      known += known.empty() ? n : ", " + n;
    }
    throw std::invalid_argument("attack registry: unknown attack \"" +
                                std::string(name) + "\" (known: " + known +
                                ")");
  }
  static obs::Counter& runs = obs::Metrics::global().counter("attack.runs");
  runs.add(1);
  const Ctx ctx{hybrid, configured, common, tuning, parallel, oracle_sim};
  UnifiedResult u = it->second(ctx);
  u.attack = std::string(name);
  return u;
}

bool Registry::contains(std::string_view name) const {
  return runners().count(name) != 0;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  for (const auto& [n, fn] : runners()) out.push_back(n);
  return out;
}

AttackInfo Registry::info(std::string_view name) const {
  const auto it = catalogue_entries().find(name);
  if (it == catalogue_entries().end()) {
    throw std::invalid_argument("attack registry: unknown attack \"" +
                                std::string(name) + "\"");
  }
  return it->second;
}

std::vector<AttackInfo> Registry::catalogue() const {
  std::vector<AttackInfo> out;
  for (const auto& [n, info] : catalogue_entries()) out.push_back(info);
  return out;
}

const Registry& registry() {
  static const Registry r;
  return r;
}

}  // namespace stt::attack
