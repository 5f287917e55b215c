#include "attack/registry.hpp"

#include <chrono>
#include <map>
#include <sstream>
#include <stdexcept>

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
#include "util/knob.hpp"
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

void fold_base(UnifiedResult& u, const AttackBase& b) {
  static_cast<AttackBase&>(u) = b;
}

constexpr Knob<SatAttackOptions> kSatKnobs[] = {
    {.name = "max_iterations", .doc = "DIP cap",
     .field = &SatAttackOptions::max_iterations, .min = 1},
    {.name = "warmup_words",
     .doc = "64-pattern simulation words seeding the learned-row warm-up "
            "(0 disables)", .field = &SatAttackOptions::warmup_words},
};

UnifiedResult run_sat(const Ctx& c) {
  SatAttackOptions opt;
  opt.overlay(c.common);
  opt.parallel = c.parallel;
  apply_tuning(kSatKnobs, opt, c.tuning, "attack", "sat");
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

constexpr Knob<SeqAttackOptions> kSeqKnobs[] = {
    {.name = "frames", .doc = "unrolled time frames per query",
     .field = &SeqAttackOptions::frames, .min = 1},
    {.name = "max_iterations", .doc = "distinguishing-sequence cap",
     .field = &SeqAttackOptions::max_iterations, .min = 1},
};

UnifiedResult run_seq(const Ctx& c) {
  SeqAttackOptions opt;
  opt.overlay(c.common);
  apply_tuning(kSeqKnobs, opt, c.tuning, "attack", "seq");
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

constexpr Knob<BruteForceOptions> kBfKnobs[] = {
    {.name = "screening_patterns",
     .doc = "oracle patterns per candidate screen",
     .field = &BruteForceOptions::screening_patterns, .min = 1},
    {.name = "all_masks",
     .doc = "search all 2^2^k masks, not just standard gate candidates",
     .field = &BruteForceOptions::standard_candidates_only, .negate = true},
};

UnifiedResult run_bf(const Ctx& c) {
  BruteForceOptions opt;
  opt.overlay(c.common);
  apply_tuning(kBfKnobs, opt, c.tuning, "attack", "bf");
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

constexpr Knob<MlAttackOptions> kMlKnobs[] = {
    {.name = "training_patterns", .doc = "oracle patterns in the training set",
     .field = &MlAttackOptions::training_patterns, .min = 1},
    {.name = "bitflip",
     .doc = "anneal over raw mask bits instead of standard gate candidates",
     .field = &MlAttackOptions::standard_candidates_only, .negate = true},
};

UnifiedResult run_ml(const Ctx& c) {
  MlAttackOptions opt;
  opt.overlay(c.common);
  apply_tuning(kMlKnobs, opt, c.tuning, "attack", "ml");
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
  apply_tuning<SensitizationOptions>({}, opt, c.tuning, "attack", "sens");
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

constexpr Knob<GuidedSensOptions> kGsensKnobs[] = {
    {.name = "max_witnesses_per_row",
     .doc = "witness attempts before a row is abandoned",
     .field = &GuidedSensOptions::max_witnesses_per_row, .min = 1},
};

UnifiedResult run_gsens(const Ctx& c) {
  GuidedSensOptions opt;
  opt.overlay(c.common);
  apply_tuning(kGsensKnobs, opt, c.tuning, "attack", "gsens");
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

/// What `dpa`'s knobs set: the measured trace and the attacked LUT.
struct DpaRequest : TraceOptions {
  std::string target;  ///< empty: the first LUT
};

constexpr Knob<DpaRequest> kDpaKnobs[] = {
    {.name = "cycles", .doc = "measured trace length in clock cycles",
     .field = &DpaRequest::cycles, .min = 1},
    {.name = "noise_fj", .doc = "gaussian measurement noise sigma in fJ",
     .field = &DpaRequest::noise_sigma_fj},
    {.name = "target", .doc = "name of the LUT cell to attack",
     .field = &DpaRequest::target, .note = "<first LUT>"},
};

UnifiedResult run_dpa(const Ctx& c) {
  DpaOptions opt;
  opt.overlay(c.common);
  DpaRequest req;
  apply_tuning(kDpaKnobs, req, c.tuning, "attack", "dpa");
  TraceOptions trace = req;
  trace.seed = opt.seed;

  CellId target = kNullCell;
  if (!req.target.empty()) {
    target = c.configured.find(req.target);
    if (target == kNullCell || c.configured.cell(target).kind != CellKind::kLut) {
      throw std::invalid_argument(
          "attack \"dpa\": tuning key \"target\" needs the name of a LUT "
          "cell, got \"" + req.target + "\"");
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
  KeydepOptions opt;
  apply_tuning<KeydepOptions>({}, opt, c.tuning, "attack", "static");
  opt.interference = InterferenceRequest::kDegrees;
  const auto start = std::chrono::steady_clock::now();
  const KeydepResult r = analyze_keydep(c.hybrid, opt);
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

struct Entry {
  std::string_view description;
  Runner run;
  std::vector<KnobDoc> knobs;
};

/// The registered attacks with their `--list` text, read off the adapters'
/// knob tables above.
const std::map<std::string, Entry, std::less<>>& entries() {
  static const std::map<std::string, Entry, std::less<>> m = {
      {"bf", {"exhaustive key search over the Eq. (3) candidate space, "
              "screening-pattern pre-filtered",
              &run_bf, knob_docs<BruteForceOptions>(kBfKnobs)}},
      {"dpa", {"differential power analysis of one STT LUT from a "
               "simulated power trace",
               &run_dpa, knob_docs<DpaRequest>(kDpaKnobs)}},
      {"gsens", {"SAT-guided sensitization: prove or refute a propagation "
                 "witness per truth-table row",
                 &run_gsens, knob_docs<GuidedSensOptions>(kGsensKnobs)}},
      {"ml", {"simulated-annealing model fit of the key against oracle "
              "responses",
              &run_ml, knob_docs<MlAttackOptions>(kMlKnobs)}},
      {"sat", {"oracle-guided SAT attack (DIP refinement, cone-pruned "
               "encoding, simulation warm-up)",
               &run_sat, knob_docs<SatAttackOptions>(kSatKnobs)}},
      {"sens", {"classic input-sensitization attack: justify each row, "
                "observe through a sensitized path",
                &run_sens, {}}},
      {"seq", {"sequential SAT attack: time-frame unrolling against a "
               "scan-locked chip",
               &run_seq, knob_docs<SeqAttackOptions>(kSeqKnobs)}},
      {"static", {"oracle-free key-dependency analysis: unit-propagates "
                  "injected constants and claims removable key cells with "
                  "zero queries",
                  &run_static, {}}},
  };
  return m;
}

}  // namespace

UnifiedResult Registry::run(std::string_view name, const Netlist& hybrid,
                            const Netlist& configured,
                            const CommonAttackOptions& common,
                            const Tuning& tuning, ParallelFor* parallel,
                            const CompiledSim* oracle_sim) const {
  const auto it = entries().find(name);
  if (it == entries().end()) {
    std::string known;
    for (const auto& [n, e] : entries()) {
      known += known.empty() ? n : ", " + n;
    }
    throw std::invalid_argument("attack registry: unknown attack \"" +
                                std::string(name) + "\" (known: " + known +
                                ")");
  }
  static obs::Counter& runs = obs::Metrics::global().counter("attack.runs");
  runs.add(1);
  const Ctx ctx{hybrid, configured, common, tuning, parallel, oracle_sim};
  UnifiedResult u = it->second.run(ctx);
  u.attack = std::string(name);
  return u;
}

bool Registry::contains(std::string_view name) const {
  return entries().count(name) != 0;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  for (const auto& [n, e] : entries()) out.push_back(n);
  return out;
}

std::vector<AttackInfo> Registry::catalogue() const {
  std::vector<AttackInfo> out;
  for (const auto& [n, e] : entries()) {
    out.push_back({n, std::string(e.description), e.knobs});
  }
  return out;
}

const Registry& registry() {
  static const Registry r;
  return r;
}

}  // namespace stt::attack
