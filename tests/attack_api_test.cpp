// Unified attack API: attack::registry() must dispatch every attack and
// produce results bit-identical to calling the attack function directly
// with the same options. Pins the adapter defaults so the registry can
// never silently drift from the underlying implementations.
#include "attack/registry.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "attack/brute_force.hpp"
#include "attack/dpa.hpp"
#include "attack/encode.hpp"
#include "attack/guided_sens.hpp"
#include "attack/ml_attack.hpp"
#include "attack/oracle.hpp"
#include "attack/sat_attack.hpp"
#include "attack/sensitization.hpp"
#include "attack/seq_attack.hpp"
#include "core/flow.hpp"
#include "core/hybrid.hpp"
#include "power/trace.hpp"
#include "synth/generator.hpp"
#include "tech/tech_library.hpp"

namespace stt {
namespace {

struct Locked {
  Netlist hybrid;
  Netlist view;
};

const Locked& locked() {
  static const Locked l = [] {
    const auto profile = find_profile("s641");
    const Netlist original = generate_circuit(*profile, 7);
    FlowOptions opt;
    opt.algorithm = SelectionAlgorithm::kDependent;
    opt.selection.seed = 5;
    FlowResult flow =
        run_secure_flow(original, TechLibrary::cmos90_stt(), opt);
    return Locked{flow.hybrid, foundry_view(flow.hybrid)};
  }();
  return l;
}

void expect_base_identical(const attack::UnifiedResult& u,
                           const attack::AttackBase& direct) {
  EXPECT_EQ(u.outcome, direct.outcome);
  EXPECT_EQ(u.queries, direct.queries);
  EXPECT_EQ(u.key, direct.key);
}

TEST(AttackRegistry, ListsAllEightAttacks) {
  const auto names = attack::registry().names();
  EXPECT_EQ(names.size(), 8u);
  for (const char* name :
       {"sat", "seq", "sens", "gsens", "bf", "ml", "dpa", "static"}) {
    EXPECT_TRUE(attack::registry().contains(name)) << name;
  }
  EXPECT_FALSE(attack::registry().contains("sidechannel"));
}

TEST(AttackRegistry, UnknownAttackThrowsWithKnownNames) {
  try {
    attack::registry().run("nope", locked().view, locked().hybrid);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("nope"), std::string::npos);
    EXPECT_NE(msg.find("sat"), std::string::npos);
  }
}

TEST(AttackRegistry, UnknownTuningKeyThrows) {
  attack::Tuning bad{{"warp_factor", "9"}};
  EXPECT_THROW(attack::registry().run("sat", locked().view, locked().hybrid,
                                      {}, bad),
               std::invalid_argument);
  EXPECT_THROW(attack::registry().run("sens", locked().view, locked().hybrid,
                                      {}, bad),
               std::invalid_argument);
  // The retired full-copy engine's switch is an unknown key too.
  EXPECT_THROW(attack::registry().run("sat", locked().view, locked().hybrid,
                                      {}, {{"naive", "1"}}),
               std::invalid_argument);
}

TEST(AttackRegistry, RejectsBadTuningValuesByName) {
  const std::tuple<std::string, std::string, std::string> bad[] = {
      {"sat", "max_iterations", "abc"},  {"sat", "max_iterations", "0"},
      {"sat", "max_iterations", "12x"},  {"sat", "warmup_words", "-3"},
      {"sat", "warmup_words", ""},       {"seq", "frames", "abc"},
      {"seq", "frames", "0"},            {"seq", "max_iterations", "0"},
      {"bf", "screening_patterns", "0"}, {"bf", "screening_patterns", "1e3"},
      {"ml", "training_patterns", "-5"}, {"dpa", "cycles", "0"},
      {"gsens", "max_witnesses_per_row", "0"},
      {"dpa", "noise_fj", "-0.5"},       {"dpa", "noise_fj", "nan"},
      {"dpa", "noise_fj", "1fJ"}};
  for (const auto& [name, key, value] : bad) {
    try {
      attack::registry().run(name, locked().view, locked().hybrid, {},
                             {{key, value}});
      ADD_FAILURE() << name << " " << key << "=" << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("\"" + name + "\""), std::string::npos) << msg;
      EXPECT_NE(msg.find(key), std::string::npos) << msg;
      EXPECT_NE(msg.find("\"" + value + "\""), std::string::npos) << msg;
    }
  }
}

TEST(AttackRegistry, CatalogueDefaultsMatchOptions) {
  using Knobs = std::map<std::string, std::string>;
  const auto num = [](auto v) {  // bool renders as 1/0
    std::ostringstream os;
    os << v;
    return os.str();
  };
  const SatAttackOptions sat;
  const SeqAttackOptions seq;
  const BruteForceOptions bf;
  const MlAttackOptions ml;
  const GuidedSensOptions gsens;
  const TraceOptions trace;
  const std::map<std::string, Knobs> expected = {
      {"sat",
       {{"max_iterations", num(sat.max_iterations)},
        {"warmup_words", num(sat.warmup_words)}}},
      {"seq",
       {{"frames", num(seq.frames)},
        {"max_iterations", num(seq.max_iterations)}}},
      {"bf",
       {{"screening_patterns", num(bf.screening_patterns)},
        {"all_masks", num(!bf.standard_candidates_only)}}},
      {"ml",
       {{"training_patterns", num(ml.training_patterns)},
        {"bitflip", num(!ml.standard_candidates_only)}}},
      {"gsens", {{"max_witnesses_per_row", num(gsens.max_witnesses_per_row)}}},
      {"dpa",
       {{"cycles", num(trace.cycles)},
        {"noise_fj", num(trace.noise_sigma_fj)},
        {"target", "<first LUT>"}}},
      {"sens", {}},
      {"static", {}}};
  std::map<std::string, Knobs> listed;
  for (const attack::AttackInfo& info : attack::registry().catalogue()) {
    Knobs& knobs = listed[info.name];
    for (const KnobDoc& knob : info.knobs) {
      knobs[knob.name] = knob.default_value;
    }
  }
  EXPECT_EQ(listed, expected);
}

TEST(AttackRegistry, SatMatchesDirectCall) {
  ScanOracle oracle(locked().hybrid);
  const SatAttackResult direct =
      run_sat_attack(locked().view, oracle, SatAttackOptions{});
  const attack::UnifiedResult u =
      attack::registry().run("sat", locked().view, locked().hybrid);
  expect_base_identical(u, direct);
  EXPECT_EQ(u.iterations, static_cast<std::uint64_t>(direct.iterations));
  EXPECT_EQ(u.conflicts, direct.conflicts);
  EXPECT_EQ(u.sat.decisions, direct.stats.decisions);
  EXPECT_EQ(u.sat.propagations, direct.stats.propagations);
  EXPECT_EQ(u.attack, "sat");
  EXPECT_TRUE(u.success());
}

TEST(AttackRegistry, SatTuningMatchesDirectCall) {
  ScanOracle oracle(locked().hybrid);
  SatAttackOptions opt;
  opt.warmup_words = 0;
  opt.max_iterations = 40;
  const SatAttackResult direct = run_sat_attack(locked().view, oracle, opt);
  const attack::UnifiedResult u = attack::registry().run(
      "sat", locked().view, locked().hybrid, {},
      {{"warmup_words", "0"}, {"max_iterations", "40"}});
  expect_base_identical(u, direct);
  EXPECT_EQ(u.iterations, static_cast<std::uint64_t>(direct.iterations));
  EXPECT_EQ(u.conflicts, direct.conflicts);
  EXPECT_EQ(u.sat.propagations, direct.stats.propagations);
}

TEST(AttackRegistry, SeqMatchesDirectCall) {
  const SeqAttackResult direct = run_sequential_sat_attack(
      locked().view, locked().hybrid, SeqAttackOptions{});
  const attack::UnifiedResult u =
      attack::registry().run("seq", locked().view, locked().hybrid);
  expect_base_identical(u, direct);
  EXPECT_EQ(u.iterations, static_cast<std::uint64_t>(direct.iterations));
  EXPECT_EQ(u.conflicts, direct.conflicts);
  EXPECT_GT(u.conflicts, 0);
  EXPECT_EQ(u.sat.decisions, direct.stats.decisions);
  EXPECT_EQ(u.sat.propagations, direct.stats.propagations);
  EXPECT_EQ(u.sat.peak_clauses, direct.stats.peak_clauses);
  EXPECT_TRUE(u.success());
  // The sequential attack's key must also be right on the scan view.
  Netlist recovered = locked().view;
  apply_key(recovered, u.key);
  EXPECT_TRUE(comb_equivalent(recovered, locked().hybrid));
}

TEST(AttackRegistry, SensMatchesDirectCall) {
  ScanOracle oracle(locked().hybrid);
  const SensitizationResult direct = run_sensitization_attack(
      locked().view, oracle, SensitizationOptions{});
  const attack::UnifiedResult u =
      attack::registry().run("sens", locked().view, locked().hybrid);
  expect_base_identical(u, direct);
  EXPECT_EQ(u.iterations, static_cast<std::uint64_t>(direct.rows_resolved));
}

TEST(AttackRegistry, GuidedSensMatchesDirectCall) {
  ScanOracle oracle(locked().hybrid);
  const GuidedSensResult direct = run_guided_sensitization(
      locked().view, oracle, GuidedSensOptions{});
  const attack::UnifiedResult u =
      attack::registry().run("gsens", locked().view, locked().hybrid);
  expect_base_identical(u, direct);
}

TEST(AttackRegistry, BruteForceMatchesDirectCall) {
  ScanOracle oracle(locked().hybrid);
  const BruteForceResult direct =
      run_brute_force(locked().view, oracle, BruteForceOptions{});
  const attack::UnifiedResult u =
      attack::registry().run("bf", locked().view, locked().hybrid);
  expect_base_identical(u, direct);
  EXPECT_EQ(u.iterations, direct.combinations_tried);
}

TEST(AttackRegistry, MlMatchesDirectCall) {
  ScanOracle oracle(locked().hybrid);
  const MlAttackResult direct =
      run_ml_attack(locked().view, oracle, MlAttackOptions{});
  const attack::UnifiedResult u =
      attack::registry().run("ml", locked().view, locked().hybrid);
  expect_base_identical(u, direct);
  EXPECT_EQ(u.iterations, static_cast<std::uint64_t>(direct.steps));
}

TEST(AttackRegistry, DpaMatchesDirectCall) {
  const Netlist& hybrid = locked().hybrid;
  CellId target = kNullCell;
  for (CellId id = 0; id < hybrid.size(); ++id) {
    if (hybrid.cell(id).kind == CellKind::kLut) {
      target = id;
      break;
    }
  }
  ASSERT_NE(target, kNullCell);
  TraceOptions trace;  // default seed matches DpaOptions{}.seed
  const PowerTraceResult measurement =
      simulate_power_trace(hybrid, TechLibrary::cmos90_stt(), trace);
  const DpaResult direct =
      run_dpa_attack(hybrid, target, hybrid.cell(target).lut_mask,
                     measurement, DpaOptions{});
  const attack::UnifiedResult u =
      attack::registry().run("dpa", locked().view, hybrid);
  expect_base_identical(u, direct);
  EXPECT_NE(u.detail.find("target="), std::string::npos);
}

TEST(AttackRegistry, CommonOverlayControlsSeedAndBudgets) {
  // A tiny work budget must flow through the overlay and surface as
  // budget exhaustion, identically to the direct call.
  ScanOracle oracle(locked().hybrid);
  MlAttackOptions opt;
  opt.seed = 99;
  opt.work_budget = 10;
  const MlAttackResult direct = run_ml_attack(locked().view, oracle, opt);
  attack::CommonAttackOptions common;
  common.seed = 99;
  common.work_budget = 10;
  const attack::UnifiedResult u =
      attack::registry().run("ml", locked().view, locked().hybrid, common);
  expect_base_identical(u, direct);
  EXPECT_EQ(u.outcome, direct.outcome);
}

TEST(AttackRegistry, ZeroTimeLimitExpiresImmediately) {
  attack::CommonAttackOptions common;
  common.time_limit_s = 0.0;
  const attack::UnifiedResult u =
      attack::registry().run("ml", locked().view, locked().hybrid, common);
  EXPECT_TRUE(u.timed_out());
}

}  // namespace
}  // namespace stt
