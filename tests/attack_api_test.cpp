// Unified attack API: attack::registry() must dispatch every attack and
// produce results bit-identical to calling the attack function directly
// with the same options. Pins the adapter defaults so the registry can
// never silently drift from the underlying implementations.
#include "attack/registry.hpp"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "attack/brute_force.hpp"
#include "attack/dpa.hpp"
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
}

TEST(AttackRegistry, SatRejectsBadTuningValuesByName) {
  const std::pair<const char*, const char*> bad[] = {
      {"max_iterations", "abc"}, {"max_iterations", "0"},
      {"max_iterations", "12x"}, {"warmup_words", "-3"},
      {"warmup_words", ""}};
  for (const auto& [key, value] : bad) {
    try {
      attack::registry().run("sat", locked().view, locked().hybrid, {},
                             {{key, value}});
      ADD_FAILURE() << key << "=" << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("\"sat\""), std::string::npos) << msg;
      EXPECT_NE(msg.find(key), std::string::npos) << msg;
      EXPECT_NE(msg.find("\"" + std::string(value) + "\""), std::string::npos)
          << msg;
    }
  }
}

TEST(AttackRegistry, SatCatalogueDefaultsMatchOptions) {
  const SatAttackOptions defaults;
  std::map<std::string, std::string> listed;
  for (const attack::AttackKnob& knob : attack::registry().info("sat").knobs) {
    listed[knob.key] = knob.default_value;
  }
  EXPECT_EQ(listed, (std::map<std::string, std::string>{
                        {"naive", defaults.cone_pruning ? "0" : "1"},
                        {"max_iterations",
                         std::to_string(defaults.max_iterations)},
                        {"warmup_words",
                         std::to_string(defaults.warmup_words)}}));
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

TEST(AttackRegistry, SatTuningMatchesDirectNaiveCall) {
  ScanOracle oracle(locked().hybrid);
  SatAttackOptions opt;
  opt.cone_pruning = false;
  const SatAttackResult direct = run_sat_attack(locked().view, oracle, opt);
  const attack::UnifiedResult u = attack::registry().run(
      "sat", locked().view, locked().hybrid, {}, {{"naive", "1"}});
  expect_base_identical(u, direct);
  EXPECT_EQ(u.conflicts, direct.conflicts);
}

TEST(AttackRegistry, SeqMatchesDirectCall) {
  const SeqAttackResult direct = run_sequential_sat_attack(
      locked().view, locked().hybrid, SeqAttackOptions{});
  const attack::UnifiedResult u =
      attack::registry().run("seq", locked().view, locked().hybrid);
  expect_base_identical(u, direct);
  EXPECT_EQ(u.iterations, static_cast<std::uint64_t>(direct.iterations));
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
