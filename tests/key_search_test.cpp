// Pinned trajectories of the key-guessing attacks. `ml` and `bf` run on
// fixed s641/s820 locks under the `const` and `latch` defenses, plus a
// hand-built chip whose LUTs are seldom observed; each case pins the step or
// combination count, the outcome, the training accuracy, a hash of the
// recovered key and the `sim.words` the run simulated. Any change to how the
// attacks score a candidate must reproduce the search exactly. Every case
// runs under every compiled-in ISA: `bf` screens in chunks one SIMD lane
// wide, so only its word count may depend on the lane width.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "attack/brute_force.hpp"
#include "attack/ml_attack.hpp"
#include "attack/oracle.hpp"
#include "core/hybrid.hpp"
#include "defense/registry.hpp"
#include "obs/obs.hpp"
#include "sim/isa.hpp"
#include "synth/generator.hpp"
#include "tech/tech_library.hpp"

namespace stt {
namespace {

/// A configured chip (the oracle) and the attacker's view of it.
struct Target {
  Netlist chip;
  Netlist view;
};

Target locked(const std::string& profile, const std::string& kind) {
  const Netlist original = generate_circuit(*find_profile(profile), 7);
  defense::DefenseOptions opt;
  opt.seed = 7;
  Netlist chip = defense::registry()
                     .apply(kind, original, TechLibrary::cmos90_stt(), opt, {})
                     .locked;
  Netlist view = foundry_view(chip);
  return {std::move(chip), std::move(view)};
}

/// Three LUTs: two reach an output only through a 7-input AND, so a wrong
/// candidate often survives the first screening words and `bf` revisits
/// later chunks under a partly changed key; the third is observed
/// directly. A flip-flop's D pin reads the first LUT.
Target rarely_observed() {
  Netlist nl;
  std::vector<CellId> in;
  for (int i = 0; i < 15; ++i) {
    in.push_back(nl.add_input("i" + std::to_string(i)));
  }
  const CellId q = nl.add_dff("q");
  const CellId l0 = nl.add_lut("l0", {in[0], in[1]}, 0b1000);  // AND
  const CellId l1 = nl.add_lut("l1", {in[1], in[2]}, 0b0110);  // XOR
  const CellId l2 = nl.add_lut("l2", {in[2], q}, 0b1110);      // OR
  const CellId g0 = nl.add_gate(
      CellKind::kAnd, "g0", {l0, in[3], in[4], in[5], in[6], in[7], in[8]});
  const CellId g1 = nl.add_gate(CellKind::kAnd, "g1",
                                {l1, in[9], in[10], in[11], in[12], in[13],
                                 in[14]});
  nl.connect(q, {nl.add_gate(CellKind::kNand, "d", {g0, in[2]})});
  nl.mark_output(g0);
  nl.mark_output(g1);
  nl.mark_output(l2);
  nl.finalize();
  Netlist view = foundry_view(nl);
  return {std::move(nl), std::move(view)};
}

const Target& target(const std::string& name) {
  static std::map<std::string, Target> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    const auto slash = name.find('/');
    it = cache
             .emplace(name, slash == std::string::npos
                                ? rarely_observed()
                                : locked(name.substr(0, slash),
                                         name.substr(slash + 1)))
             .first;
  }
  return it->second;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t sim_words() {
  return obs::Metrics::global().counter_value("sim.words");
}

/// What one run must reproduce.
struct Trajectory {
  attack::Outcome outcome;
  std::uint64_t count;  ///< ml steps or bf combinations tried
  double accuracy;      ///< ml only
  std::uint64_t key_hash;
  std::uint64_t words;  ///< sim.words simulated by the run, oracle included
};

struct Case {
  const char* target;
  attack::Outcome outcome;
  std::uint64_t count;
  double accuracy;
  std::uint64_t key_hash;
  std::array<std::uint64_t, 3> words;  ///< indexed by SimIsa
};

Trajectory run_ml(const Target& t) {
  ScanOracle oracle(t.chip);
  MlAttackOptions opt;
  opt.seed = 5;
  opt.work_budget = 3'000;
  const std::uint64_t w0 = sim_words();
  const MlAttackResult r = run_ml_attack(t.view, oracle, opt);
  return {r.outcome, static_cast<std::uint64_t>(r.steps), r.final_accuracy,
          fnv1a(key_to_string(r.key)), sim_words() - w0};
}

Trajectory run_bf(const Target& t) {
  ScanOracle oracle(t.chip);
  BruteForceOptions opt;
  opt.seed = 5;
  opt.work_budget = 3'000;
  opt.screening_patterns = 1024;
  const std::uint64_t w0 = sim_words();
  const BruteForceResult r = run_brute_force(t.view, oracle, opt);
  return {r.outcome, r.combinations_tried, 0.0, fnv1a(key_to_string(r.key)),
          sim_words() - w0};
}

template <typename Run>
void expect_pinned(const Case& c, Run run, const char* attack) {
  for (const SimIsa isa : {SimIsa::kScalar, SimIsa::kAvx2, SimIsa::kAvx512}) {
    if (!sim_isa_supported(isa)) continue;
    ScopedSimIsa forced(isa);
    const Trajectory got = run(target(c.target));
    const std::string label =
        std::string(attack) + " " + c.target + " " + sim_isa_name(isa);
    EXPECT_EQ(attack::outcome_name(got.outcome),
              attack::outcome_name(c.outcome))
        << label;
    EXPECT_EQ(got.count, c.count) << label;
    EXPECT_EQ(got.accuracy, c.accuracy) << label;
    EXPECT_EQ(got.key_hash, c.key_hash) << label;
#if !defined(STTLOCK_OBS_DISABLED)
    EXPECT_EQ(got.words, c.words[static_cast<std::size_t>(isa)]) << label;
#endif
  }
}

// Captured before the attacks re-scored only the cone of the changed LUT.
constexpr auto kBudget = attack::Outcome::kBudgetExhausted;
constexpr std::uint64_t kEmptyKey = 0xcbf29ce484222325ull;  // FNV-1a of ""

const Case kMl[] = {
    {"s641/const", kBudget, 3000, 0.95877659574468088, 0x7984abc7135aa065ull,
     {12008, 12008, 12008}},
    {"s641/latch", kBudget, 3000, 0.9912642045454545, 0x646269459e7dc289ull,
     {12008, 12008, 12008}},
    {"s820/const", kBudget, 3000, 0.96175986842105265, 0xcb07bd9267b3ce7bull,
     {12008, 12008, 12008}},
    {"s820/latch", kBudget, 3000, 0.96739130434782605, 0x9795b5430ec67548ull,
     {12008, 12008, 12008}},
    {"rare", attack::Outcome::kSolved, 18, 1.0, 0xa50bf1cbea7db824ull,
     {80, 80, 80}},
};

const Case kBf[] = {
    {"s641/const", attack::Outcome::kAbandoned, 256, 0, kEmptyKey,
     {272, 1040, 2064}},
    {"s641/latch", kBudget, 3000, 0, kEmptyKey, {3016, 12016, 24016}},
    {"s820/const", attack::Outcome::kAbandoned, 32, 0, kEmptyKey,
     {48, 144, 272}},
    {"s820/latch", kBudget, 3000, 0, kEmptyKey, {3016, 12016, 24016}},
    {"rare", attack::Outcome::kSolved, 97, 0, 0x9e9e6a3b108fc0ebull,
     {140, 424, 800}},
};

TEST(KeySearchTrajectory, MlIsPinned) {
  for (const Case& c : kMl) expect_pinned(c, run_ml, "ml");
}

TEST(KeySearchTrajectory, BfIsPinned) {
  for (const Case& c : kBf) expect_pinned(c, run_bf, "bf");
}

}  // namespace
}  // namespace stt
