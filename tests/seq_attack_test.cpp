#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "attack/seq_attack.hpp"
#include "core/selection.hpp"
#include "sim/compiled.hpp"
#include "synth/generator.hpp"
#include "util/rng.hpp"

namespace stt {
namespace {

// Check two netlists behave identically from reset over random sequences.
bool sequences_match(const Netlist& a, const Netlist& b, int cycles,
                     std::uint64_t seed) {
  const CompiledSim sa(a);
  const CompiledSim sb(b);
  std::vector<std::uint64_t> state_a(sa.num_dffs(), 0);
  std::vector<std::uint64_t> state_b(sb.num_dffs(), 0);
  std::vector<std::uint64_t> wave_a(sa.wave_size()), wave_b(sb.wave_size());
  Rng rng(seed);
  std::vector<std::uint64_t> pi(a.inputs().size());
  for (int t = 0; t < cycles; ++t) {
    for (auto& w : pi) w = rng();
    sa.step(pi, state_a, wave_a);
    sb.step(pi, state_b, wave_b);
    for (std::size_t o = 0; o < sa.num_outputs(); ++o) {
      if (wave_a[sa.output_cells()[o]] != wave_b[sb.output_cells()[o]]) {
        return false;
      }
    }
  }
  return true;
}

TEST(SequenceOracle, ReturnsPerCycleOutputs) {
  const Netlist nl = embedded_netlist("count2");
  SequenceOracle oracle(nl);
  // en=1, clr=0 for three cycles: q counts 0,1,2.
  const std::vector<std::vector<bool>> seq(3, {true, false});
  const auto out = oracle.query(seq);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_FALSE(out[0][0]);  // q0=0
  EXPECT_FALSE(out[0][1]);  // q1=0
  EXPECT_TRUE(out[1][0]);   // q=1
  EXPECT_FALSE(out[1][1]);
  EXPECT_FALSE(out[2][0]);  // q=2
  EXPECT_TRUE(out[2][1]);
  EXPECT_EQ(oracle.cycles(), 3u);
}

TEST(SequenceOracle, EachQueryStartsFromReset) {
  const Netlist nl = embedded_netlist("count2");
  SequenceOracle oracle(nl);
  const std::vector<std::vector<bool>> seq(2, {true, false});
  const auto first = oracle.query(seq);
  const auto second = oracle.query(seq);
  EXPECT_EQ(first, second);
}

TEST(SequenceOracle, SizeMismatchThrows) {
  const Netlist nl = embedded_netlist("count2");
  SequenceOracle oracle(nl);
  EXPECT_THROW(oracle.query({{true}}), std::invalid_argument);
}

TEST(SeqSatAttack, ThrowsWithoutLuts) {
  const Netlist nl = embedded_netlist("s27");
  EXPECT_THROW(run_sequential_sat_attack(nl, nl), std::invalid_argument);
}

TEST(SeqSatAttack, RecoversShallowLockWithFewFrames) {
  // Lock a gate whose output is combinationally visible: one frame worth
  // of unrolling already distinguishes keys.
  Netlist original = embedded_netlist("count2");
  Netlist hybrid = original;
  hybrid.replace_with_lut(hybrid.find("t0"));   // XOR feeding d0
  hybrid.replace_with_lut(hybrid.find("nclr"));
  const Netlist view = foundry_view(hybrid);

  SeqAttackOptions opt;
  opt.frames = 4;
  const auto result = run_sequential_sat_attack(view, original, opt);
  ASSERT_TRUE(result.success());
  Netlist recovered = view;
  apply_key(recovered, result.key);
  EXPECT_TRUE(sequences_match(recovered, original, 64, 5));
}

TEST(SeqSatAttack, RecoversIndependentLockOnS27) {
  const Netlist original = embedded_netlist("s27");
  Netlist hybrid = original;
  const TechLibrary lib = TechLibrary::cmos90_stt();
  GateSelector selector(lib);
  SelectionOptions sopt;
  sopt.seed = 3;
  sopt.indep_count = 3;
  (void)selector.run(hybrid, SelectionAlgorithm::kIndependent, sopt);

  SeqAttackOptions opt;
  opt.frames = 6;
  const auto result =
      run_sequential_sat_attack(foundry_view(hybrid), original, opt);
  ASSERT_TRUE(result.success());
  Netlist recovered = foundry_view(hybrid);
  apply_key(recovered, result.key);
  EXPECT_TRUE(sequences_match(recovered, original, 128, 11));
  EXPECT_GT(result.queries, 0u);
}

TEST(SeqSatAttack, ReusedOracleCountsOnlyThisRunsCycles) {
  const Netlist original = embedded_netlist("s27");
  Netlist hybrid = original;
  const TechLibrary lib = TechLibrary::cmos90_stt();
  GateSelector selector(lib);
  SelectionOptions sopt;
  sopt.seed = 3;
  sopt.indep_count = 3;
  (void)selector.run(hybrid, SelectionAlgorithm::kIndependent, sopt);

  SequenceOracle oracle(original);
  SeqAttackOptions opt;
  opt.frames = 6;
  const auto first = run_sequential_sat_attack(foundry_view(hybrid), oracle, opt);
  const auto second =
      run_sequential_sat_attack(foundry_view(hybrid), oracle, opt);
  ASSERT_GT(first.queries, 0u);
  EXPECT_EQ(second.queries, first.queries);
  EXPECT_EQ(second.iterations, first.iterations);
  EXPECT_EQ(oracle.cycles(), first.queries + second.queries);
}

TEST(SeqSatAttack, FramesBelowOneThrowsNamingFrames) {
  Netlist original = embedded_netlist("count2");
  Netlist hybrid = original;
  hybrid.replace_with_lut(hybrid.find("t0"));
  for (const int frames : {0, -3}) {
    SeqAttackOptions opt;
    opt.frames = frames;
    try {
      run_sequential_sat_attack(foundry_view(hybrid), original, opt);
      ADD_FAILURE() << "frames=" << frames << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("frames"), std::string::npos)
          << e.what();
    }
  }
}

TEST(SeqSatAttack, TooFewFramesYieldsDegenerateKey) {
  // A LUT buried behind a flip-flop chain deeper than the unrolling cannot
  // influence any observable output within the horizon, so the attack
  // "succeeds" vacuously but the key may be wrong on longer runs — the
  // depth-D protection of Eqs. (1)-(3) in executable form.
  Netlist nl("deep");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId g = nl.add_gate(CellKind::kXor, "g", {a, b});
  CellId prev = g;
  for (int i = 0; i < 4; ++i) {
    prev = nl.add_dff("ff" + std::to_string(i), prev);
  }
  const CellId o = nl.add_gate(CellKind::kOr, "o", {prev, a});
  nl.mark_output(o);
  nl.finalize();

  Netlist hybrid = nl;
  hybrid.replace_with_lut(g);

  SeqAttackOptions shallow;
  shallow.frames = 2;  // < 4 flip-flops of depth: g is invisible
  const auto blind =
      run_sequential_sat_attack(foundry_view(hybrid), nl, shallow);
  ASSERT_TRUE(blind.success());
  EXPECT_EQ(blind.iterations, 0);  // no distinguishing sequence exists

  SeqAttackOptions deep;
  deep.frames = 8;
  const auto sighted =
      run_sequential_sat_attack(foundry_view(hybrid), nl, deep);
  ASSERT_TRUE(sighted.success());
  EXPECT_GT(sighted.iterations, 0);
  Netlist recovered = foundry_view(hybrid);
  apply_key(recovered, sighted.key);
  EXPECT_TRUE(sequences_match(recovered, nl, 64, 17));
}

TEST(SeqSatAttack, BudgetsHonoured) {
  const CircuitProfile profile{"seqcap", 8, 6, 6, 120, 8};
  const Netlist original = generate_circuit(profile, 9);
  Netlist hybrid = original;
  const TechLibrary lib = TechLibrary::cmos90_stt();
  GateSelector selector(lib);
  SelectionOptions sopt;
  sopt.seed = 9;
  (void)selector.run(hybrid, SelectionAlgorithm::kDependent, sopt);

  SeqAttackOptions opt;
  opt.frames = 3;
  opt.max_iterations = 1;
  const auto result =
      run_sequential_sat_attack(foundry_view(hybrid), original, opt);
  if (!result.success()) {
    EXPECT_TRUE(result.budget_exhausted() || result.timed_out());
  }
}

}  // namespace
}  // namespace stt
