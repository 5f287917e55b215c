#include <gtest/gtest.h>

#include "io/bench_io.hpp"
#include "sim/compiled.hpp"
#include "sim/partial_eval.hpp"
#include "synth/generator.hpp"
#include "util/rng.hpp"

namespace stt {
namespace {

// Single-pattern evaluation: bit 0 of every output word, with every PI and
// state bit broadcast across the word.
std::vector<bool> eval_single(const CompiledSim& sim,
                              const std::vector<bool>& pi,
                              const std::vector<bool>& ff) {
  std::vector<std::uint64_t> pis(pi.size()), ffs(ff.size());
  for (std::size_t i = 0; i < pi.size(); ++i) pis[i] = pi[i] ? ~0ull : 0ull;
  for (std::size_t j = 0; j < ff.size(); ++j) ffs[j] = ff[j] ? ~0ull : 0ull;
  std::vector<std::uint64_t> wave(sim.wave_size());
  sim.eval_word(pis, ffs, wave);
  std::vector<bool> out;
  for (const CellId id : sim.output_cells()) out.push_back(wave[id] & 1ull);
  return out;
}

// One clock; returns the primary-output words of the cycle.
std::vector<std::uint64_t> step_outputs(const CompiledSim& sim,
                                        std::span<const std::uint64_t> pi,
                                        std::vector<std::uint64_t>& state) {
  std::vector<std::uint64_t> wave(sim.wave_size());
  sim.step(pi, state, wave);
  std::vector<std::uint64_t> out;
  for (const CellId id : sim.output_cells()) out.push_back(wave[id]);
  return out;
}

TEST(Simulator, S27KnownVectors) {
  const Netlist nl = embedded_netlist("s27");
  const CompiledSim sim(nl);
  // With all PIs 0 and state (G5,G6,G7) = 0:
  //   G14 = NOT(G0)=1, G8 = AND(G14,G6)=0, G12 = NOR(G1,G7)=1,
  //   G15 = OR(G12,G8)=1, G16 = OR(G3,G8)=0, G9 = NAND(G16,G15)=1,
  //   G10 = NOR(G14,G11); G11 = NOR(G5,G9)=0 -> G10 = NOR(1,0)=0,
  //   G13 = NOR(G2,G12)=0, G17 = NOT(G11)=1.
  const auto out = eval_single(sim, {false, false, false, false},
                               {false, false, false});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0]);  // G17 = 1
}

TEST(Simulator, StimulusSizeMismatchThrows) {
  const Netlist nl = embedded_netlist("s27");
  const CompiledSim sim(nl);
  std::vector<std::uint64_t> bad_pi(2), ff(3), wave(sim.wave_size());
  EXPECT_THROW(sim.eval_word(bad_pi, ff, wave), std::invalid_argument);
}

TEST(Simulator, WordLanesAreIndependent) {
  // Evaluating 64 patterns at once equals evaluating them one by one.
  CircuitProfile profile{"lanes", 6, 4, 3, 40, 5};
  const Netlist nl = generate_circuit(profile, 77);
  const CompiledSim sim(nl);
  Rng rng(123);
  std::vector<std::uint64_t> pis(nl.inputs().size());
  std::vector<std::uint64_t> ffs(nl.dffs().size());
  for (auto& w : pis) w = rng();
  for (auto& w : ffs) w = rng();
  std::vector<std::uint64_t> wave(sim.wave_size());
  sim.eval_word(pis, ffs, wave);

  for (int lane = 0; lane < 64; lane += 17) {
    std::vector<bool> pi_bits(pis.size());
    std::vector<bool> ff_bits(ffs.size());
    for (std::size_t i = 0; i < pis.size(); ++i) {
      pi_bits[i] = (pis[i] >> lane) & 1ull;
    }
    for (std::size_t j = 0; j < ffs.size(); ++j) {
      ff_bits[j] = (ffs[j] >> lane) & 1ull;
    }
    const auto single = eval_single(sim, pi_bits, ff_bits);
    for (std::size_t o = 0; o < single.size(); ++o) {
      const CellId id = sim.output_cells()[o];
      EXPECT_EQ(single[o], ((wave[id] >> lane) & 1ull) != 0);
    }
  }
}

TEST(SequentialStep, CounterCountsUp) {
  const Netlist nl = embedded_netlist("count2");
  const CompiledSim sim(nl);
  std::vector<std::uint64_t> state(sim.num_dffs(), 0);
  // en=1, clr=0 for every lane.
  const std::vector<std::uint64_t> stim{~0ull, 0ull};
  // count2's outputs are the *current* state (q0,q1) before the clock edge.
  int expected = 0;
  for (int cycle = 0; cycle < 8; ++cycle) {
    const auto out = step_outputs(sim, stim, state);
    const int q = static_cast<int>((out[0] & 1ull) | ((out[1] & 1ull) << 1));
    EXPECT_EQ(q, expected % 4) << "cycle " << cycle;
    ++expected;
  }
}

TEST(SequentialStep, ClearForcesZero) {
  const Netlist nl = embedded_netlist("count2");
  const CompiledSim sim(nl);
  std::vector<std::uint64_t> state(sim.num_dffs(), ~0ull);  // all-ones
  const std::vector<std::uint64_t> clr{0ull, ~0ull};  // en=0, clr=1
  (void)step_outputs(sim, clr, state);
  const auto out = step_outputs(sim, clr, state);
  EXPECT_EQ(out[0], 0ull);
  EXPECT_EQ(out[1], 0ull);
}

TEST(SequentialStep, SetStateRoundtrip) {
  // The caller owns the state: a step reads it as the flip-flop outputs and
  // writes the D-pin values back; a mis-sized state is rejected.
  const Netlist nl = embedded_netlist("s27");
  const CompiledSim sim(nl);
  const std::vector<std::uint64_t> pi{5, 6, 7, 8};
  std::vector<std::uint64_t> state{1, 2, 3};
  std::vector<std::uint64_t> expect(sim.wave_size());
  sim.eval_word(pi, state, expect);
  std::vector<std::uint64_t> wave(sim.wave_size());
  sim.step(pi, state, wave);
  EXPECT_EQ(wave, expect);
  for (std::size_t j = 0; j < state.size(); ++j) {
    EXPECT_EQ(state[j], expect[sim.next_state_cells()[j]]);
  }
  std::vector<std::uint64_t> bad(2);
  EXPECT_THROW(sim.step(pi, bad, wave), std::invalid_argument);
}

// ---------------------------------------------------------- ternary ----

TEST(Ternary, KleeneAnd) {
  Cell c;
  c.kind = CellKind::kAnd;
  const Tri x = Tri::kX;
  const Tri zero = Tri::kZero;
  const Tri one = Tri::kOne;
  EXPECT_EQ(eval_cell_tri(c, std::vector<Tri>{zero, x}), Tri::kZero);
  EXPECT_EQ(eval_cell_tri(c, std::vector<Tri>{one, x}), Tri::kX);
  EXPECT_EQ(eval_cell_tri(c, std::vector<Tri>{one, one}), Tri::kOne);
}

TEST(Ternary, KleeneOrNorXor) {
  Cell c;
  c.kind = CellKind::kOr;
  EXPECT_EQ(eval_cell_tri(c, std::vector<Tri>{Tri::kOne, Tri::kX}),
            Tri::kOne);
  c.kind = CellKind::kNor;
  EXPECT_EQ(eval_cell_tri(c, std::vector<Tri>{Tri::kOne, Tri::kX}),
            Tri::kZero);
  c.kind = CellKind::kXor;
  EXPECT_EQ(eval_cell_tri(c, std::vector<Tri>{Tri::kOne, Tri::kX}),
            Tri::kX);
}

TEST(Ternary, LutUnknownForcesX) {
  Cell c;
  c.kind = CellKind::kLut;
  c.lut_mask = 0b1000;  // AND2
  const std::vector<Tri> in{Tri::kOne, Tri::kOne};
  EXPECT_EQ(eval_cell_tri(c, in), Tri::kOne);
  // The attacker view: the same LUT with zero knowledge of its mask.
  Netlist nl("lut");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId l = nl.add_lut("l", {a, b}, c.lut_mask);
  nl.mark_output(l);
  const LutKnowledgeMap unknown = unknown_luts(nl);
  EXPECT_EQ(PartialEvaluator(nl, unknown).eval(in)[l], Tri::kX);
  const LutKnowledgeMap configured;
  EXPECT_EQ(PartialEvaluator(nl, configured).eval(in)[l], Tri::kOne);
}

TEST(Ternary, ConstantLutStaysDefiniteUnderX) {
  Cell c;
  c.kind = CellKind::kLut;
  c.lut_mask = full_mask(2);  // constant 1
  EXPECT_EQ(eval_cell_tri(c, std::vector<Tri>{Tri::kX, Tri::kX}),
            Tri::kOne);
}

// Three-valued evaluation of the configured chip: PartialEvaluator with an
// empty knowledge map, checked against the compiled binary engine.
TEST(PartialEvaluator, MatchesBinaryOnDefiniteInputs) {
  CircuitProfile profile{"tern", 5, 4, 3, 40, 5};
  const Netlist nl = generate_circuit(profile, 9);
  const CompiledSim bin(nl);
  const LutKnowledgeMap configured;
  const PartialEvaluator tern(nl, configured);
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<bool> pi(nl.inputs().size());
    std::vector<bool> ff(nl.dffs().size());
    for (auto&& b : pi) b = rng.chance(0.5);
    for (auto&& b : ff) b = rng.chance(0.5);
    std::vector<Tri> inputs;
    std::vector<std::uint64_t> pis, ffs;
    for (const bool b : pi) {
      inputs.push_back(tri_from_bool(b));
      pis.push_back(b ? ~0ull : 0ull);
    }
    for (const bool b : ff) {
      inputs.push_back(tri_from_bool(b));
      ffs.push_back(b ? ~0ull : 0ull);
    }
    std::vector<std::uint64_t> expect(bin.wave_size());
    bin.eval_word(pis, ffs, expect);
    const auto wave = tern.eval(inputs);
    for (CellId id = 0; id < nl.size(); ++id) {
      EXPECT_EQ(wave[id], tri_from_bool(expect[id] & 1ull)) << "cell " << id;
    }
  }
}

TEST(PartialEvaluator, XStateStaysConservative) {
  const Netlist nl = embedded_netlist("s27");
  const LutKnowledgeMap configured;
  const PartialEvaluator sim(nl, configured);
  const std::vector<Tri> inputs = {
      Tri::kZero, Tri::kZero, Tri::kZero, Tri::kZero,  // PIs 0
      Tri::kX,    Tri::kX,    Tri::kX};                // state X
  const auto wave = sim.eval(inputs);
  // G17 = NOT(G11) where G11 = NOR(G5, G9): with unknown state the output
  // may or may not be X, but it must never contradict a definite evaluation
  // of any concrete state. Check against both all-0 and all-1 states.
  const CompiledSim bin(nl);
  const auto o0 = eval_single(bin, {false, false, false, false},
                              {false, false, false});
  const auto o1 = eval_single(bin, {false, false, false, false},
                              {true, true, true});
  const Tri got = wave[nl.outputs()[0]];
  if (got != Tri::kX) {
    EXPECT_EQ(got, tri_from_bool(o0[0]));
    EXPECT_EQ(got, tri_from_bool(o1[0]));
  }
}

TEST(TriChar, Mapping) {
  EXPECT_EQ(tri_char(Tri::kZero), '0');
  EXPECT_EQ(tri_char(Tri::kOne), '1');
  EXPECT_EQ(tri_char(Tri::kX), 'X');
}

}  // namespace
}  // namespace stt
