#include <gtest/gtest.h>

#include "attack/encode.hpp"
#include "core/hybrid.hpp"
#include "io/bench_io.hpp"
#include "sim/compiled.hpp"
#include "synth/generator.hpp"
#include "util/rng.hpp"

namespace stt {
namespace {

// Property: pinning the encoded inputs to a concrete pattern and solving
// yields exactly the simulator's outputs.
class EncodingMatchesSimulation : public ::testing::TestWithParam<int> {};

TEST_P(EncodingMatchesSimulation, RandomCircuitsAndPatterns) {
  CircuitProfile profile{"enc", 5, 4, 3, 45, 5};
  Netlist nl = generate_circuit(profile, GetParam());
  // Mix in some configured LUTs so the constant-LUT encoding is covered.
  int count = 0;
  for (const CellId id : nl.logic_cells()) {
    if (is_replaceable_gate(nl.cell(id).kind) && ++count % 4 == 0) {
      nl.replace_with_lut(id);
    }
  }

  const CompiledSim sim(nl);
  std::vector<std::uint64_t> wave(sim.wave_size());
  Rng rng(GetParam() * 13 + 1);
  for (int trial = 0; trial < 4; ++trial) {
    sat::Solver solver;
    const EncodedCircuit enc = encode_comb(solver, nl);
    std::vector<bool> in(enc.input_vars.size());
    for (auto&& b : in) b = rng.chance(0.5);
    for (std::size_t i = 0; i < in.size(); ++i) {
      solver.add_unit(in[i] ? sat::pos(enc.input_vars[i])
                            : sat::neg(enc.input_vars[i]));
    }
    ASSERT_EQ(solver.solve(), sat::Result::kSat);

    // The same pattern broadcast across a word: PIs, then state bits.
    const std::size_t n_pi = nl.inputs().size();
    std::vector<std::uint64_t> words(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) words[i] = in[i] ? ~0ull : 0ull;
    const std::span<const std::uint64_t> all(words);
    sim.eval_word(all.first(n_pi), all.subspan(n_pi), wave);
    for (std::size_t o = 0; o < sim.num_outputs(); ++o) {
      EXPECT_EQ(solver.value(enc.output_vars[o]),
                (wave[sim.output_cells()[o]] & 1ull) != 0)
          << "output " << o;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodingMatchesSimulation,
                         ::testing::Range(1, 11));

TEST(Encode, SharedInputSizeMismatchThrows) {
  const Netlist nl = embedded_netlist("s27");
  sat::Solver solver;
  std::vector<sat::Var> wrong(3);
  for (auto& v : wrong) v = solver.new_var();
  EncodeOptions opt;
  opt.share_inputs = &wrong;
  EXPECT_THROW(encode_comb(solver, nl, opt), std::invalid_argument);
}

TEST(Encode, SymbolicKeysCreateRowVariables) {
  Netlist nl = read_bench(
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = AND(a, b)\nz = OR(y, c)\n");
  nl.replace_with_lut(nl.find("y"));
  sat::Solver solver;
  EncodeOptions opt;
  opt.symbolic_keys = true;
  const EncodedCircuit enc = encode_comb(solver, nl, opt);
  ASSERT_EQ(enc.key_vars.size(), 1u);
  EXPECT_EQ(enc.key_vars.at("y").size(), 4u);
}

TEST(Encode, SymbolicKeyConstrainedToTruthBehavesLikeGate) {
  Netlist locked = read_bench(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n");
  locked.replace_with_lut(locked.find("y"));
  const Netlist plain = read_bench(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n");

  sat::Solver solver;
  EncodeOptions sym;
  sym.symbolic_keys = true;
  const EncodedCircuit el = encode_comb(solver, locked, sym);
  EncodeOptions share;
  share.share_inputs = &el.input_vars;
  const EncodedCircuit ep = encode_comb(solver, plain, share);
  const sat::Var m = add_miter(solver, el.output_vars, ep.output_vars);

  // Pin the key to AND2's truth table: the miter must become UNSAT.
  const std::uint64_t truth = gate_truth_mask(CellKind::kAnd, 2);
  for (std::size_t r = 0; r < 4; ++r) {
    solver.add_unit(((truth >> r) & 1ull) ? sat::pos(el.key_vars.at("y")[r])
                                          : sat::neg(el.key_vars.at("y")[r]));
  }
  const sat::Lit assume[] = {sat::pos(m)};
  EXPECT_EQ(solver.solve(assume), sat::Result::kUnsat);
}

TEST(Encode, WrongKeyMakesMiterSat) {
  Netlist locked = read_bench(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n");
  locked.replace_with_lut(locked.find("y"));
  const Netlist plain = read_bench(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n");
  sat::Solver solver;
  EncodeOptions sym;
  sym.symbolic_keys = true;
  const EncodedCircuit el = encode_comb(solver, locked, sym);
  EncodeOptions share;
  share.share_inputs = &el.input_vars;
  const EncodedCircuit ep = encode_comb(solver, plain, share);
  const sat::Var m = add_miter(solver, el.output_vars, ep.output_vars);
  const std::uint64_t wrong = gate_truth_mask(CellKind::kNand, 2);
  for (std::size_t r = 0; r < 4; ++r) {
    solver.add_unit(((wrong >> r) & 1ull) ? sat::pos(el.key_vars.at("y")[r])
                                          : sat::neg(el.key_vars.at("y")[r]));
  }
  const sat::Lit assume[] = {sat::pos(m)};
  EXPECT_EQ(solver.solve(assume), sat::Result::kSat);
}

TEST(CombEquivalence, IdenticalNetlists) {
  const Netlist nl = embedded_netlist("s27");
  bool proven = false;
  EXPECT_TRUE(comb_equivalent(nl, nl, -1, &proven));
  EXPECT_TRUE(proven);
}

TEST(CombEquivalence, LutReplacementIsEquivalent) {
  const Netlist original = embedded_netlist("s27");
  Netlist hybrid = original;
  hybrid.replace_with_lut(hybrid.find("G9"));
  hybrid.replace_with_lut(hybrid.find("G12"));
  EXPECT_TRUE(comb_equivalent(original, hybrid));
}

TEST(CombEquivalence, DetectsFunctionalChange) {
  const Netlist original = embedded_netlist("s27");
  Netlist tampered = original;
  // Reconfigure one LUT wrongly.
  tampered.replace_with_lut(tampered.find("G9"),
                            gate_truth_mask(CellKind::kNor, 2));
  EXPECT_FALSE(comb_equivalent(original, tampered));
}

TEST(CombEquivalence, InterfaceMismatchIsInequivalent) {
  const Netlist a = embedded_netlist("s27");
  const Netlist b = embedded_netlist("count2");
  EXPECT_FALSE(comb_equivalent(a, b));
}

TEST(CombEquivalence, DeMorganPair) {
  const Netlist a = read_bench(
      "INPUT(x)\nINPUT(y)\nOUTPUT(o)\no = NAND(x, y)\n");
  const Netlist b = read_bench(
      "INPUT(x)\nINPUT(y)\nOUTPUT(o)\nnx = NOT(x)\nny = NOT(y)\no = OR(nx, ny)\n");
  EXPECT_TRUE(comb_equivalent(a, b));
}

TEST(HybridKeys, ExtractApplyRoundtrip) {
  Netlist nl = embedded_netlist("s27");
  nl.replace_with_lut(nl.find("G9"));
  nl.replace_with_lut(nl.find("G15"));
  const LutKey key = extract_key(nl);
  ASSERT_EQ(key.size(), 2u);

  Netlist stripped = foundry_view(nl);
  EXPECT_EQ(stripped.cell(stripped.find("G9")).lut_mask, 0ull);
  EXPECT_FALSE(comb_equivalent(nl, stripped));

  apply_key(stripped, key);
  EXPECT_TRUE(comb_equivalent(nl, stripped));
}

TEST(HybridKeys, SerializationRoundtrip) {
  LutKey key{{"G9", 0x7}, {"G15", 0xE}};
  const LutKey back = key_from_string(key_to_string(key));
  EXPECT_EQ(back, key);
}

TEST(HybridKeys, KeyFileRejectsBadMasksByName) {
  // Each was a raw `stoull` error or a silently truncated mask.
  for (const char* line :
       {"kg1 zz\n", "kg1 0x1garbage\n", "kg1 0x10000000000000000\n",
        "kg1 -1\n", "kg1 +1\n"}) {
    try {
      key_from_string(line);
      ADD_FAILURE() << line << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("kg1"), std::string::npos) << msg;
      EXPECT_EQ(msg.find("sto"), std::string::npos) << msg;
    }
  }
  EXPECT_EQ(key_from_string("kg1 0x1f\nkg2 A\n"),
            (LutKey{{"kg1", 0x1f}, {"kg2", 0xa}}));
}

TEST(HybridKeys, ApplyValidates) {
  Netlist nl = embedded_netlist("s27");
  nl.replace_with_lut(nl.find("G9"));
  EXPECT_THROW(apply_key(nl, LutKey{{"ghost", 1}}), std::invalid_argument);
  EXPECT_THROW(apply_key(nl, LutKey{{"G15", 1}}), std::invalid_argument);
}

TEST(HybridKeys, KeyBits) {
  Netlist nl = embedded_netlist("s27");
  EXPECT_EQ(key_bits(nl), 0u);
  nl.replace_with_lut(nl.find("G9"));   // 2-input: 4 bits
  nl.replace_with_lut(nl.find("G14"));  // 1-input: 2 bits
  EXPECT_EQ(key_bits(nl), 6u);
}

}  // namespace
}  // namespace stt
