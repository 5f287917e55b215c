// Tests for the cone-pruned constant-folded I/O-pair encoder
// (attack/dip_encode.*): unit key-row resolution, constant masking,
// known-row shrinkage, and consistency with the planted key.
#include <gtest/gtest.h>

#include <stdexcept>

#include "attack/dip_encode.hpp"
#include "attack/encode.hpp"
#include "attack/oracle.hpp"
#include "core/hybrid.hpp"
#include "synth/generator.hpp"
#include "util/rng.hpp"

namespace stt {
namespace {

struct Encoded {
  sat::Solver solver;
  EncodedCircuit circuit;
};

void encode_single(Encoded& e, const Netlist& nl) {
  EncodeOptions opt;
  opt.symbolic_keys = true;
  e.circuit = encode_comb(e.solver, nl, opt);
}

TEST(DipEncode, DirectLutOutputResolvesToUnit) {
  Netlist nl("direct");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId lut = nl.add_lut("l", {a, b}, 0b0110);  // XOR, mask unused
  nl.mark_output(lut);
  nl.finalize();

  Encoded e;
  encode_single(e, nl);
  DipEncoder enc(e.solver, nl,
                 std::vector<const DipEncoder::KeyVars*>{&e.circuit.key_vars});

  // Pattern (a=0, b=1) selects row 0b10 = 2; the output *is* that key bit.
  const DipEncodeStats st =
      enc.add_io_pair({false, true}, {true}, /*units_only=*/true);
  EXPECT_EQ(st.key_rows_resolved, 1);
  EXPECT_EQ(st.complex_outputs, 0);
  EXPECT_EQ(st.vars_added, 0);
  EXPECT_EQ(enc.resolved_row_bits(), 1);
  ASSERT_EQ(enc.known_rows().count(lut), 1u);
  EXPECT_TRUE(enc.known_rows().at(lut).known_mask & 0b100);

  ASSERT_EQ(e.solver.solve(), sat::Result::kSat);
  EXPECT_TRUE(e.solver.value(e.circuit.key_vars.at("l")[2]));

  // The same pattern again resolves nothing new...
  const DipEncodeStats again =
      enc.add_io_pair({false, true}, {true}, /*units_only=*/true);
  EXPECT_EQ(again.key_rows_resolved, 0);
  EXPECT_EQ(again.clauses_added, 0);
  // ...and a contradicting response is the oracle calling the netlist wrong.
  EXPECT_THROW(enc.add_io_pair({false, true}, {false}, true),
               std::logic_error);
}

TEST(DipEncode, ConstantMaskedConeAddsNothing) {
  // out = AND(lut(a,b), a): with a=0 the LUT is unobservable and the whole
  // pattern folds to a constant — zero clauses, zero variables.
  Netlist nl("masked");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId lut = nl.add_lut("l", {a, b}, 0b1111);
  const CellId g = nl.add_gate(CellKind::kAnd, "g", {lut, a});
  nl.mark_output(g);
  nl.finalize();

  Encoded e;
  encode_single(e, nl);
  DipEncoder enc(e.solver, nl,
                 std::vector<const DipEncoder::KeyVars*>{&e.circuit.key_vars});

  const DipEncodeStats st = enc.add_io_pair({false, true}, {false});
  EXPECT_EQ(st.clauses_added, 0);
  EXPECT_EQ(st.vars_added, 0);
  EXPECT_EQ(st.key_rows_resolved, 0);
  EXPECT_EQ(st.complex_outputs, 0);
  EXPECT_EQ(enc.resolved_row_bits(), 0);
  // A response claiming the masked output is 1 contradicts the fold.
  EXPECT_THROW(enc.add_io_pair({false, true}, {true}), std::logic_error);
}

TEST(DipEncode, KnownRowsShrinkLaterCones) {
  // out0 = lut1(a,b), out1 = XOR(lut1, lut2): once a pattern resolves
  // lut1's row via out0, the same pattern's out1 collapses from a complex
  // cone to a single lut2 key literal.
  Netlist nl("shrink");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId lut1 = nl.add_lut("l1", {a, b}, 0b0110);
  const CellId lut2 = nl.add_lut("l2", {a, b}, 0b1000);
  const CellId x = nl.add_gate(CellKind::kXor, "x", {lut1, lut2});
  nl.mark_output(lut1);
  nl.mark_output(x);
  nl.finalize();

  Encoded e;
  encode_single(e, nl);
  DipEncoder enc(e.solver, nl,
                 std::vector<const DipEncoder::KeyVars*>{&e.circuit.key_vars});

  // First pass: out0 pins lut1 row 3; out1 is still complex (two unknowns
  // at fold time) and units_only skips its clauses.
  const DipEncodeStats first =
      enc.add_io_pair({true, true}, {true, false}, /*units_only=*/true);
  EXPECT_EQ(first.key_rows_resolved, 1);
  EXPECT_EQ(first.complex_outputs, 1);
  EXPECT_EQ(first.clauses_added, 1);  // just the unit pinning lut1 row 3
  EXPECT_EQ(first.cells_encoded, 0);  // units_only: no cone emission

  // Second pass, same pattern: lut1 now folds to its known constant, so
  // out1 = XOR(1, lut2) is a plain key literal — resolved, nothing complex.
  const DipEncodeStats second =
      enc.add_io_pair({true, true}, {true, false}, /*units_only=*/true);
  EXPECT_EQ(second.key_rows_resolved, 1);
  EXPECT_EQ(second.complex_outputs, 0);
  EXPECT_EQ(enc.resolved_row_bits(), 2);

  // out1 = XOR(lut1_row3, lut2_row3) = 0 with lut1_row3 = 1 forces
  // lut2_row3 = 1.
  ASSERT_EQ(e.solver.solve(), sat::Result::kSat);
  EXPECT_TRUE(e.solver.value(e.circuit.key_vars.at("l2")[3]));
}

TEST(DipEncode, RejectsAritiesAndBadKeyMaps) {
  Netlist nl("arity");
  const CellId a = nl.add_input("a");
  const CellId lut = nl.add_lut("l", {a}, 0b10);
  nl.mark_output(lut);
  nl.finalize();

  Encoded e;
  encode_single(e, nl);
  DipEncoder enc(e.solver, nl,
                 std::vector<const DipEncoder::KeyVars*>{&e.circuit.key_vars});
  EXPECT_THROW(enc.add_io_pair({true, false}, {true}), std::invalid_argument);
  EXPECT_THROW(enc.add_io_pair({true}, {true, false}), std::invalid_argument);

  DipEncoder::KeyVars missing;  // no entry for "l"
  EXPECT_THROW(DipEncoder(e.solver, nl,
                          std::vector<const DipEncoder::KeyVars*>{&missing}),
               std::invalid_argument);
}

TEST(DipEncode, SequencePairReachesRowsBehindFlipFlops) {
  // l's output crosses two flip-flops before it reaches o and p, so from
  // reset its row is first observable in frame 2. m feeds p directly.
  Netlist nl("deep");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId l = nl.add_lut("l", {a}, 0b10);  // BUF, mask unused
  const CellId m = nl.add_lut("m", {b}, 0b01);  // NOT, mask unused
  const CellId ff1 = nl.add_dff("ff1", l);
  const CellId ff2 = nl.add_dff("ff2", ff1);
  nl.mark_output(nl.add_gate(CellKind::kAnd, "o", {ff2, b}));
  nl.mark_output(nl.add_gate(CellKind::kXor, "p", {ff2, m}));
  nl.finalize();

  Encoded e;
  encode_single(e, nl);
  const std::vector<const DipEncoder::KeyVars*> keys{&e.circuit.key_vars};
  // Inputs are frame-major (a, b) pairs, responses (o, p) pairs: a0 = 1
  // selects l's row 1, b2 = 1 exposes it on o in frame 2, and p2 =
  // XOR(l[1], m[1]) stays a two-key cone that must be encoded.
  const std::vector<bool> in{true, false, false, false, false, true};
  const std::vector<bool> out{false, true, false, true, true, true};

  Encoded e2;
  encode_single(e2, nl);
  DipEncoder two(e2.solver, nl,
                 std::vector<const DipEncoder::KeyVars*>{&e2.circuit.key_vars},
                 2);
  EXPECT_EQ(two.add_io_pair({true, false, false, true},
                            {false, true, false, false})
                .key_rows_resolved,
            2);  // m rows 0 and 1 only
  EXPECT_EQ(two.known_rows().count(l), 0u);

  DipEncoder three(e.solver, nl, keys, 3);
  const DipEncodeStats st = three.add_io_pair(in, out);
  EXPECT_EQ(st.key_rows_resolved, 2);  // m row 0 (p0) and l row 1 (o2)
  EXPECT_EQ(st.complex_outputs, 1);    // p2
  EXPECT_EQ(st.cells_encoded, 1);      // p in frame 2
  ASSERT_EQ(three.known_rows().count(l), 1u);
  EXPECT_TRUE(three.known_rows().at(l).known_mask & 0b10);

  // l[1] = 1 and p2 = 1 force m[1] = 0 through the encoded frame-2 cone.
  ASSERT_EQ(e.solver.solve(), sat::Result::kSat);
  EXPECT_TRUE(e.solver.value(e.circuit.key_vars.at("l")[1]));
  EXPECT_FALSE(e.solver.value(e.circuit.key_vars.at("m")[1]));

  // o0 folds to 0 (ff2 holds the reset state): a response of 1 is the
  // oracle calling the netlist wrong.
  std::vector<bool> bad = out;
  bad[0] = true;
  EXPECT_THROW(three.add_io_pair(in, bad), std::logic_error);
  // Sequence pairs carry PI and PO bits per frame, not the scan layout.
  EXPECT_THROW(three.add_io_pair({true, false, false, false}, out),
               std::invalid_argument);
  EXPECT_THROW(DipEncoder(e.solver, nl, keys, -1), std::invalid_argument);
}

// Property: on random hybrid circuits, the constraints the encoder emits
// for oracle pairs are always satisfied by the planted key.
class DipEncodeConsistency : public ::testing::TestWithParam<int> {};

TEST_P(DipEncodeConsistency, PlantedKeySatisfiesAllPairs) {
  const CircuitProfile profile{"dip", 6, 4, 3, 50, 5};
  Netlist nl = generate_circuit(profile, GetParam());
  int count = 0;
  for (const CellId id : nl.logic_cells()) {
    if (is_replaceable_gate(nl.cell(id).kind) && ++count % 3 == 0) {
      nl.replace_with_lut(id);
    }
  }
  if (extract_key(nl).empty()) GTEST_SKIP() << "no replaceable gates";

  ScanOracle oracle(nl);
  Encoded e;
  encode_single(e, nl);
  DipEncoder enc(e.solver, nl,
                 std::vector<const DipEncoder::KeyVars*>{&e.circuit.key_vars});

  Rng rng(GetParam() * 77 + 5);
  for (int t = 0; t < 24; ++t) {
    std::vector<bool> in(oracle.num_inputs());
    for (auto&& bit : in) bit = rng.chance(0.5);
    enc.add_io_pair(in, oracle.query(in), /*units_only=*/(t % 2) == 0);
  }

  // Assume the planted key on every key variable: must be satisfiable.
  std::vector<sat::Lit> planted;
  for (const auto& [name, vars] : e.circuit.key_vars) {
    const std::uint64_t mask = nl.cell(nl.find(name)).lut_mask;
    for (std::size_t row = 0; row < vars.size(); ++row) {
      planted.push_back((mask >> row) & 1ull ? sat::pos(vars[row])
                                             : sat::neg(vars[row]));
    }
  }
  EXPECT_EQ(e.solver.solve(planted), sat::Result::kSat);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DipEncodeConsistency, ::testing::Range(1, 9));

}  // namespace
}  // namespace stt
