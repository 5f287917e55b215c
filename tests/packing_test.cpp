#include <gtest/gtest.h>

#include "attack/encode.hpp"
#include "core/packing.hpp"
#include "core/selection.hpp"
#include "synth/generator.hpp"
#include "timing/sta.hpp"

namespace stt {
namespace {

TEST(ComposeMasks, AndOfOrIsAoi) {
  // outer = AND2(x, inner), inner = OR2(a, b), slot 1:
  // result(x, a, b) = x & (a | b).
  const std::uint64_t outer = gate_truth_mask(CellKind::kAnd, 2);
  const std::uint64_t inner = gate_truth_mask(CellKind::kOr, 2);
  const std::uint64_t mask = compose_masks(outer, 2, 1, inner, 2);
  for (std::uint32_t row = 0; row < 8; ++row) {
    const bool x = row & 1, a = row & 2, b = row & 4;
    EXPECT_EQ(((mask >> row) & 1ull) != 0, x && (a || b)) << row;
  }
}

TEST(ComposeMasks, SlotZeroOrdering) {
  // outer = XOR2(inner, y), inner = NOT(a): result(y, a) = !a ^ y.
  const std::uint64_t outer = gate_truth_mask(CellKind::kXor, 2);
  const std::uint64_t inner = gate_truth_mask(CellKind::kNot, 1);
  const std::uint64_t mask = compose_masks(outer, 2, 0, inner, 1);
  for (std::uint32_t row = 0; row < 4; ++row) {
    const bool y = row & 1, a = row & 2;
    EXPECT_EQ(((mask >> row) & 1ull) != 0, (!a) != y) << row;
  }
}

TEST(ComposeMasks, Validation) {
  EXPECT_THROW(compose_masks(0b1000, 2, 2, 0b10, 1), std::invalid_argument);
  EXPECT_THROW(compose_masks(0b1000, 2, -1, 0b10, 1), std::invalid_argument);
  // 4-input outer with 4-input inner -> 7 inputs: too wide.
  EXPECT_THROW(compose_masks(0xFFFF, 4, 0, 0xFFFF, 4), std::invalid_argument);
}

// Build: d = OR( AND(a,b), c ); the AND has a single fan-out.
Netlist aoi_circuit() {
  Netlist nl("aoi");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId c = nl.add_input("c");
  const CellId g = nl.add_gate(CellKind::kAnd, "g", {a, b});
  const CellId d = nl.add_gate(CellKind::kOr, "d", {g, c});
  nl.mark_output(d);
  nl.finalize();
  return nl;
}

TEST(Packing, AbsorbsSingleFanoutDriver) {
  Netlist nl = aoi_circuit();
  nl.replace_with_lut(nl.find("d"));
  PackingOptions opt;
  opt.dummies_per_lut = 0;
  const auto result = pack_complex_functions(nl, opt);
  EXPECT_EQ(result.absorbed_gates, 1);
  // The LUT now computes (a & b) | c over three inputs — the paper's
  // complex-function example shape.
  const Cell& d = nl.cell(nl.find("d"));
  EXPECT_EQ(d.kind, CellKind::kLut);
  EXPECT_EQ(d.fanin_count(), 3);
  // The absorbed gate is dead and stripped by compaction.
  const Netlist compact = strip_dead_logic(nl);
  EXPECT_EQ(compact.find("g"), kNullCell);
  EXPECT_EQ(compact.stats().gates, 1u);
}

TEST(Packing, PreservesFunctionality) {
  Netlist original = aoi_circuit();
  Netlist hybrid = original;
  hybrid.replace_with_lut(hybrid.find("d"));
  (void)pack_complex_functions(hybrid);
  EXPECT_TRUE(comb_equivalent(original, strip_dead_logic(hybrid)));
}

TEST(Packing, DoesNotAbsorbMultiFanoutDrivers) {
  // g drives both the LUT and a second gate: absorption must keep g.
  Netlist nl("multi");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId g = nl.add_gate(CellKind::kAnd, "g", {a, b});
  const CellId d = nl.add_gate(CellKind::kOr, "d", {g, a});
  const CellId e = nl.add_gate(CellKind::kXor, "e", {g, b});
  nl.mark_output(d);
  nl.mark_output(e);
  nl.finalize();
  nl.replace_with_lut(d);
  PackingOptions opt;
  opt.dummies_per_lut = 0;
  const auto result = pack_complex_functions(nl, opt);
  EXPECT_EQ(result.absorbed_gates, 0);
}

TEST(Packing, DummyInputIsIgnoredByTheFunction) {
  Netlist original = aoi_circuit();
  Netlist hybrid = original;
  hybrid.replace_with_lut(hybrid.find("d"));
  PackingOptions opt;
  opt.absorb_rounds = 0;
  opt.dummies_per_lut = 2;
  const auto result = pack_complex_functions(hybrid, opt);
  EXPECT_GT(result.dummies_added, 0);
  EXPECT_GT(hybrid.cell(hybrid.find("d")).fanin_count(), 2);
  hybrid.check();
  // Still exactly the original function.
  EXPECT_TRUE(comb_equivalent(original, hybrid));
}

TEST(Packing, DummyNeverCreatesCombinationalCycle) {
  for (int seed = 1; seed <= 6; ++seed) {
    CircuitProfile profile{"cyc", 6, 5, 4, 80, 7};
    Netlist nl = generate_circuit(profile, seed);
    const TechLibrary lib = TechLibrary::cmos90_stt();
    GateSelector selector(lib);
    SelectionOptions sopt;
    sopt.seed = seed;
    (void)selector.run(nl, SelectionAlgorithm::kIndependent, sopt);
    PackingOptions popt;
    popt.seed = seed;
    popt.dummies_per_lut = 3;
    (void)pack_complex_functions(nl, popt);
    EXPECT_NO_THROW(nl.check()) << "seed " << seed;  // includes cycle check
  }
}

// Property: the full pipeline — select, pack, strip — preserves the scan
// view on generated circuits, for every algorithm.
class PackedFlowEquivalence
    : public ::testing::TestWithParam<std::tuple<SelectionAlgorithm, int>> {};

TEST_P(PackedFlowEquivalence, SatProven) {
  const auto [alg, seed] = GetParam();
  CircuitProfile profile{"pk", 8, 6, 6, 120, 8};
  const Netlist original = generate_circuit(profile, seed);
  Netlist hybrid = original;
  const TechLibrary lib = TechLibrary::cmos90_stt();
  GateSelector selector(lib);
  SelectionOptions sopt;
  sopt.seed = seed;
  (void)selector.run(hybrid, alg, sopt);
  if (hybrid.stats().luts == 0) GTEST_SKIP();

  PackingOptions popt;
  popt.seed = seed * 31;
  const auto packed = pack_complex_functions(hybrid, popt);
  (void)packed;
  const Netlist compact = strip_dead_logic(hybrid);
  compact.check();
  EXPECT_TRUE(comb_equivalent(original, compact))
      << algorithm_name(alg) << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsAndSeeds, PackedFlowEquivalence,
    ::testing::Combine(::testing::Values(SelectionAlgorithm::kIndependent,
                                         SelectionAlgorithm::kDependent,
                                         SelectionAlgorithm::kParametric),
                       ::testing::Range(1, 5)));

TEST(Packing, WidensTheCandidateSpace) {
  // After absorption + dummies, a 2-input LUT becomes 3+ inputs: the
  // attacker's per-LUT candidate space grows from 6 standard gates to the
  // full function space of the wider fan-in.
  Netlist nl = aoi_circuit();
  nl.replace_with_lut(nl.find("d"));
  const int before = nl.cell(nl.find("d")).fanin_count();
  (void)pack_complex_functions(nl);
  const int after = nl.cell(nl.find("d")).fanin_count();
  EXPECT_GT(after, before);
}

TEST(Packing, TimingGuardHoldsTheBudget) {
  const TechLibrary lib = TechLibrary::cmos90_stt();
  const Sta sta(lib);
  const CircuitProfile profile{"guard", 10, 8, 8, 250, 10};
  for (int seed = 1; seed <= 4; ++seed) {
    Netlist nl = generate_circuit(profile, seed);
    const double t0 = sta.analyze(nl).critical_delay_ps;
    GateSelector selector(lib);
    SelectionOptions sopt;
    sopt.seed = seed;
    (void)selector.run(nl, SelectionAlgorithm::kParametric, sopt);
    const double budget = t0 * 1.05;

    PackingOptions popt;
    popt.seed = seed;
    popt.lib = &lib;
    popt.max_delay_ps = budget;
    (void)pack_complex_functions(nl, popt);
    EXPECT_LE(sta.analyze(nl).critical_delay_ps, budget + 1e-6)
        << "seed " << seed;
  }
}

TEST(StripDeadLogic, RemovesUnreadCells) {
  Netlist nl("dead");
  const CellId a = nl.add_input("a");
  const CellId g = nl.add_gate(CellKind::kNot, "g", {a});
  const CellId dead1 = nl.add_gate(CellKind::kBuf, "dead1", {g});
  const CellId dead2 = nl.add_gate(CellKind::kNot, "dead2", {dead1});
  (void)dead2;
  nl.mark_output(g);
  nl.finalize();
  const Netlist out = strip_dead_logic(nl);
  EXPECT_EQ(out.find("dead1"), kNullCell);
  EXPECT_EQ(out.find("dead2"), kNullCell);
  EXPECT_NE(out.find("g"), kNullCell);
  EXPECT_EQ(out.inputs().size(), 1u);  // interface preserved
}

TEST(StripDeadLogic, KeepsSequentialLoops) {
  const Netlist nl = embedded_netlist("s27");
  const Netlist out = strip_dead_logic(nl);
  EXPECT_EQ(out.stats().gates, nl.stats().gates);
  EXPECT_EQ(out.dffs().size(), nl.dffs().size());
  EXPECT_TRUE(comb_equivalent(nl, out));
}

}  // namespace
}  // namespace stt
