#include <gtest/gtest.h>

#include "core/selection.hpp"
#include "sim/scoap.hpp"
#include "synth/generator.hpp"

namespace stt {
namespace {

TEST(Scoap, PrimaryInputsCostOne) {
  Netlist nl;
  const CellId a = nl.add_input("a");
  const CellId g = nl.add_gate(CellKind::kNot, "g", {a});
  nl.mark_output(g);
  nl.finalize();
  const auto r = compute_scoap(nl);
  EXPECT_DOUBLE_EQ(r.cc0[a], 1.0);
  EXPECT_DOUBLE_EQ(r.cc1[a], 1.0);
  // NOT: CC0(g) = CC1(a)+1 = 2; CC1(g) = CC0(a)+1 = 2.
  EXPECT_DOUBLE_EQ(r.cc0[g], 2.0);
  EXPECT_DOUBLE_EQ(r.cc1[g], 2.0);
  EXPECT_DOUBLE_EQ(r.co[g], 0.0);   // drives a PO
  EXPECT_DOUBLE_EQ(r.co[a], 1.0);   // through the inverter
}

TEST(Scoap, AndGateTextbookValues) {
  Netlist nl;
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId g = nl.add_gate(CellKind::kAnd, "g", {a, b});
  nl.mark_output(g);
  nl.finalize();
  const auto r = compute_scoap(nl);
  // CC1(AND) = CC1(a)+CC1(b)+1 = 3; CC0(AND) = min(CC0(a),CC0(b))+1 = 2.
  EXPECT_DOUBLE_EQ(r.cc1[g], 3.0);
  EXPECT_DOUBLE_EQ(r.cc0[g], 2.0);
  // CO(a) = CO(g) + CC1(b) + 1 = 2.
  EXPECT_DOUBLE_EQ(r.co[a], 2.0);
}

TEST(Scoap, ConstantsAreOneSided) {
  Netlist nl;
  const CellId zero = nl.add_const(false, "zero");
  const CellId a = nl.add_input("a");
  const CellId g = nl.add_gate(CellKind::kOr, "g", {zero, a});
  nl.mark_output(g);
  nl.finalize();
  const auto r = compute_scoap(nl);
  EXPECT_DOUBLE_EQ(r.cc0[zero], 0.0);
  EXPECT_GT(r.cc1[zero], 1e12);  // cannot set a tied-low net to 1
}

TEST(Scoap, FlipFlopAddsSequentialIncrement) {
  Netlist nl;
  const CellId a = nl.add_input("a");
  const CellId ff = nl.add_dff("ff", a);
  const CellId g = nl.add_gate(CellKind::kNot, "g", {ff});
  nl.mark_output(g);
  nl.finalize();
  ScoapOptions opt;
  opt.sequential_increment = 7.0;
  const auto r = compute_scoap(nl, opt);
  EXPECT_DOUBLE_EQ(r.cc0[ff], 1.0 + 7.0);
  EXPECT_DOUBLE_EQ(r.co[a], 0.0 + 1.0 + 7.0);  // through ff then inverter
}

TEST(Scoap, SequentialLoopConverges) {
  const Netlist nl = embedded_netlist("s27");
  const auto r = compute_scoap(nl);
  for (const CellId id : nl.topo_order()) {
    EXPECT_GE(r.cc0[id], 0.0);
    EXPECT_GE(r.cc1[id], 0.0);
    // Every cell in s27 is controllable both ways and observable.
    EXPECT_LT(r.cc0[id], 1e6) << nl.cell(id).name;
    EXPECT_LT(r.cc1[id], 1e6) << nl.cell(id).name;
    EXPECT_LT(r.co[id], 1e6) << nl.cell(id).name;
  }
}

TEST(Scoap, DeterministicAndIdempotent) {
  const Netlist nl = generate_circuit({"sc", 8, 6, 6, 120, 8}, 3);
  const auto r1 = compute_scoap(nl);
  const auto r2 = compute_scoap(nl);
  EXPECT_EQ(r1.cc0, r2.cc0);
  EXPECT_EQ(r1.cc1, r2.cc1);
  EXPECT_EQ(r1.co, r2.co);
}

TEST(Scoap, AttackerViewPenalizesLutNeighbourhood) {
  // Lock a middle gate; in the attacker view the cells behind it become
  // expensive to control and the cells before it expensive to observe.
  Netlist nl("chain");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId g1 = nl.add_gate(CellKind::kAnd, "g1", {a, b});
  const CellId g2 = nl.add_gate(CellKind::kOr, "g2", {g1, b});
  const CellId g3 = nl.add_gate(CellKind::kXor, "g3", {g2, a});
  nl.mark_output(g3);
  nl.finalize();
  Netlist hybrid = nl;
  hybrid.replace_with_lut(g2);

  ScoapOptions attacker;
  attacker.attacker_view = true;
  const auto before = compute_scoap(nl, attacker);
  const auto after = compute_scoap(hybrid, attacker);
  EXPECT_GT(after.cc1[g2], before.cc1[g2]);  // output uncontrollable
  EXPECT_GT(after.co[g1], before.co[g1]);    // upstream unobservable
  // Designer view is unaffected by LUT-ness (configured function known).
  const auto designer = compute_scoap(hybrid);
  EXPECT_DOUBLE_EQ(designer.cc1[g2], compute_scoap(nl).cc1[g2]);
}

TEST(Scoap, ResolvabilityRanksLockedRegionsHarder) {
  const CircuitProfile profile{"res", 10, 8, 8, 200, 9};
  const Netlist original = generate_circuit(profile, 5);
  Netlist hybrid = original;
  const TechLibrary lib = TechLibrary::cmos90_stt();
  GateSelector selector(lib);
  SelectionOptions sopt;
  sopt.seed = 5;
  const auto sel = selector.run(hybrid, SelectionAlgorithm::kDependent, sopt);
  ASSERT_GT(sel.replaced.size(), 1u);

  ScoapOptions attacker;
  attacker.attacker_view = true;
  const auto r = compute_scoap(hybrid, attacker);
  // At least one missing gate must be (near-)unresolvable for the testing
  // adversary: dependent LUTs gate each other's justification/propagation.
  double worst = 0;
  for (const CellId id : sel.replaced) {
    worst = std::max(worst, r.resolvability(hybrid, id));
  }
  EXPECT_GT(worst, attacker.unknown_lut_cost / 2);
}

}  // namespace
}  // namespace stt
