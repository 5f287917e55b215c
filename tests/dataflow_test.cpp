// The attacker-view dataflow passes (verify/dataflow): their behavior on
// hand-built netlists, the attacker-view ternary wave the analyses start
// from (PartialEvaluator with zero LUT knowledge), and the refinement the
// support pass promises — every ternary fact it does not cut is provable
// there — pinned on real locked benchmarks.
#include <gtest/gtest.h>

#include "defense/registry.hpp"
#include "sim/partial_eval.hpp"
#include "synth/generator.hpp"
#include "tech/tech_library.hpp"
#include "verify/dataflow.hpp"

namespace stt {
namespace {

Netlist locked_netlist(const std::string& bench, const std::string& kind) {
  const auto profile = find_profile(bench);
  EXPECT_TRUE(profile.has_value());
  const Netlist original = generate_circuit(*profile, 7);
  const TechLibrary lib = TechLibrary::cmos90_stt();
  defense::DefenseOptions opt;
  opt.seed = 7;
  return defense::registry().apply(kind, original, lib, opt, {}).locked;
}

// The attacker-view ternary wave: every PI, state bit and LUT output X.
std::vector<Tri> attacker_wave(const Netlist& nl) {
  const LutKnowledgeMap luts = unknown_luts(nl);
  return PartialEvaluator(nl, luts).eval(
      std::vector<Tri>(nl.inputs().size() + nl.dffs().size(), Tri::kX));
}

// -- forward ternary --------------------------------------------------------

TEST(TernaryDataflow, ConstantsPropagateAndLutOutputsAreUnknown) {
  Netlist nl("tern");
  const CellId a = nl.add_input("a");
  const CellId c0 = nl.add_gate(CellKind::kConst0, "c0", {});
  const CellId y = nl.add_gate(CellKind::kAnd, "y", {a, c0});
  const CellId l = nl.add_lut("l", {a}, 0x2);  // BUF mask — secret to the pass
  const CellId z = nl.add_gate(CellKind::kOr, "z", {l, c0});
  nl.mark_output(y);
  nl.mark_output(z);

  const std::vector<Tri> v = attacker_wave(nl);
  EXPECT_EQ(v[a], Tri::kX);      // primary input
  EXPECT_EQ(v[c0], Tri::kZero);  // constant source
  EXPECT_EQ(v[y], Tri::kZero);   // AND with a controlling 0
  EXPECT_EQ(v[l], Tri::kX);      // LUT mask is secret (attacker view)
  EXPECT_EQ(v[z], Tri::kX);      // OR(X, 0) = X
}

TEST(TernaryDataflow, ForceProbePinsOneCell) {
  Netlist nl("force");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId y = nl.add_gate(CellKind::kAnd, "y", {a, b});
  nl.mark_output(y);

  const LutKnowledgeMap luts = unknown_luts(nl);
  const PartialEvaluator evaluator(nl, luts);
  ForceProbe probe(evaluator);
  probe.rebase(attacker_wave(nl));
  probe.force(a);
  EXPECT_EQ(probe.value(0, a), Tri::kZero);
  EXPECT_EQ(probe.value(0, y), Tri::kZero);  // 0 controls the AND regardless of b
  EXPECT_EQ(probe.value(1, y), Tri::kX);     // AND(1, X) = X
}

TEST(TernaryDataflow, DffOutputsAreUnknownSources) {
  Netlist nl("seq");
  const CellId a = nl.add_input("a");
  const CellId c1 = nl.add_gate(CellKind::kConst1, "c1", {});
  const CellId ff = nl.add_dff("ff", c1);  // driven by a constant...
  const CellId y = nl.add_gate(CellKind::kAnd, "y", {a, ff});
  nl.mark_output(y);

  const std::vector<Tri> v = attacker_wave(nl);
  // ...but the state bit is still a source: the forward edge is cut at the
  // D pin, so the initial-state-unknown semantics hold.
  EXPECT_EQ(v[ff], Tri::kX);
  EXPECT_EQ(v[y], Tri::kX);
}

// -- backward observability -------------------------------------------------

TEST(ObservabilityDataflow, DeadConesAreUnobservable) {
  Netlist nl("obs");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId g1 = nl.add_gate(CellKind::kAnd, "g1", {a, b});
  const CellId g2 = nl.add_gate(CellKind::kOr, "g2", {a, b});  // dangles
  const CellId g3 = nl.add_gate(CellKind::kNot, "g3", {b});
  const CellId ff = nl.add_dff("ff", g3);  // D pin is an observation point
  nl.mark_output(g1);

  const std::vector<char> v = observable_cells(nl);
  EXPECT_EQ(v[g1], 1);  // primary output
  EXPECT_EQ(v[g2], 0);  // no path to any observation point
  EXPECT_EQ(v[g3], 1);  // feeds a DFF D pin
  EXPECT_EQ(v[a], 1);   // reaches g1
  EXPECT_EQ(v[ff], 0);  // the state bit itself drives nothing
}

// -- support functions ------------------------------------------------------

TEST(SupportDataflow, RedundantMuxDropsItsSelect) {
  // y = OR(AND(s, a), AND(NOT s, a)) == a: the select is functionally
  // vacuous. Ternary says X for everything; the support pass proves the
  // collapse — the strict refinement it promises over the ternary wave.
  Netlist nl("mux");
  const CellId s = nl.add_input("s");
  const CellId a = nl.add_input("a");
  const CellId n = nl.add_gate(CellKind::kNot, "n", {s});
  const CellId t1 = nl.add_gate(CellKind::kAnd, "t1", {s, a});
  const CellId t2 = nl.add_gate(CellKind::kAnd, "t2", {n, a});
  const CellId y = nl.add_gate(CellKind::kOr, "y", {t1, t2});
  nl.mark_output(y);

  SupportCuts cuts;
  const std::vector<SupportFunction> v = support_functions(nl, cuts);

  EXPECT_EQ(attacker_wave(nl)[y], Tri::kX);  // the coarse layer cannot see it

  ASSERT_EQ(v[y].vars.size(), 1u);
  EXPECT_EQ(v[y].vars[0], a);
  EXPECT_TRUE(v[y].depends_on(a));
  EXPECT_FALSE(v[y].depends_on(s));
  EXPECT_EQ(v[y].mask, 0x2u);  // identity in a
}

// -- refinement conformance on locked benchmarks ----------------------------

TEST(DataflowConformance, SupportRefinesTernaryOnLockedBenches) {
  for (const char* kind : {"xor", "const", "latch"}) {
    const Netlist nl = locked_netlist("s820", kind);
    const std::vector<Tri> t = attacker_wave(nl);

    SupportCuts cuts;
    const std::vector<SupportFunction> v = support_functions(nl, cuts);

    for (CellId id = 0; id < nl.size(); ++id) {
      if (t[id] == Tri::kX || cuts.cut[id]) continue;
      // Every ternary-definite cell the support pass did not cut must be
      // the same constant function.
      ASSERT_TRUE(v[id].is_constant())
          << kind << ": support lost a ternary fact at " << nl.cell(id).name;
      EXPECT_EQ(v[id].constant_value(), t[id] == Tri::kOne);
    }
  }
}

}  // namespace
}  // namespace stt
