#include <gtest/gtest.h>

#include "attack/encode.hpp"
#include "attack/guided_sens.hpp"
#include "attack/sensitization.hpp"
#include "core/selection.hpp"
#include "synth/generator.hpp"

namespace stt {
namespace {

TEST(GuidedSens, TrivialWithoutLuts) {
  const Netlist nl = embedded_netlist("s27");
  ScanOracle oracle(nl);
  const auto result = run_guided_sensitization(nl, oracle);
  EXPECT_TRUE(result.success());
  EXPECT_EQ(result.queries, 0u);
}

TEST(GuidedSens, ResolvesIsolatedLutExactly) {
  Netlist nl;
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId g = nl.add_gate(CellKind::kNor, "g", {a, b});
  nl.mark_output(g);
  nl.finalize();
  Netlist hybrid = nl;
  hybrid.replace_with_lut(g);

  ScanOracle oracle(nl);
  const auto result = run_guided_sensitization(hybrid, oracle);
  ASSERT_TRUE(result.success());
  EXPECT_EQ(result.key.at("g"), gate_truth_mask(CellKind::kNor, 2));
  // Directed patterns: exactly one oracle query per truth-table row.
  EXPECT_EQ(result.queries, 4u);
}

TEST(GuidedSens, FarFewerPatternsThanRandomSensitization) {
  const CircuitProfile profile{"gs", 10, 8, 6, 150, 8};
  const Netlist original = generate_circuit(profile, 3);
  Netlist hybrid = original;
  const TechLibrary lib = TechLibrary::cmos90_stt();
  GateSelector selector(lib);
  SelectionOptions sopt;
  sopt.seed = 3;
  sopt.indep_count = 4;
  (void)selector.run(hybrid, SelectionAlgorithm::kIndependent, sopt);

  ScanOracle o1(original);
  const auto guided = run_guided_sensitization(hybrid, o1);

  ScanOracle o2(original);
  SensitizationOptions ropt;
  ropt.query_budget = 20000;
  const auto random = run_sensitization_attack(hybrid, o2, ropt);

  EXPECT_GE(guided.rows_resolved, random.rows_resolved);
  if (guided.rows_resolved > 0 && random.rows_resolved > 0) {
    EXPECT_LT(guided.queries, random.queries);
  }
  // Every resolved row costs exactly one query in the guided attack.
  EXPECT_EQ(guided.queries,
            static_cast<std::uint64_t>(guided.rows_resolved));
}

TEST(GuidedSens, RecoveredKeyIsFunctionallyCorrect) {
  // Rows the SAT query proves unreachable are functional don't-cares
  // (whenever the row is justified, the LUT output provably influences no
  // observable), so as long as every row is either resolved or proven
  // unreachable, the recovered key is scan-view equivalent.
  int verified = 0;
  for (const int seed : {5, 6, 7, 8}) {
    const CircuitProfile profile{"gs2", 8, 8, 5, 100, 7};
    const Netlist original = generate_circuit(profile, seed);
    Netlist hybrid = original;
    const TechLibrary lib = TechLibrary::cmos90_stt();
    GateSelector selector(lib);
    SelectionOptions sopt;
    sopt.seed = seed;
    sopt.indep_count = 3;
    (void)selector.run(hybrid, SelectionAlgorithm::kIndependent, sopt);

    ScanOracle oracle(original);
    const auto result = run_guided_sensitization(hybrid, oracle);
    if (result.rows_resolved + result.rows_proven_unreachable !=
        result.rows_total) {
      continue;  // postponed rows (chained LUTs): no completeness claim
    }
    Netlist recovered = foundry_view(hybrid);
    apply_key(recovered, result.key);
    EXPECT_TRUE(comb_equivalent(recovered, original)) << "seed " << seed;
    ++verified;
  }
  EXPECT_GT(verified, 0);
}

TEST(GuidedSens, DependentChainIsProvenUnreachable) {
  // LUT -> LUT chain on the only output: the second LUT's rows cannot be
  // justified (driver unknown), and the first LUT's output cannot be
  // propagated around the second — the SAT query must prove it.
  Netlist nl;
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId c = nl.add_input("c");
  const CellId g1 = nl.add_gate(CellKind::kNand, "g1", {a, b});
  const CellId g2 = nl.add_gate(CellKind::kNor, "g2", {g1, c});
  nl.mark_output(g2);
  nl.finalize();
  Netlist hybrid = nl;
  hybrid.replace_with_lut(g1);
  hybrid.replace_with_lut(g2);

  ScanOracle oracle(nl);
  const auto result = run_guided_sensitization(hybrid, oracle);
  EXPECT_FALSE(result.success());
  EXPECT_EQ(result.rows_resolved, 0);
  EXPECT_EQ(result.luts_resolved, 0);
  // g1's rows were attempted and formally proven unreachable.
  EXPECT_GT(result.rows_proven_unreachable, 0);
  EXPECT_EQ(result.queries, 0u);
}

TEST(GuidedSens, ResolvesChainWhenSideObservationExists) {
  // Like the chain, but g1 also drives an extra observable: the guided
  // attack resolves g1 through the side exit, then g2 becomes justifiable.
  Netlist nl;
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId c = nl.add_input("c");
  const CellId g1 = nl.add_gate(CellKind::kNand, "g1", {a, b});
  const CellId g2 = nl.add_gate(CellKind::kNor, "g2", {g1, c});
  const CellId side = nl.add_gate(CellKind::kXor, "side", {g1, c});
  nl.mark_output(g2);
  nl.mark_output(side);
  nl.finalize();
  Netlist hybrid = nl;
  hybrid.replace_with_lut(g1);
  hybrid.replace_with_lut(g2);

  ScanOracle oracle(nl);
  const auto result = run_guided_sensitization(hybrid, oracle);
  ASSERT_TRUE(result.success());
  EXPECT_EQ(result.key.at("g1"), gate_truth_mask(CellKind::kNand, 2));
  EXPECT_EQ(result.key.at("g2"), gate_truth_mask(CellKind::kNor, 2));
  Netlist recovered = foundry_view(hybrid);
  apply_key(recovered, result.key);
  EXPECT_TRUE(comb_equivalent(recovered, nl));
}

}  // namespace
}  // namespace stt
