#include <gtest/gtest.h>

#include "attack/encode.hpp"
#include "attack/ml_attack.hpp"
#include "core/packing.hpp"
#include "core/selection.hpp"
#include "synth/generator.hpp"

namespace stt {
namespace {

TEST(MlAttack, TrivialWithoutLuts) {
  const Netlist nl = embedded_netlist("s27");
  ScanOracle oracle(nl);
  const auto result = run_ml_attack(nl, oracle);
  EXPECT_TRUE(result.success());
  EXPECT_EQ(result.steps, 0);
}

TEST(MlAttack, RecoversSmallIndependentLock) {
  const Netlist original = embedded_netlist("s27");
  Netlist hybrid = original;
  hybrid.replace_with_lut(hybrid.find("G9"));
  hybrid.replace_with_lut(hybrid.find("G12"));
  ScanOracle oracle(original);
  MlAttackOptions opt;
  opt.seed = 1;
  const auto result = run_ml_attack(foundry_view(hybrid), oracle, opt);
  ASSERT_TRUE(result.success());
  Netlist recovered = foundry_view(hybrid);
  apply_key(recovered, result.key);
  EXPECT_TRUE(comb_equivalent(recovered, original));
}

TEST(MlAttack, AccuracyIsMeaningful) {
  const CircuitProfile profile{"ml", 8, 8, 5, 100, 7};
  const Netlist original = generate_circuit(profile, 3);
  Netlist hybrid = original;
  const TechLibrary lib = TechLibrary::cmos90_stt();
  GateSelector selector(lib);
  SelectionOptions sopt;
  sopt.seed = 3;
  sopt.indep_count = 4;
  (void)selector.run(hybrid, SelectionAlgorithm::kIndependent, sopt);
  ScanOracle oracle(original);
  MlAttackOptions opt;
  opt.seed = 4;
  const auto result = run_ml_attack(foundry_view(hybrid), oracle, opt);
  EXPECT_GT(result.final_accuracy, 0.5);
  EXPECT_LE(result.final_accuracy, 1.0);
  EXPECT_GT(result.queries, 0u);
}

TEST(MlAttack, PackingDefeatsStandardCandidateSearch) {
  // After complex-function packing the planted functions are no longer
  // standard gates, so the candidate-restricted ML attack cannot reach a
  // perfect score — the paper's Section IV-A.3 countermeasure, executable.
  const CircuitProfile profile{"mlpack", 8, 8, 5, 100, 7};
  const Netlist original = generate_circuit(profile, 7);
  Netlist hybrid = original;
  const TechLibrary lib = TechLibrary::cmos90_stt();
  GateSelector selector(lib);
  SelectionOptions sopt;
  sopt.seed = 7;
  sopt.indep_count = 4;
  (void)selector.run(hybrid, SelectionAlgorithm::kIndependent, sopt);
  PackingOptions popt;
  popt.seed = 7;
  const auto packed = pack_complex_functions(hybrid, popt);
  const Netlist compact = strip_dead_logic(hybrid);
  if (packed.absorbed_gates == 0) GTEST_SKIP() << "nothing absorbed";

  // `compact` is the configured chip after packing (== original function).
  ScanOracle oracle_a(compact);
  MlAttackOptions restricted;
  restricted.seed = 9;
  restricted.standard_candidates_only = true;
  restricted.work_budget = 4000;
  const auto narrow =
      run_ml_attack(foundry_view(compact), oracle_a, restricted);
  EXPECT_FALSE(narrow.success());

  // The unrestricted bit-flip search at least matches the restricted one.
  ScanOracle oracle_b(compact);
  MlAttackOptions wide = restricted;
  wide.standard_candidates_only = false;
  wide.work_budget = 4000;
  const auto broad = run_ml_attack(foundry_view(compact), oracle_b, wide);
  EXPECT_GE(broad.final_accuracy, narrow.final_accuracy - 0.05);
}

TEST(MlAttack, DeterministicPerSeed) {
  const Netlist original = embedded_netlist("s27");
  Netlist hybrid = original;
  hybrid.replace_with_lut(hybrid.find("G15"));
  ScanOracle o1(original);
  ScanOracle o2(original);
  MlAttackOptions opt;
  opt.seed = 42;
  const auto r1 = run_ml_attack(foundry_view(hybrid), o1, opt);
  const auto r2 = run_ml_attack(foundry_view(hybrid), o2, opt);
  EXPECT_EQ(r1.steps, r2.steps);
  EXPECT_EQ(r1.key, r2.key);
  EXPECT_DOUBLE_EQ(r1.final_accuracy, r2.final_accuracy);
}

}  // namespace
}  // namespace stt
