// Reproducibility guards: every published number must be a pure function of
// its seed. These tests re-run representative experiment pipelines twice
// and demand bit-identical results, which is what lets EXPERIMENTS.md claim
// its tables are reproducible.
#include <gtest/gtest.h>

#include "core/flow.hpp"
#include "power/trace.hpp"
#include "synth/generator.hpp"

namespace stt {
namespace {

TEST(Reproducibility, FullFlowRowIsDeterministic) {
  const TechLibrary lib = TechLibrary::cmos90_stt();
  const auto run = [&](SelectionAlgorithm alg) {
    const Netlist original = generate_circuit(*find_profile("s953"), 20160605);
    FlowOptions opt;
    opt.algorithm = alg;
    opt.selection.seed = 20160605 + static_cast<int>(alg);
    return run_secure_flow(original, lib, opt);
  };
  for (const auto alg :
       {SelectionAlgorithm::kIndependent, SelectionAlgorithm::kDependent,
        SelectionAlgorithm::kParametric}) {
    const FlowResult a = run(alg);
    const FlowResult b = run(alg);
    EXPECT_TRUE(a.hybrid.structurally_equal(b.hybrid));
    EXPECT_EQ(a.selection.key, b.selection.key);
    EXPECT_DOUBLE_EQ(a.overhead.hybrid_delay_ps, b.overhead.hybrid_delay_ps);
    EXPECT_DOUBLE_EQ(a.overhead.hybrid_power_uw, b.overhead.hybrid_power_uw);
    EXPECT_DOUBLE_EQ(a.overhead.hybrid_area_um2, b.overhead.hybrid_area_um2);
    EXPECT_EQ(a.security.n_bf, b.security.n_bf);
    EXPECT_EQ(a.security.accessible_inputs, b.security.accessible_inputs);
  }
}

TEST(Reproducibility, GeneratorIsSeedPure) {
  // The same profile under two *different* seeds must differ, and the same
  // seed must agree across separately-constructed profile objects.
  const CircuitProfile p1 = *find_profile("s820");
  const CircuitProfile p2 = *find_profile("s820");
  EXPECT_TRUE(generate_circuit(p1, 7).structurally_equal(
      generate_circuit(p2, 7)));
  EXPECT_FALSE(generate_circuit(p1, 7).structurally_equal(
      generate_circuit(p1, 8)));
}

TEST(Reproducibility, StochasticAnalysesAreSeedPure) {
  const TechLibrary lib = TechLibrary::cmos90_stt();
  const Netlist nl = generate_circuit(*find_profile("s820"), 5);
  TraceOptions topt;
  topt.cycles = 64;
  topt.noise_sigma_fj = 3.0;
  EXPECT_EQ(simulate_power_trace(nl, lib, topt).trace_fj,
            simulate_power_trace(nl, lib, topt).trace_fj);
}

}  // namespace
}  // namespace stt
