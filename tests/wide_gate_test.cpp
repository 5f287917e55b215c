#include <gtest/gtest.h>

#include "attack/encode.hpp"
#include "core/selection.hpp"
#include "io/bench_io.hpp"
#include "io/blif_io.hpp"
#include "io/verilog_reader.hpp"
#include "io/verilog_writer.hpp"
#include "power/power.hpp"
#include "sim/compiled.hpp"
#include "sim/partial_eval.hpp"
#include "sim/scoap.hpp"
#include "timing/sta.hpp"

namespace stt {
namespace {

// Externally synthesized netlists contain gates wider than the LUT-mask
// cap; the whole stack except LUT replacement must handle them.
Netlist wide_circuit() {
  std::string text = "OUTPUT(y)\nOUTPUT(z)\n";
  std::string and_args, or_args;
  for (int i = 0; i < 9; ++i) {
    text += "INPUT(i" + std::to_string(i) + ")\n";
    and_args += (i ? ", i" : "i") + std::to_string(i);
    or_args += (i ? ", i" : "i") + std::to_string(i);
  }
  text += "y = AND(" + and_args + ")\n";
  text += "z = NOR(" + or_args + ")\n";
  return read_bench(text, "wide");
}

TEST(WideGates, ParseAndValidate) {
  const Netlist nl = wide_circuit();
  EXPECT_EQ(nl.cell(nl.find("y")).fanin_count(), 9);
  EXPECT_NO_THROW(nl.check());
  EXPECT_EQ(nl.stats().max_fanin, 9);
}

TEST(WideGates, FaninBeyondGateCapRejected) {
  std::string text = "OUTPUT(y)\n";
  std::string args;
  for (int i = 0; i < kMaxGateInputs + 1; ++i) {
    text += "INPUT(i" + std::to_string(i) + ")\n";
    args += (i ? ", i" : "i") + std::to_string(i);
  }
  text += "y = AND(" + args + ")\n";
  EXPECT_THROW(read_bench(text), std::runtime_error);
}

TEST(WideGates, SimulationIsExact) {
  const Netlist nl = wide_circuit();
  const CompiledSim sim(nl);
  // Lane 0: all inputs 1. Lane 1: all 1 but i4. Lane 2: all inputs 0.
  std::vector<std::uint64_t> in(9, 0b011);
  in[4] = 0b001;
  std::vector<std::uint64_t> wave(sim.wave_size());
  sim.eval_word(in, {}, wave);
  const std::uint64_t y = wave[nl.outputs()[0]];  // AND
  const std::uint64_t z = wave[nl.outputs()[1]];  // NOR
  EXPECT_EQ(y & 0b111, 0b001u);
  EXPECT_EQ(z & 0b111, 0b100u);
}

TEST(WideGates, TernaryKleeneRules) {
  const Netlist nl = wide_circuit();
  const LutKnowledgeMap configured;
  const PartialEvaluator sim(nl, configured);
  const CellId y = nl.outputs()[0];
  const CellId z = nl.outputs()[1];
  std::vector<Tri> in(9, Tri::kX);
  in[0] = Tri::kZero;
  const auto out = sim.eval(in);
  EXPECT_EQ(out[y], Tri::kZero);  // AND with a known 0
  EXPECT_EQ(out[z], Tri::kX);     // NOR with unknowns and no known 1
  in[1] = Tri::kOne;
  const auto out2 = sim.eval(in);
  EXPECT_EQ(out2[z], Tri::kZero);  // NOR with a known 1
}

TEST(WideGates, TimingPowerAreaFinite) {
  const Netlist nl = wide_circuit();
  const TechLibrary lib = TechLibrary::cmos90_stt();
  const Sta sta(lib);
  const auto t = sta.analyze(nl);
  EXPECT_GT(t.critical_delay_ps, 0);
  EXPECT_GT(estimate_power_uniform(nl, lib, 0.1, 1.0).total_uw(), 0);
  EXPECT_GT(total_area_um2(nl, lib), 0);
}

TEST(WideGates, ScoapClosedForms) {
  const Netlist nl = wide_circuit();
  const auto r = compute_scoap(nl);
  const CellId y = nl.find("y");
  // CC1(AND9) = 9 * 1 + 1 = 10; CC0 = min + 1 = 2.
  EXPECT_DOUBLE_EQ(r.cc1[y], 10.0);
  EXPECT_DOUBLE_EQ(r.cc0[y], 2.0);
  // CO of an input through the AND = 0 + 8 side CC1s + 1 = 9.
  EXPECT_DOUBLE_EQ(r.co[nl.find("i0")],
                   std::min(9.0, 1.0 + 8.0 * 1.0));  // AND vs NOR route
}

TEST(WideGates, SatEncodingMatchesSimulation) {
  const Netlist nl = wide_circuit();
  EXPECT_TRUE(comb_equivalent(nl, nl));
  // And an inequivalent wide variant is detected.
  Netlist other = wide_circuit();
  // Flip the NOR into an OR by rebuilding it.
  Netlist changed = read_bench(write_bench(other), "w2");
  changed.cell(changed.find("z")).kind = CellKind::kOr;
  EXPECT_FALSE(comb_equivalent(nl, changed));
}

TEST(WideGates, LutReplacementRefused) {
  Netlist nl = wide_circuit();
  EXPECT_THROW(nl.replace_with_lut(nl.find("y")), std::runtime_error);
}

TEST(WideGates, SelectionSkipsThem) {
  Netlist nl = wide_circuit();
  const TechLibrary lib = TechLibrary::cmos90_stt();
  GateSelector selector(lib);
  SelectionOptions opt;
  opt.indep_count = 50;  // ask for more than exists
  const auto result = selector.run(nl, SelectionAlgorithm::kIndependent, opt);
  EXPECT_TRUE(result.replaced.empty());  // nothing replaceable here
}

TEST(WideGates, FormatRoundtrips) {
  const Netlist nl = wide_circuit();
  const Netlist b = read_bench(write_bench(nl), "w");
  EXPECT_TRUE(comb_equivalent(nl, b));
  const Netlist v = read_verilog(write_verilog(nl), "w");
  EXPECT_TRUE(comb_equivalent(nl, v));
  const Netlist f = read_blif(write_blif(nl), "w");
  EXPECT_TRUE(comb_equivalent(nl, f));
  EXPECT_EQ(f.cell(f.find("y")).kind, CellKind::kAnd);
  EXPECT_EQ(f.cell(f.find("z")).kind, CellKind::kNor);
}

TEST(WideGates, BlifWideXorRejectedDescriptively) {
  std::string text = "OUTPUT(y)\n";
  std::string args;
  for (int i = 0; i < 8; ++i) {
    text += "INPUT(i" + std::to_string(i) + ")\n";
    args += (i ? ", i" : "i") + std::to_string(i);
  }
  text += "y = XOR(" + args + ")\n";
  const Netlist nl = read_bench(text);
  EXPECT_THROW(write_blif(nl), std::runtime_error);
}

}  // namespace
}  // namespace stt
