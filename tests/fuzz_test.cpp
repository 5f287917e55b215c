// Randomized stress tests ("fuzzing" within the deterministic Rng): long
// random sequences of structural edits, flow stages and format round trips
// must never violate netlist invariants or functional equivalence.
#include <gtest/gtest.h>

#include "attack/encode.hpp"
#include "core/packing.hpp"
#include "core/selection.hpp"
#include "io/bench_io.hpp"
#include "io/blif_io.hpp"
#include "io/verilog_reader.hpp"
#include "io/verilog_writer.hpp"
#include "synth/generator.hpp"
#include "util/rng.hpp"

namespace stt {
namespace {

// Random structural edits that must preserve all invariants.
class EditFuzz : public ::testing::TestWithParam<int> {};

TEST_P(EditFuzz, RandomEditSequencesKeepInvariants) {
  const int seed = GetParam();
  Rng rng(seed * 7919);
  CircuitProfile profile{"fz", 8, 6, 6, 120, 8};
  Netlist nl = generate_circuit(profile, seed);

  for (int step = 0; step < 60; ++step) {
    const auto logic = nl.logic_cells();
    const CellId victim = rng.pick(logic);
    Cell& c = nl.cell(victim);
    switch (rng.below(3)) {
      case 0:  // replace a gate with a LUT
        if (is_replaceable_gate(c.kind) &&
            c.fanin_count() <= kMaxLutInputs) {
          nl.replace_with_lut(victim);
        }
        break;
      case 1: {  // rewire one fan-in to another upstream-safe driver
        if (c.fanin_count() == 0) break;
        const int slot = static_cast<int>(rng.below(c.fanin_count()));
        // Safe new driver: any primary input (never creates a cycle).
        const CellId driver = rng.pick(std::vector<CellId>(
            nl.inputs().begin(), nl.inputs().end()));
        nl.replace_fanin(victim, slot, driver);
        break;
      }
      case 2:  // reconfigure a LUT arbitrarily
        if (c.kind == CellKind::kLut) {
          nl.replace_with_lut(victim, rng() & full_mask(c.fanin_count()));
        }
        break;
    }
  }
  EXPECT_NO_THROW(nl.check());
  // Whatever came out must still round-trip through all three formats.
  const Netlist b = read_bench(write_bench(nl), "f");
  EXPECT_NO_THROW(b.check());
  const Netlist v = read_verilog(write_verilog(nl), "f");
  EXPECT_NO_THROW(v.check());
  EXPECT_TRUE(comb_equivalent(b, v));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EditFuzz, ::testing::Range(1, 9));

// Random flow-stage chains: select -> pack -> strip, in random order and
// multiplicity, always ends functionally equivalent.
class PipelineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PipelineFuzz, RandomStageChains) {
  const int seed = GetParam();
  Rng rng(seed * 104729);
  CircuitProfile profile{"pf", 8, 6, 6, 150, 8};
  const Netlist original = generate_circuit(profile, seed);
  Netlist work = original;
  const TechLibrary lib = TechLibrary::cmos90_stt();

  bool selected = false;
  for (int stage = 0; stage < 5; ++stage) {
    switch (rng.below(2)) {
      case 0:
        // Selection requires a pure-CMOS netlist (packing may already have
        // produced LUT cells).
        if (!selected && work.stats().luts == 0) {
          GateSelector selector(lib);
          SelectionOptions opt;
          opt.seed = rng();
          const auto alg = static_cast<SelectionAlgorithm>(rng.below(3));
          (void)selector.run(work, alg, opt);
          selected = true;
        }
        break;
      case 1: {
        PackingOptions opt;
        opt.seed = rng();
        (void)pack_complex_functions(work, opt);
        work = strip_dead_logic(work);
        break;
      }
    }
  }
  EXPECT_NO_THROW(work.check());
  // Dead-logic stripping may legally remove dead *state*; equivalence only
  // claimed when the scan interface survived intact.
  if (work.dffs().size() == original.dffs().size()) {
    EXPECT_TRUE(comb_equivalent(original, work)) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz, ::testing::Range(1, 13));

// BLIF is the third leg: chain all three formats and end where we started.
class FormatChainFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FormatChainFuzz, BenchVerilogBlifChain) {
  const int seed = GetParam();
  CircuitProfile profile{"fc", 6, 5, 4, 70, 6};
  const Netlist original = generate_circuit(profile, seed);
  const Netlist a = read_bench(write_bench(original), "x");
  const Netlist b = read_verilog(write_verilog(a), "x");
  const Netlist c = read_blif(write_blif(b), "x");
  EXPECT_TRUE(comb_equivalent(original, c)) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormatChainFuzz, ::testing::Range(1, 9));

}  // namespace
}  // namespace stt
