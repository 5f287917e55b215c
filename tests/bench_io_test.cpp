#include <gtest/gtest.h>

#include <fstream>

#include "io/bench_io.hpp"
#include "io/verilog_writer.hpp"
#include "synth/generator.hpp"

namespace stt {
namespace {

TEST(BenchReader, ParsesS27) {
  const Netlist nl = embedded_netlist("s27");
  EXPECT_EQ(nl.name(), "s27");
  EXPECT_EQ(nl.inputs().size(), 4u);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.dffs().size(), 3u);
  EXPECT_EQ(nl.stats().gates, 10u);
  // Spot-check one gate.
  const CellId g9 = nl.find("G9");
  ASSERT_NE(g9, kNullCell);
  EXPECT_EQ(nl.cell(g9).kind, CellKind::kNand);
  EXPECT_EQ(nl.cell(g9).fanin_count(), 2);
}

TEST(BenchReader, CommentsAndBlanksIgnored) {
  const Netlist nl = read_bench(
      "# header\n\nINPUT(a)  # trailing comment\nOUTPUT(b)\nb = NOT(a)\n");
  EXPECT_EQ(nl.inputs().size(), 1u);
  EXPECT_EQ(nl.cell(nl.find("b")).kind, CellKind::kNot);
}

TEST(BenchReader, ForwardReferencesAllowed) {
  // b is used before it is defined: legal in .bench.
  const Netlist nl = read_bench(
      "INPUT(a)\nOUTPUT(c)\nc = AND(a, b)\nb = NOT(a)\n");
  EXPECT_EQ(nl.cell(nl.find("c")).fanin_count(), 2);
}

TEST(BenchReader, UndefinedNetFails) {
  EXPECT_THROW(read_bench("INPUT(a)\nb = NOT(zz)\n"), BenchParseError);
}

TEST(BenchReader, DuplicateDefinitionFails) {
  try {
    read_bench("INPUT(a)\na = NOT(a)\n");
    FAIL() << "expected BenchParseError";
  } catch (const BenchParseError& e) {
    EXPECT_EQ(e.line, 2);
  }
}

TEST(BenchReader, CombinationalCycleNamesACellAndItsLine) {
  // b and c form the cycle; d only hangs off it, so it must not be named.
  const std::string text =
      "INPUT(a)\nOUTPUT(d)\nb = AND(a, c)\nc = NOT(b)\nd = NOT(c)\n";
  try {
    read_bench(text, "loop");
    FAIL() << "expected BenchParseError";
  } catch (const BenchParseError& e) {
    const std::string msg = e.message;
    const bool names_b = msg.find("'b'") != std::string::npos;
    const bool names_c = msg.find("'c'") != std::string::npos;
    EXPECT_TRUE(names_b != names_c) << msg;
    EXPECT_NE(msg.find("combinational cycle"), std::string::npos) << msg;
    EXPECT_EQ(e.line, names_b ? 3 : 4) << msg;
  }
}

TEST(BenchReader, UnknownOperatorFails) {
  EXPECT_THROW(read_bench("INPUT(a)\nb = FROB(a)\n"), BenchParseError);
}

TEST(BenchReader, MalformedLineFails) {
  EXPECT_THROW(read_bench("INPUT a\n"), BenchParseError);
  EXPECT_THROW(read_bench("x = AND(a\n"), BenchParseError);
}

TEST(BenchReader, OutputOfUndefinedNetFails) {
  EXPECT_THROW(read_bench("INPUT(a)\nOUTPUT(ghost)\n"), BenchParseError);
}

TEST(BenchReader, OutputErrorReportsDeclarationLine) {
  try {
    read_bench("INPUT(a)\nb = NOT(a)\nOUTPUT(ghost)\n");
    FAIL() << "expected BenchParseError";
  } catch (const BenchParseError& e) {
    EXPECT_EQ(e.line, 3);
    EXPECT_EQ(e.source, "bench");
    EXPECT_NE(std::string(e.what()).find("bench:3:"), std::string::npos);
  }
}

TEST(BenchReader, LutExtensionConfigured) {
  const Netlist nl = read_bench(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = LUT_0x8(a, b)\n");
  const Cell& y = nl.cell(nl.find("y"));
  EXPECT_EQ(y.kind, CellKind::kLut);
  EXPECT_EQ(y.lut_mask, 0x8ull);  // AND2
}

TEST(BenchReader, LutExtensionRedacted) {
  const Netlist nl = read_bench(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = LUT_X(a, b)\n");
  EXPECT_EQ(nl.cell(nl.find("y")).kind, CellKind::kLut);
  EXPECT_EQ(nl.cell(nl.find("y")).lut_mask, 0ull);
}

TEST(BenchReader, BadLutMaskFails) {
  EXPECT_THROW(read_bench("INPUT(a)\ny = LUT_0xZZ(a)\n"), BenchParseError);
}

TEST(BenchWriter, RedactionHidesMasks) {
  Netlist nl = read_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n");
  nl.replace_with_lut(nl.find("y"));
  BenchWriteOptions opt;
  opt.redact_luts = true;
  const std::string text = write_bench(nl, opt);
  EXPECT_NE(text.find("LUT_X"), std::string::npos);
  EXPECT_EQ(text.find("LUT_0x"), std::string::npos);
}

TEST(BenchWriter, HeaderEmitted) {
  const Netlist nl = embedded_netlist("s27");
  BenchWriteOptions opt;
  opt.header = "line one\nline two";
  const std::string text = write_bench(nl, opt);
  EXPECT_NE(text.find("# line one"), std::string::npos);
  EXPECT_NE(text.find("# line two"), std::string::npos);
}

// Property: write -> read roundtrips to a structurally equal netlist, both
// for pure-CMOS and for hybrid netlists with configured LUTs.
class BenchRoundtrip : public ::testing::TestWithParam<int> {};

TEST_P(BenchRoundtrip, GeneratedCircuits) {
  const int seed = GetParam();
  CircuitProfile profile{"rt", 5, 5, 3, 50, 5};
  Netlist nl = generate_circuit(profile, seed);
  // Make half the circuits hybrid.
  if (seed % 2 == 0) {
    int count = 0;
    for (const CellId id : nl.logic_cells()) {
      if (is_replaceable_gate(nl.cell(id).kind) && ++count % 3 == 0) {
        nl.replace_with_lut(id);
      }
    }
  }
  const std::string text = write_bench(nl);
  const Netlist back = read_bench(text, nl.name());
  // Roundtrip preserves interface sizes, cell population and functions.
  EXPECT_EQ(back.inputs().size(), nl.inputs().size());
  EXPECT_EQ(back.outputs().size(), nl.outputs().size());
  EXPECT_EQ(back.dffs().size(), nl.dffs().size());
  EXPECT_EQ(back.stats().gates, nl.stats().gates);
  EXPECT_EQ(back.stats().luts, nl.stats().luts);
  for (CellId id = 0; id < nl.size(); ++id) {
    const Cell& c = nl.cell(id);
    const CellId bid = back.find(c.name);
    ASSERT_NE(bid, kNullCell) << c.name;
    EXPECT_EQ(back.cell(bid).kind, c.kind);
    EXPECT_EQ(back.cell(bid).fanin_count(), c.fanin_count());
    if (c.kind == CellKind::kLut) {
      EXPECT_EQ(back.cell(bid).lut_mask, c.lut_mask);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BenchRoundtrip, ::testing::Range(1, 11));

TEST(VerilogWriter, EmitsStructuralModule) {
  const Netlist nl = embedded_netlist("s27");
  const std::string v = write_verilog(nl);
  EXPECT_NE(v.find("module s27"), std::string::npos);
  EXPECT_NE(v.find("input clk;"), std::string::npos);
  EXPECT_NE(v.find("always @(posedge clk)"), std::string::npos);
  EXPECT_NE(v.find("nand "), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(VerilogWriter, RedactedLutsBecomeBlackboxes) {
  Netlist nl = read_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n");
  nl.replace_with_lut(nl.find("y"));
  VerilogWriteOptions opt;
  opt.redact_luts = true;
  const std::string v = write_verilog(nl, opt);
  EXPECT_NE(v.find("STT_LUT2"), std::string::npos);
  EXPECT_NE(v.find("module STT_LUT2"), std::string::npos);
}

TEST(VerilogWriter, CombinationalModuleHasNoClock) {
  const Netlist nl =
      read_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n");
  const std::string v = write_verilog(nl);
  EXPECT_EQ(v.find("input clk"), std::string::npos);
}

TEST(BenchFileIo, WriteAndReadBack) {
  const Netlist nl = embedded_netlist("count2");
  const std::string path = ::testing::TempDir() + "/count2.bench";
  write_bench_file(nl, path);
  const Netlist back = read_bench_file(path);
  EXPECT_EQ(back.name(), "count2");
  EXPECT_EQ(back.stats().gates, nl.stats().gates);
}

TEST(BenchFileIo, MissingFileThrows) {
  EXPECT_THROW(read_bench_file("/nonexistent/path.bench"), std::runtime_error);
}

TEST(BenchFileIo, ParseErrorCarriesFilePath) {
  const std::string path = ::testing::TempDir() + "/broken.bench";
  {
    std::ofstream out(path);
    out << "INPUT(a)\nb = FROB(a)\n";
  }
  try {
    read_bench_file(path);
    FAIL() << "expected BenchParseError";
  } catch (const BenchParseError& e) {
    EXPECT_EQ(e.source, path);
    EXPECT_EQ(e.line, 2);
    EXPECT_NE(std::string(e.what()).find(path + ":2:"), std::string::npos);
  }
}

}  // namespace
}  // namespace stt
