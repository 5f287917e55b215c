#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "attack/encode.hpp"
#include "core/hybrid.hpp"
#include "io/blif_io.hpp"
#include "io/verilog_reader.hpp"
#include "io/verilog_writer.hpp"
#include "synth/generator.hpp"

namespace stt {
namespace {

// ----------------------------------------------------- Verilog reader ----

TEST(VerilogReader, ParsesHandwrittenModule) {
  const Netlist nl = read_verilog(R"(
    // a tiny sequential module
    module demo (clk, a, b, y);
      input clk;
      input a, b;
      output y;
      wire w;
      reg q;
      nand g0 (w, a, b);
      always @(posedge clk) q <= w;
      xor g1 (y, q, a);
    endmodule
  )");
  EXPECT_EQ(nl.name(), "demo");
  EXPECT_EQ(nl.inputs().size(), 2u);  // clk excluded
  EXPECT_EQ(nl.dffs().size(), 1u);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.cell(nl.find("w")).kind, CellKind::kNand);
  EXPECT_EQ(nl.cell(nl.find("q")).kind, CellKind::kDff);
}

TEST(VerilogReader, ConstantsAndAliases) {
  const Netlist nl = read_verilog(R"(
    module c (a, y0, y1);
      input a; output y0; output y1;
      wire t;
      assign t = 1'b1;
      and g (y0, a, t);
      assign y1 = a;  // pure alias to an input
    endmodule
  )");
  EXPECT_EQ(nl.cell(nl.find("t")).kind, CellKind::kConst1);
  EXPECT_EQ(nl.outputs().size(), 2u);
  // y1 resolves to the input cell itself.
  EXPECT_EQ(nl.outputs()[1], nl.find("a"));
}

TEST(VerilogReader, ConfiguredLutIndexForm) {
  const Netlist nl = read_verilog(R"(
    module l (a, b, y);
      input a; input b; output y;
      assign y = 4'h8[{b, a}]; // AND2 as a LUT
    endmodule
  )");
  const Cell& y = nl.cell(nl.find("y"));
  EXPECT_EQ(y.kind, CellKind::kLut);
  EXPECT_EQ(y.lut_mask, 0x8ull);
  // {b, a}: a is the LSB -> fan-in 0.
  EXPECT_EQ(y.fanins[0], nl.find("a"));
}

TEST(VerilogReader, RedactedLutMacroAndBlackboxSkipped) {
  const Netlist nl = read_verilog(R"(
    module STT_LUT2 (output y, input [1:0] a);
    endmodule
    module top (a, b, y);
      input a; input b; output y;
      STT_LUT2 u0 (.y(y), .a({b, a}));
    endmodule
  )");
  EXPECT_EQ(nl.name(), "top");
  EXPECT_EQ(nl.cell(nl.find("y")).kind, CellKind::kLut);
  EXPECT_EQ(nl.cell(nl.find("y")).lut_mask, 0ull);
}

TEST(VerilogReader, ErrorsAreDiagnosed) {
  EXPECT_THROW(read_verilog("wire w;"), VerilogParseError);  // no module
  EXPECT_THROW(read_verilog("module m (a); input a; frob x (a); endmodule"),
               VerilogParseError);
  EXPECT_THROW(
      read_verilog("module m (y); output y; assign y = undefined_net; "
                   "endmodule"),
      VerilogParseError);
}

// Each diagnostic names the line it comes from, like the .bench and BLIF
// readers; read_verilog_file prefixes the path.
VerilogParseError verilog_error(const std::string& text) {
  try {
    read_verilog(text);
  } catch (const VerilogParseError& e) {
    return e;
  }
  ADD_FAILURE() << "expected VerilogParseError";
  return VerilogParseError("", 0);
}

TEST(VerilogReader, BadTokenNamesItsLine) {
  const VerilogParseError e = verilog_error(
      "module m (a, y);\n"
      "  input a; output y;\n"
      "  assign y = a;\n"
      "  frob x (y, a);\n"  // line 4
      "endmodule\n");
  EXPECT_EQ(e.line, 4) << e.what();
  EXPECT_EQ(e.source, "verilog");
  EXPECT_NE(e.message.find("'frob'"), std::string::npos) << e.what();
  EXPECT_EQ(std::string(e.what()), "verilog:4: " + e.message);
}

TEST(VerilogReader, UndefinedNetNamesTheReferencingLine) {
  const VerilogParseError e = verilog_error(
      "module m (a, y);\n"
      "  input a;\n"
      "  output y;\n"
      "  wire w;\n"
      "  and g0 (w, a,\n"
      "          missing);\n"  // line 6
      "  assign y = w;\n"
      "endmodule\n");
  EXPECT_EQ(e.line, 6) << e.what();
  EXPECT_NE(e.message.find("undefined net 'missing'"), std::string::npos)
      << e.what();
}

TEST(VerilogReader, CombinationalCycleNamesACellAndItsLine) {
  // b and c form the cycle; d only hangs off it, so it must not be named.
  const std::string text =
      "module loop (a, d);\n"
      "  input a; output d;\n"
      "  wire b, c;\n"
      "  and g0 (b, a, c);\n"  // line 4
      "  not g1 (c, b);\n"     // line 5
      "  not g2 (d, c);\n"
      "endmodule\n";
  const VerilogParseError e = verilog_error(text);
  const bool names_b = e.message.find("'b'") != std::string::npos;
  const bool names_c = e.message.find("'c'") != std::string::npos;
  EXPECT_TRUE(names_b != names_c) << e.what();
  EXPECT_NE(e.message.find("combinational cycle"), std::string::npos)
      << e.what();
  EXPECT_EQ(e.line, names_b ? 4 : 5) << e.what();

  const std::string path = ::testing::TempDir() + "/cycle.v";
  {
    std::ofstream out(path);
    out << text;
  }
  try {
    read_verilog_file(path);
    ADD_FAILURE() << "expected VerilogParseError";
  } catch (const VerilogParseError& f) {
    EXPECT_EQ(f.source, path);
    EXPECT_EQ(f.line, e.line);
    EXPECT_EQ(std::string(f.what()),
              path + ":" + std::to_string(e.line) + ": " + e.message);
  }
  std::remove(path.c_str());
}

// Property: write_verilog -> read_verilog preserves the scan-view function
// for plain, hybrid and redacted+reconfigured netlists.
class VerilogRoundtrip : public ::testing::TestWithParam<int> {};

TEST_P(VerilogRoundtrip, GeneratedCircuits) {
  const int seed = GetParam();
  CircuitProfile profile{"vrt", 6, 5, 4, 60, 6};
  Netlist nl = generate_circuit(profile, seed);
  if (seed % 2 == 0) {
    int count = 0;
    for (const CellId id : nl.logic_cells()) {
      if (is_replaceable_gate(nl.cell(id).kind) && ++count % 3 == 0) {
        nl.replace_with_lut(id);
      }
    }
  }
  const Netlist back = read_verilog(write_verilog(nl), nl.name());
  EXPECT_EQ(back.inputs().size(), nl.inputs().size());
  EXPECT_EQ(back.dffs().size(), nl.dffs().size());
  EXPECT_EQ(back.outputs().size(), nl.outputs().size());
  EXPECT_TRUE(comb_equivalent(nl, back)) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerilogRoundtrip, ::testing::Range(1, 9));

TEST(VerilogRoundtripRedacted, KeyReprogramsTheChip) {
  const Netlist original = embedded_netlist("s27");
  Netlist hybrid = original;
  hybrid.replace_with_lut(hybrid.find("G9"));
  hybrid.replace_with_lut(hybrid.find("G10"));
  const LutKey key = extract_key(hybrid);

  VerilogWriteOptions opt;
  opt.redact_luts = true;
  const Netlist fabricated = read_verilog(write_verilog(hybrid, opt), "fab");
  EXPECT_FALSE(comb_equivalent(fabricated, original));
  Netlist programmed = fabricated;
  apply_key(programmed, key);
  EXPECT_TRUE(comb_equivalent(programmed, original));
}

// -------------------------------------------------------------- BLIF ----

TEST(Blif, ParsesHandwrittenModel) {
  const Netlist nl = read_blif(R"(
# comment
.model tiny
.inputs a b
.outputs y
.latch d q re clk 0
.names a b w
11 1
.names w q d
1- 1
-1 1
.names d y
0 1
.end
)");
  EXPECT_EQ(nl.name(), "tiny");
  EXPECT_EQ(nl.cell(nl.find("w")).kind, CellKind::kAnd);
  EXPECT_EQ(nl.cell(nl.find("d")).kind, CellKind::kOr);   // 1-/-1 cover
  EXPECT_EQ(nl.cell(nl.find("y")).kind, CellKind::kNot);  // 0 1 cover
  EXPECT_EQ(nl.dffs().size(), 1u);
}

TEST(Blif, OffsetCoverAndConstants) {
  const Netlist nl = read_blif(R"(
.model k
.inputs a b
.outputs n z o
.names a b n
11 0
.names z
.names o
1
.end
)");
  EXPECT_EQ(nl.cell(nl.find("n")).kind, CellKind::kNand);  // offset of AND
  EXPECT_EQ(nl.cell(nl.find("z")).kind, CellKind::kConst0);
  EXPECT_EQ(nl.cell(nl.find("o")).kind, CellKind::kConst1);
}

TEST(Blif, NonStandardCoverBecomesLut) {
  const Netlist nl = read_blif(R"(
.model l
.inputs a b
.outputs y
.names a b y
10 1
.end
)");
  const Cell& y = nl.cell(nl.find("y"));
  EXPECT_EQ(y.kind, CellKind::kLut);  // a & !b: not a standard gate
  EXPECT_EQ(y.lut_mask, 0b0010ull);
}

TEST(Blif, ContinuationLines) {
  const Netlist nl = read_blif(".model c\n.inputs a \\\n b\n.outputs y\n"
                               ".names a b y\n11 1\n.end\n");
  EXPECT_EQ(nl.inputs().size(), 2u);
}

TEST(Blif, Errors) {
  EXPECT_THROW(read_blif(".model m\n.inputs a\n.outputs y\n.names a y\n2 1\n.end\n"),
               BlifParseError);
  EXPECT_THROW(read_blif(".model m\n.inputs a\n.outputs ghost\n.end\n"),
               BlifParseError);
  EXPECT_THROW(read_blif(".model m\n.latch onlyone\n.end\n"), BlifParseError);
  EXPECT_THROW(
      read_blif(".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end\n"),
      BlifParseError);  // mixed cover
}

TEST(Blif, DiagnosticsCarryLineNumbers) {
  // .model with no name is an error, not a silent skip.
  try {
    read_blif(".model\n.end\n");
    FAIL() << "expected BlifParseError";
  } catch (const BlifParseError& e) {
    EXPECT_EQ(e.line, 1);
    EXPECT_NE(e.message.find(".model"), std::string::npos);
  }
  // Redefining a net reports the second definition site.
  try {
    read_blif(
        ".model m\n.inputs a\n.outputs y\n"
        ".names a y\n1 1\n.names a y\n0 1\n.end\n");
    FAIL() << "expected BlifParseError";
  } catch (const BlifParseError& e) {
    EXPECT_EQ(e.line, 6);
    EXPECT_NE(e.message.find("'y' defined twice"), std::string::npos);
  }
  // A latch whose D net never resolves reports the .latch line.
  try {
    read_blif(".model m\n.inputs a\n.outputs q\n.latch ghost q\n.end\n");
    FAIL() << "expected BlifParseError";
  } catch (const BlifParseError& e) {
    EXPECT_EQ(e.line, 4);
    EXPECT_NE(e.message.find("ghost"), std::string::npos);
  }
  // An undefined .outputs net reports its declaration line.
  try {
    read_blif(".model m\n.inputs a\n.outputs ghost\n.end\n");
    FAIL() << "expected BlifParseError";
  } catch (const BlifParseError& e) {
    EXPECT_EQ(e.line, 3);
  }
}

TEST(BlifReader, CombinationalCycleNamesACellAndItsLine) {
  // b and c form the cycle; d only hangs off it, so it must not be named.
  const std::string text =
      ".model loop\n.inputs a\n.outputs d\n"
      ".names a c b\n11 1\n"  // line 4
      ".names b c\n0 1\n"     // line 6
      ".names c d\n0 1\n.end\n";
  try {
    read_blif(text, "loop");
    FAIL() << "expected BlifParseError";
  } catch (const BlifParseError& e) {
    const std::string msg = e.message;
    const bool names_b = msg.find("'b'") != std::string::npos;
    const bool names_c = msg.find("'c'") != std::string::npos;
    EXPECT_TRUE(names_b != names_c) << msg;
    EXPECT_NE(msg.find("combinational cycle"), std::string::npos) << msg;
    EXPECT_EQ(e.line, names_b ? 4 : 6) << msg;
  }
}

class BlifRoundtrip : public ::testing::TestWithParam<int> {};

TEST_P(BlifRoundtrip, GeneratedCircuits) {
  const int seed = GetParam();
  CircuitProfile profile{"brt", 6, 5, 4, 60, 6};
  const Netlist nl = generate_circuit(profile, seed);
  const Netlist back = read_blif(write_blif(nl), nl.name());
  EXPECT_EQ(back.inputs().size(), nl.inputs().size());
  EXPECT_EQ(back.dffs().size(), nl.dffs().size());
  EXPECT_EQ(back.stats().gates, nl.stats().gates);
  EXPECT_TRUE(comb_equivalent(nl, back)) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlifRoundtrip, ::testing::Range(1, 9));

TEST(Blif, S27RoundtripPreservesCellKinds) {
  const Netlist nl = embedded_netlist("s27");
  const Netlist back = read_blif(write_blif(nl), "s27");
  for (CellId id = 0; id < nl.size(); ++id) {
    const Cell& c = nl.cell(id);
    const CellId bid = back.find(c.name);
    ASSERT_NE(bid, kNullCell) << c.name;
    EXPECT_EQ(back.cell(bid).kind, c.kind) << c.name;
  }
}

TEST(Blif, FileIo) {
  const Netlist nl = embedded_netlist("count2");
  const std::string path = ::testing::TempDir() + "/count2.blif";
  write_blif_file(nl, path);
  const Netlist back = read_blif_file(path);
  EXPECT_EQ(back.name(), "count2");
  EXPECT_TRUE(comb_equivalent(nl, back));
  EXPECT_THROW(read_blif_file("/nonexistent.blif"), std::runtime_error);
}

}  // namespace
}  // namespace stt
