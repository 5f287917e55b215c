// Structural Verilog reader.
//
// Supports the gate-level subset that synthesis hand-offs (and this
// library's own writer) use:
//
//   module top (clk, a, b, y);
//     input clk; input a, b; output y;
//     wire w; reg q;
//     nand g0 (w, a, b);                      // gate primitives
//     always @(posedge clk) q <= w;           // DFF
//     assign y = 1'b0;  assign y = w;         // constants / buffers
//     assign y = 4'h8[{b, a}];                // configured LUT (writer form)
//     STT_LUT2 u0 (.y(y), .a({b, a}));        // redacted LUT macro
//   endmodule
//
// Line and block comments are handled; `module STT_LUTk ... endmodule`
// blackbox declarations are skipped. Diagnostics name the line of the
// offending token (or, for a combinational cycle, of the statement driving
// the named cell).
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "netlist/netlist.hpp"

namespace stt {

struct VerilogParseError : std::runtime_error {
  /// what() renders as "<source>:<line>: <msg>".
  VerilogParseError(const std::string& msg, int line,
                    const std::string& source = "verilog");
  std::string message;  ///< diagnostic without the source:line prefix
  std::string source;   ///< "verilog" for in-memory text, file path otherwise
  int line;             ///< 1-based; 0 = whole-file (no single culprit line)
};

Netlist read_verilog(std::string_view text, std::string fallback_name = "top");

Netlist read_verilog_file(const std::string& path);

}  // namespace stt
