// Tseitin CNF encoding of netlists, with optional symbolic LUT keys.
//
// Attacks operate on the *scan view* of a sequential circuit: flip-flop
// outputs are controllable pseudo-inputs and flip-flop D pins observable
// pseudo-outputs, the standard assumption of oracle-guided attacks (the
// paper's Section IV-A.3 discusses exactly this scan dependence). The
// encoder therefore models the combinational fabric; inputs are PIs
// followed by flip-flop outputs, outputs are POs followed by D pins.
//
// LUT cells encode two ways:
//  * constant keys (configured netlist): one clause per truth-table row;
//  * symbolic keys (the foundry's view): one fresh variable per row, with
//    row-multiplexer clauses — these variables are what the SAT attack
//    solves for.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "attack/sat.hpp"
#include "netlist/netlist.hpp"

namespace stt {

struct EncodedCircuit {
  std::vector<sat::Var> input_vars;   ///< PIs then FF outputs
  std::vector<sat::Var> output_vars;  ///< POs then FF D pins
  /// Per-LUT key variables, one per truth-table row (symbolic mode only).
  std::map<std::string, std::vector<sat::Var>> key_vars;
  std::vector<sat::Var> cell_var;  ///< per cell, indexed by CellId
};

struct EncodeOptions {
  /// Encode LUT contents as free variables instead of constants.
  bool symbolic_keys = false;
  /// Reuse these input variables (miter construction). Must match the
  /// netlist's PI+FF count.
  const std::vector<sat::Var>* share_inputs = nullptr;
  /// Reuse these key variables (tying a fresh copy to an existing key).
  const std::map<std::string, std::vector<sat::Var>>* share_keys = nullptr;
  /// Cone-of-influence sharing for miters: reuse these cell variables (the
  /// `cell_var` of a prior encoding of the *same* netlist in the *same*
  /// solver) for every cell whose fanin cone contains no LUT and no input
  /// whose variable differs from the prior encoding's (an unrolled frame's
  /// flip-flop carrying key taint from an earlier frame). Key-free logic
  /// computes the same value in both miter copies, so it only needs one CNF
  /// encoding; only the key-tainted cone is duplicated. Requires
  /// share_inputs (the shared cells are functions of those input vars).
  const std::vector<sat::Var>* share_key_free_cells = nullptr;
};

EncodedCircuit encode_comb(sat::Solver& solver, const Netlist& nl,
                           const EncodeOptions& opt = {});

/// Adds a miter over two equally long output-variable lists: returns a
/// variable m with m -> (outputs differ somewhere). Solving under
/// assumption m searches for a distinguishing input; the reverse
/// implication is also added so a model with m=false has all outputs equal.
/// Positions holding the same variable in both lists are skipped.
sat::Var add_miter(sat::Solver& solver, const std::vector<sat::Var>& a,
                   const std::vector<sat::Var>& b);

/// Combinational (scan-view) equivalence of two configured netlists with
/// identical interfaces. `proven` is set false if the conflict budget ran
/// out (result then meaningless).
bool comb_equivalent(const Netlist& a, const Netlist& b,
                     std::int64_t conflict_budget = -1,
                     bool* proven = nullptr);

}  // namespace stt
