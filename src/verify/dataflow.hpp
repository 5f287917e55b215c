// Attacker-view dataflow over the netlist graph: the two passes the
// key-dependency analyzer (verify/keydep) is built from, small-support
// functions (forward) and structural observability (backward). Ternary
// constants are not computed here: the attacker-view constant wave is
// sim/partial_eval's PartialEvaluator over zero LUT knowledge, and the
// support pass refines it — every ternary-definite cell it does not cut is
// the same constant function (pinned by tests/dataflow_test.cpp). The
// support transfer models the *attacker view* of a hybrid netlist: a
// reconfigurable LUT's mask is secret, so its output is a fresh variable.
//
// The combinational subgraph is a DAG (DFF outputs are sources, DFF D pins
// are sinks), so each pass is one sweep in topo order (forward) or reverse
// topo order (backward); the order is fixed by topo rank, so results are
// deterministic regardless of fanout-list or hash-map iteration order. Both
// passes take the order from the caller, so one analysis computes it once.
//
// A support function is a truth table of at most kMaxLutInputs variables,
// so one 64-bit word holds it and its variable list sits inline: the
// forward pass allocates nothing per cell. Its transfer works on whole
// tables — each fan-in's table is re-indexed onto the merged variables with
// the elementary variable masks (0xAAAA..., 0xCCCC..., ...), then the gate
// is one word operation (AND, OR, XOR and their complements).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace stt {

/// At most kMaxLutInputs cell ids, held inline.
class SupportVars {
 public:
  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  CellId operator[](std::size_t i) const { return ids_[i]; }
  const CellId* begin() const { return ids_.data(); }
  const CellId* end() const { return ids_.data() + n_; }
  /// Requires size() < kMaxLutInputs.
  void push_back(CellId v) { ids_[n_++] = v; }
  void erase(std::size_t i);

 private:
  std::array<CellId, kMaxLutInputs> ids_{};
  std::uint8_t n_ = 0;
};

/// Exact Boolean function of a net over at most kMaxLutInputs cut variables
/// (a truth-table mask — a BDD in disguise at this width). Cut variables are
/// primary inputs, state bits, unknown-LUT outputs, and cells whose support
/// outgrew the bound. Functions are normalized (vacuous variables dropped,
/// variables sorted by CellId), so `is_constant` and `depends_on` are exact
/// over the cut vocabulary.
struct SupportFunction {
  SupportVars vars;        ///< sorted ascending; empty for constants
  std::uint64_t mask = 0;  ///< truth table; row bit i = value of vars[i]

  static SupportFunction constant(bool v);
  static SupportFunction variable(CellId id);
  bool is_constant() const { return vars.empty(); }
  bool constant_value() const { return (mask & 1ull) != 0; }
  bool depends_on(CellId v) const;
  /// Drop variables the mask does not depend on; keeps the form canonical.
  void normalize();
};

/// Cells re-introduced as fresh cut variables because their support
/// outgrew kMaxLutInputs, and every variable such a cut absorbed. A client
/// must not conclude a variable is unobservable while it sits inside an
/// absorbed cut (keydep's KEY008 check). Unknown-LUT cuts absorb their
/// fan-in variables for the same reason. Both are indexed by CellId.
struct SupportCuts {
  std::vector<char> cut;
  std::vector<char> absorbed;
};

/// Support function of every cell, by CellId: primary inputs and state bits
/// are variables, constants are constant functions, and every other cell is
/// its gate over its fan-ins' functions, cut to a fresh variable when it is
/// an unknown LUT or its support outgrows kMaxLutInputs. `order` is a
/// combinational topological order of every cell (`nl.topo_order()`). Fills
/// `cuts`.
std::vector<SupportFunction> support_functions(
    const Netlist& nl, const std::vector<CellId>& order, SupportCuts& cuts);

/// Can a change at each cell reach any observation point (primary output or
/// flip-flop D pin) along some path? 1 = may reach, 0 = never, by CellId.
/// Purely structural (no sensitization), so 0 is a sound proof of
/// unobservability, the same bar as the audit's masked test but O(V+E) for
/// all cells at once. `order` is as for support_functions.
std::vector<char> observable_cells(const Netlist& nl,
                                   const std::vector<CellId>& order);

}  // namespace stt
