// Cone-pruned constant-folded encoding of oracle I/O pairs.
//
// Re-encoding two complete circuit copies per DIP costs O(gates) clauses
// per iteration even though every pinned input is a known constant. Under
// a concrete input pattern the attacker can constant-fold the whole
// netlist except where unresolved LUT rows feed the logic: a LUT whose
// inputs all fold to constants *is* its (unknown) selected key row, a gate
// with one unknown fan-in is an alias of it, and only gates with two or
// more irreducible unknown fan-ins need fresh variables and clauses.
// Per-pair CNF growth therefore tracks the unresolved key fan-out cone,
// not the circuit.
//
// Folding also resolves key bits outright: an output that collapses to a
// single key-row literal pins that row to the oracle's response bit — a
// free unit constraint, recorded in a `LutKnowledge` map (partial_eval.hpp)
// and treated as a constant by every later fold, so cones keep shrinking as
// the attack learns. The simulation-guided warm-up exploits exactly this
// with `units_only` sweeps of cheap random patterns.
//
// A pair spans a frame count. The scan pair (`kScan`) is one frame whose
// flip-flop state is given as inputs and whose D pins are observed. A
// sequence pair of F >= 1 frames starts from the all-zero reset state:
// frame f's flip-flops hold frame f-1's folded D-pin values, every frame
// reads the same key rows, and only each frame's POs are observed. A key
// row buried D flip-flops deep thus only surfaces from frame D on.
//
// One encoder instance serves N key copies (the two miter copies of the
// attack): the fold is shared, clause emission is replicated per copy
// against that copy's key variables.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sim/partial_eval.hpp"
#include "attack/sat.hpp"
#include "netlist/netlist.hpp"

namespace stt {

/// Per-call accounting of one cone-pruned I/O-pair encoding (all key
/// copies combined).
struct DipEncodeStats {
  int vars_added = 0;
  int clauses_added = 0;      ///< add_clause submissions (incl. units)
  int cells_encoded = 0;      ///< complex cells that emitted clauses
  int key_rows_resolved = 0;  ///< rows newly pinned by this pair
  int complex_outputs = 0;    ///< response bits needing cone encoding
};

class DipEncoder {
 public:
  using KeyVars = std::map<std::string, std::vector<sat::Var>>;

  /// Frame count of the scan pair: one frame, state given, D pins observed.
  static constexpr int kScan = 0;

  /// `key_copies` holds one symbolic key-variable map per encoded circuit
  /// copy (as produced by encode_comb with symbolic_keys); every copy must
  /// cover all LUTs of `nl`. `frames` is kScan or a reset-started sequence
  /// length >= 1. The netlist and the solver must outlive the encoder.
  DipEncoder(sat::Solver& solver, const Netlist& nl,
             std::vector<const KeyVars*> key_copies, int frames = kScan);

  /// Constrain every key copy with one oracle pair. Scan pair: `inputs` is
  /// PI bits then FF state bits, `response` PO bits then next-state bits.
  /// Sequence pair: `inputs` is each frame's PI bits, `response` each
  /// frame's PO bits, frame after frame. With `units_only`, only outputs
  /// that fold to key-row literals are pinned (no clause emission for
  /// complex cones — the cheap warm-up mode). Throws std::logic_error if
  /// the response contradicts a folded constant (the oracle does not match
  /// the netlist).
  DipEncodeStats add_io_pair(const std::vector<bool>& inputs,
                             const std::vector<bool>& response,
                             bool units_only = false);

  /// Key rows resolved to constants so far (by any pair).
  const LutKnowledgeMap& known_rows() const { return known_; }
  int resolved_row_bits() const { return resolved_bits_; }

 private:
  /// Folded value of a cell in one frame under the current pattern: a
  /// constant, a (possibly complemented) key-row literal, or a (possibly
  /// complemented) reference to a complex cell that needs encoding. Cell
  /// `id` of frame f is slot f * nl.size() + id.
  struct EncVal {
    enum Kind : std::uint8_t { kConst, kKey, kCell };
    Kind kind = kConst;
    bool neg = false;  ///< kConst: the value; otherwise: complemented
    CellId node = 0;   ///< kKey: the LUT; kCell: the defining slot
    std::uint32_t row = 0;  ///< kKey only

    bool same_node(const EncVal& o) const {
      return kind == o.kind && node == o.node && row == o.row;
    }
    bool operator==(const EncVal& o) const {
      return same_node(o) && neg == o.neg;
    }
  };

  static EncVal make_const(bool v) { return {EncVal::kConst, v, 0, 0}; }
  int frame_count() const { return frames_ == kScan ? 1 : frames_; }

  void fold_pattern(const std::vector<bool>& inputs);
  EncVal fold_cell(CellId off, CellId id);
  /// AND-normal form of a standard gate whose fan-ins are read at frame
  /// offset `off`: fills `lits` (deduplicated), sets `invert`; returns true
  /// with `folded` set when the gate collapses.
  bool normalize_gate(const Cell& c, CellId off, std::vector<EncVal>& lits,
                      bool& invert, EncVal& folded) const;
  /// Unknown-input positions and the constant base row of a LUT.
  void lut_unknowns(const Cell& c, CellId off, std::vector<EncVal>& unknowns,
                    std::vector<int>& positions, std::uint32_t& base) const;

  void resolve_row(CellId lut, std::uint32_t row, bool value,
                   DipEncodeStats& stats);
  void mark_needed(CellId slot);
  void emit_cell(CellId slot, DipEncodeStats& stats);
  sat::Var copy_out_var(std::size_t copy, CellId slot, DipEncodeStats& stats);
  sat::Lit lit_of(std::size_t copy, const EncVal& v) const;

  sat::Solver* solver_;
  const Netlist* nl_;
  int frames_;      ///< kScan or the sequence length
  CellId n_;        ///< cells per frame
  std::vector<CellId> topo_;  ///< nl's topological order, computed once
  /// Per copy, per LUT cell: that copy's key variables (resolved from the
  /// name-keyed maps once, at construction).
  std::vector<std::vector<std::vector<sat::Var>>> key_by_cell_;

  LutKnowledgeMap known_;
  int resolved_bits_ = 0;

  // Per-pattern scratch over every frame's slots, epoch-stamped to avoid
  // O(cells) clears.
  std::vector<EncVal> vals_;
  std::vector<std::vector<sat::Var>> copy_var_;  ///< [copy][slot]
  std::vector<std::uint32_t> var_stamp_;
  std::vector<std::uint32_t> needed_stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<CellId> dfs_stack_;
  std::vector<EncVal> lit_scratch_;
  std::vector<int> pos_scratch_;
};

}  // namespace stt
