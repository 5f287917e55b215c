// Gate-level sequential netlist: the central data structure of the flow.
//
// A Netlist is a flat multigraph of cells. Primary inputs and D flip-flops
// are the combinational sources; primary outputs (a marking on driver cells)
// and flip-flop D pins are the sinks. The selection-and-replacement stage
// (src/core) edits a Netlist in place by converting CMOS gates to
// reconfigurable LUT cells whose truth-table mask is the configuration
// secret.
//
// Memory layout (million-gate scale): cell names are interned into an
// arena owned by the netlist (`Cell::name` is a stable `std::string_view`,
// and the interner's open-addressing table doubles as the name index, so
// `find()` is an allocation-free lookup); fan-in/fan-out lists are
// `ConnList`s — up to four ids inline, longer lists in pooled storage —
// so constructing a cell performs no heap allocation in the common case
// and `finalize()` rebuilds all fan-outs in one CSR counting pass.
//
// Invariants (checked by `finalize()` / `check()`):
//  * cell names are unique and non-empty;
//  * every fan-in refers to an existing cell, with cardinality legal for the
//    cell kind (see fanin_range);
//  * the combinational subgraph (all edges except those entering a DFF D
//    pin... i.e. edges out of DFF outputs are sources) is acyclic;
//  * fanout lists exactly mirror fan-in lists.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "netlist/celltype.hpp"
#include "netlist/connlist.hpp"
#include "util/interner.hpp"

namespace stt {

inline constexpr CellId kNullCell = static_cast<CellId>(-1);

/// Thrown by `topo_order()` (and so `finalize()`) on a combinational cycle;
/// `cell` names one cell that lies on the cycle.
struct CombinationalCycleError : std::runtime_error {
  CombinationalCycleError(const std::string& netlist, std::string cell_name)
      : std::runtime_error("netlist: combinational cycle through '" +
                           cell_name + "' in '" + netlist + "'"),
        cell(std::move(cell_name)) {}
  std::string cell;
};

struct Cell {
  CellKind kind = CellKind::kBuf;
  bool is_output = false;         ///< drives a primary output
  std::string_view name;          ///< interned; stable for the netlist's life
  ConnList fanins;                ///< driver cells, position-significant
  ConnList fanouts;               ///< reader cells (duplicates allowed)
  std::uint64_t lut_mask = 0;     ///< truth table; meaningful iff kind==kLut

  int fanin_count() const { return static_cast<int>(fanins.size()); }
};

/// Aggregate size statistics, aligned with the paper's Table I "size" column
/// (logic gates excluding flip-flops).
struct NetlistStats {
  std::size_t inputs = 0;
  std::size_t outputs = 0;
  std::size_t dffs = 0;
  std::size_t gates = 0;  ///< combinational logic cells incl. BUF/NOT/LUT
  std::size_t luts = 0;   ///< of which reconfigurable LUTs
  std::size_t constants = 0;
  int max_fanin = 0;
};

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  Netlist(const Netlist& other) { copy_from(other); }
  Netlist& operator=(const Netlist& other) {
    if (this != &other) {
      Netlist tmp(other);
      *this = std::move(tmp);
    }
    return *this;
  }
  Netlist(Netlist&&) noexcept = default;
  Netlist& operator=(Netlist&&) noexcept = default;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // -- construction ---------------------------------------------------------

  /// Pre-size every store for a bulk build: `cells` cells, ~`edges` total
  /// fan-in entries, ~`name_bytes` of name text (0 = estimate). Parsers and
  /// generators call this once up front so the build never rehashes or
  /// reallocates.
  void reserve(std::size_t cells, std::size_t edges,
               std::size_t name_bytes = 0);

  CellId add_input(std::string_view net_name);
  CellId add_const(bool value, std::string_view net_name);
  CellId add_dff(std::string_view net_name, CellId d = kNullCell);
  CellId add_gate(CellKind kind, std::string_view net_name,
                  std::span<const CellId> fanins);
  CellId add_gate(CellKind kind, std::string_view net_name,
                  std::initializer_list<CellId> fanins) {
    return add_gate(kind, net_name, std::span<const CellId>(fanins));
  }
  CellId add_lut(std::string_view net_name, std::span<const CellId> fanins,
                 std::uint64_t mask);
  CellId add_lut(std::string_view net_name,
                 std::initializer_list<CellId> fanins, std::uint64_t mask) {
    return add_lut(net_name, std::span<const CellId>(fanins), mask);
  }

  /// Low-level: create a cell with no fan-ins yet (two-pass parsers).
  CellId add_cell(CellKind kind, std::string_view net_name);

  /// Low-level: set the full fan-in list of a cell. Fanouts are rebuilt by
  /// `finalize()`; callers that edit incrementally use `replace_fanin`.
  void connect(CellId cell, std::span<const CellId> fanins);
  void connect(CellId cell, std::initializer_list<CellId> fanins) {
    connect(cell, std::span<const CellId>(fanins));
  }

  /// Low-level: append one fan-in slot without touching fan-out lists
  /// (parsers resolving forward references; `finalize()` restores sync).
  void append_fanin(CellId cell, CellId driver);

  /// Replace one fan-in slot, updating both fanout lists.
  void replace_fanin(CellId cell, std::size_t slot, CellId new_driver);

  /// Mark a cell as driving a primary output.
  void mark_output(CellId cell);

  /// Rebuild fanout lists (single CSR counting pass) and validate. Must be
  /// called after any batch of `add_cell`/`connect` edits.
  void finalize();

  // -- queries --------------------------------------------------------------

  std::size_t size() const { return cells_.size(); }
  const Cell& cell(CellId id) const {
    assert(id < cells_.size());
    return cells_[id];
  }
  Cell& cell(CellId id) {
    assert(id < cells_.size());
    return cells_[id];
  }

  std::span<const CellId> inputs() const { return inputs_; }
  std::span<const CellId> outputs() const { return outputs_; }
  std::span<const CellId> dffs() const { return dffs_; }

  /// Find a cell by net name; kNullCell if absent. Allocation-free.
  CellId find(std::string_view net_name) const;

  NetlistStats stats() const;

  /// All cell ids in a combinational topological order: PIs, constants and
  /// DFF outputs first, then gates such that every gate follows its drivers.
  /// Throws CombinationalCycleError on a combinational cycle.
  std::vector<CellId> topo_order() const;

  /// Zero-allocation variant for hot callers: fills `out` (capacity is
  /// reused across calls) with the same order `topo_order()` returns.
  void topo_order_into(std::vector<CellId>& out) const;

  /// Ids of all combinational logic cells (gates + LUTs + BUF/NOT), in topo
  /// order.
  std::vector<CellId> logic_cells() const;

  // -- editing --------------------------------------------------------------

  /// Convert a CMOS gate to a reconfigurable LUT. With no explicit mask the
  /// LUT is configured to the gate's original function (functionality-
  /// preserving replacement, as in the paper's flow). Returns the mask that
  /// was installed (the configuration secret for this LUT).
  std::uint64_t replace_with_lut(CellId id);
  void replace_with_lut(CellId id, std::uint64_t mask);

  /// Validate all invariants; throws std::runtime_error with a diagnostic.
  void check() const;

  /// Structural equality (same cells, kinds, names, connectivity, masks).
  bool structurally_equal(const Netlist& other) const;

 private:
  std::string_view register_name(std::string_view net_name, CellId id);
  void rebuild_fanouts();
  void check_impl(bool verify_fanout_sync) const;
  void copy_from(const Netlist& other);

  std::string name_;
  StringInterner names_;     ///< sym i is cell i's name
  ConnPool fanin_pool_;      ///< spilled fan-in lists
  ConnPool fanout_pool_;     ///< spilled fan-out lists; rewound per rebuild
  std::vector<Cell> cells_;
  std::vector<CellId> inputs_;
  std::vector<CellId> outputs_;
  std::vector<CellId> dffs_;
};

}  // namespace stt
