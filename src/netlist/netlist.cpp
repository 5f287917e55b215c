#include "netlist/netlist.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/strings.hpp"

namespace stt {

namespace {

[[noreturn]] void fail(const std::string& msg) {
  throw std::runtime_error("netlist: " + msg);
}

[[noreturn]] void fail_at(std::string_view cell_name, const char* before,
                          const std::string& after = "") {
  fail(std::string(before) + "'" + std::string(cell_name) + "'" + after);
}

// Scratch for the allocation-free finalize/topo passes. Thread-local so
// concurrent topo_order() calls on a shared const netlist stay race-free;
// capacity is retained across calls, so steady-state traversals allocate
// nothing.
struct TopoScratch {
  std::vector<std::uint32_t> counts;
  std::vector<CellId> ready;
};

TopoScratch& topo_scratch() {
  thread_local TopoScratch scratch;
  return scratch;
}

}  // namespace

std::string_view Netlist::register_name(std::string_view net_name,
                                        CellId id) {
  if (net_name.empty()) fail("empty net name");
  bool inserted = false;
  const StringInterner::Sym sym = names_.intern(net_name, inserted);
  if (!inserted) {
    fail("duplicate net name '" + std::string(net_name) + "'");
  }
  // One interned name per cell, in cell order: the symbol IS the cell id,
  // which is what makes find() a bare interner lookup.
  assert(sym == id);
  (void)id;
  return names_.view(sym);
}

void Netlist::reserve(std::size_t cells, std::size_t edges,
                      std::size_t name_bytes) {
  cells_.reserve(cells);
  names_.reserve(cells, name_bytes ? name_bytes : cells * 8);
  fanin_pool_.reserve(edges / 4);  // only lists spilling past inline storage
  fanout_pool_.reserve(edges / 2);
}

CellId Netlist::add_cell(CellKind kind, std::string_view net_name) {
  const auto id = static_cast<CellId>(cells_.size());
  const std::string_view stable = register_name(net_name, id);
  Cell c;
  c.kind = kind;
  c.name = stable;
  cells_.push_back(c);
  if (kind == CellKind::kInput) inputs_.push_back(id);
  if (kind == CellKind::kDff) dffs_.push_back(id);
  return id;
}

CellId Netlist::add_input(std::string_view net_name) {
  return add_cell(CellKind::kInput, net_name);
}

CellId Netlist::add_const(bool value, std::string_view net_name) {
  return add_cell(value ? CellKind::kConst1 : CellKind::kConst0, net_name);
}

CellId Netlist::add_dff(std::string_view net_name, CellId d) {
  const CellId id = add_cell(CellKind::kDff, net_name);
  if (d != kNullCell) connect(id, {d});
  return id;
}

CellId Netlist::add_gate(CellKind kind, std::string_view net_name,
                         std::span<const CellId> fanins) {
  const auto range = fanin_range(kind);
  if (static_cast<int>(fanins.size()) < range.min ||
      static_cast<int>(fanins.size()) > range.max) {
    fail("illegal fan-in count for " + std::string(kind_name(kind)) +
         " '" + std::string(net_name) + "'");
  }
  const CellId id = add_cell(kind, net_name);
  connect(id, fanins);
  return id;
}

CellId Netlist::add_lut(std::string_view net_name,
                        std::span<const CellId> fanins, std::uint64_t mask) {
  const CellId id = add_gate(CellKind::kLut, net_name, fanins);
  cells_[id].lut_mask = mask & full_mask(cells_[id].fanin_count());
  return id;
}

void Netlist::connect(CellId cell_id, std::span<const CellId> fanins) {
  Cell& c = cell(cell_id);
  // Withdraw previous fanout registrations.
  for (const CellId old : c.fanins) {
    if (old == kNullCell) continue;
    cell(old).fanouts.remove_first(cell_id);
  }
  c.fanins.assign(fanins.data(), fanins.size(), fanin_pool_);
  for (const CellId driver : c.fanins) {
    if (driver == kNullCell) continue;  // resolved later by a parser pass
    cell(driver).fanouts.push_back(cell_id, fanout_pool_);
  }
}

void Netlist::append_fanin(CellId cell_id, CellId driver) {
  cell(cell_id).fanins.push_back(driver, fanin_pool_);
}

void Netlist::replace_fanin(CellId cell_id, std::size_t slot,
                            CellId new_driver) {
  Cell& c = cell(cell_id);
  if (slot >= c.fanins.size()) fail("replace_fanin: slot out of range");
  const CellId old = c.fanins[slot];
  if (old != kNullCell) {
    cell(old).fanouts.remove_first(cell_id);
  }
  c.fanins[slot] = new_driver;
  if (new_driver != kNullCell) {
    cell(new_driver).fanouts.push_back(cell_id, fanout_pool_);
  }
}

void Netlist::mark_output(CellId cell_id) {
  Cell& c = cell(cell_id);
  if (!c.is_output) {
    c.is_output = true;
    outputs_.push_back(cell_id);
  }
}

void Netlist::rebuild_fanouts() {
  // CSR counting pass: exact-size every fan-out list, then fill in the
  // same (reader id, fan-in slot) order the seed's push_back loop used, so
  // fan-out list contents are byte-identical to the incremental path.
  const std::size_t n = cells_.size();
  std::vector<std::uint32_t>& counts = topo_scratch().counts;
  counts.assign(n, 0);
  for (CellId id = 0; id < n; ++id) {
    for (const CellId driver : cells_[id].fanins) {
      if (driver == kNullCell) {
        fail_at(cells_[id].name, "unresolved fan-in on ");
      }
      if (driver >= n) fail_at(cells_[id].name, "cell ", " has a dangling fan-in");
      ++counts[driver];
    }
  }
  fanout_pool_.reset();
  for (CellId id = 0; id < n; ++id) {
    cells_[id].fanouts.rebuild_exact(counts[id], fanout_pool_);
  }
  for (CellId id = 0; id < n; ++id) {
    for (const CellId driver : cells_[id].fanins) {
      cells_[driver].fanouts.push_back_reserved(id);
    }
  }
}

void Netlist::finalize() {
  rebuild_fanouts();
  // Fan-out sync holds by construction after the CSR pass; verifying it
  // again would be the quadratic hot spot the seed paid on every load.
  check_impl(false);
}

CellId Netlist::find(std::string_view net_name) const {
  const StringInterner::Sym sym = names_.lookup(net_name);
  return sym == StringInterner::kNoSym ? kNullCell : sym;
}

NetlistStats Netlist::stats() const {
  NetlistStats s;
  s.inputs = inputs_.size();
  s.outputs = outputs_.size();
  s.dffs = dffs_.size();
  for (const Cell& c : cells_) {
    s.max_fanin = std::max(s.max_fanin, c.fanin_count());
    switch (c.kind) {
      case CellKind::kInput:
      case CellKind::kDff:
        break;
      case CellKind::kConst0:
      case CellKind::kConst1:
        ++s.constants;
        break;
      case CellKind::kLut:
        ++s.gates;
        ++s.luts;
        break;
      default:
        ++s.gates;
    }
  }
  return s;
}

void Netlist::topo_order_into(std::vector<CellId>& order) const {
  const std::size_t n = cells_.size();
  // Kahn over preallocated rank arrays; the explicit stack preserves the
  // seed's scheduling sequence exactly (sources pushed in id order, LIFO).
  TopoScratch& scratch = topo_scratch();
  std::vector<std::uint32_t>& pending = scratch.counts;
  std::vector<CellId>& ready = scratch.ready;
  pending.assign(n, 0);
  order.clear();
  order.reserve(n);
  ready.clear();
  ready.reserve(n);

  for (CellId id = 0; id < n; ++id) {
    const Cell& c = cells_[id];
    if (c.kind == CellKind::kInput || c.kind == CellKind::kDff ||
        c.fanins.empty()) {
      // Sources of the combinational graph: PIs, DFF outputs, constants.
      ready.push_back(id);
    } else {
      pending[id] = c.fanins.size();
    }
  }

  while (!ready.empty()) {
    const CellId id = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (const CellId reader : cells_[id].fanouts) {
      if (cells_[reader].kind == CellKind::kDff) continue;  // sequential edge
      if (--pending[reader] == 0) ready.push_back(reader);
    }
  }

  // DFF D-pin edges were skipped above, so DFF cells appeared as sources and
  // combinational cells must all be scheduled; anything left is a cycle.
  // Every unscheduled cell still waits on an unscheduled driver, so walking
  // those drivers backwards must revisit a cell, and that cell is on a cycle.
  if (order.size() != n) {
    CellId id = 0;
    while (pending[id] == 0) ++id;
    std::vector<char> seen(n, 0);
    while (!seen[id]) {
      seen[id] = 1;
      for (const CellId driver : cells_[id].fanins) {
        if (pending[driver] != 0) {
          id = driver;
          break;
        }
      }
    }
    throw CombinationalCycleError(name_, std::string(cells_[id].name));
  }
}

std::vector<CellId> Netlist::topo_order() const {
  std::vector<CellId> order;
  topo_order_into(order);
  return order;
}

std::vector<CellId> Netlist::logic_cells() const {
  std::vector<CellId> out;
  for (const CellId id : topo_order()) {
    const Cell& c = cells_[id];
    if (is_combinational(c.kind) && c.kind != CellKind::kConst0 &&
        c.kind != CellKind::kConst1) {
      out.push_back(id);
    }
  }
  return out;
}

std::uint64_t Netlist::replace_with_lut(CellId id) {
  const Cell& c = cell(id);
  if (!is_replaceable_gate(c.kind)) {
    fail("replace_with_lut: cell '" + std::string(c.name) + "' (" +
         std::string(kind_name(c.kind)) + ") is not replaceable");
  }
  if (c.fanin_count() > kMaxLutInputs) {
    fail_at(c.name, "replace_with_lut: fan-in of ", " exceeds LUT capacity");
  }
  const std::uint64_t mask = gate_truth_mask(c.kind, c.fanin_count());
  replace_with_lut(id, mask);
  return mask;
}

void Netlist::replace_with_lut(CellId id, std::uint64_t mask) {
  Cell& c = cell(id);
  if (!is_replaceable_gate(c.kind) && c.kind != CellKind::kLut) {
    fail_at(c.name, "replace_with_lut: cell ", " is not replaceable");
  }
  if (c.fanin_count() > kMaxLutInputs) {
    fail_at(c.name, "replace_with_lut: fan-in of ", " exceeds LUT capacity");
  }
  c.kind = CellKind::kLut;
  c.lut_mask = mask & full_mask(c.fanin_count());
}

void Netlist::check() const { check_impl(true); }

void Netlist::check_impl(bool verify_fanout_sync) const {
  if (names_.size() != cells_.size()) fail("name map out of sync");
  for (CellId id = 0; id < cells_.size(); ++id) {
    const Cell& c = cells_[id];
    const auto range = fanin_range(c.kind);
    if (c.fanin_count() < range.min || c.fanin_count() > range.max) {
      fail("cell '" + std::string(c.name) + "' has illegal fan-in count " +
           std::to_string(c.fanin_count()));
    }
    for (const CellId driver : c.fanins) {
      if (driver == kNullCell || driver >= cells_.size()) {
        fail_at(c.name, "cell ", " has a dangling fan-in");
      }
    }
  }
  if (verify_fanout_sync) {
    // Multiset equality of (driver, reader) edges seen from both sides, in
    // O(E log E) instead of the seed's per-pair counting scans.
    std::vector<std::uint64_t> from_fanins;
    std::vector<std::uint64_t> from_fanouts;
    for (CellId id = 0; id < cells_.size(); ++id) {
      for (const CellId driver : cells_[id].fanins) {
        from_fanins.push_back((std::uint64_t{driver} << 32) | id);
      }
      for (const CellId reader : cells_[id].fanouts) {
        from_fanouts.push_back((std::uint64_t{id} << 32) | reader);
      }
    }
    std::sort(from_fanins.begin(), from_fanins.end());
    std::sort(from_fanouts.begin(), from_fanouts.end());
    if (from_fanins != from_fanouts) {
      // Rare path: recover a culprit cell name for the diagnostic.
      for (CellId id = 0; id < cells_.size(); ++id) {
        const Cell& c = cells_[id];
        for (const CellId driver : c.fanins) {
          const auto expect = static_cast<std::size_t>(
              std::count(c.fanins.begin(), c.fanins.end(), driver));
          const auto& outs = cells_[driver].fanouts;
          const auto have = static_cast<std::size_t>(
              std::count(outs.begin(), outs.end(), id));
          if (have != expect) {
            fail_at(c.name, "fanout list out of sync at ");
          }
        }
      }
      fail("fanout list out of sync");
    }
  }
  (void)topo_order();  // throws on combinational cycles
}

bool Netlist::structurally_equal(const Netlist& other) const {
  if (cells_.size() != other.cells_.size()) return false;
  if (outputs_.size() != other.outputs_.size()) return false;
  for (CellId id = 0; id < cells_.size(); ++id) {
    const Cell& a = cells_[id];
    const Cell& b = other.cells_[id];
    if (a.kind != b.kind || a.name != b.name || a.fanins != b.fanins ||
        a.is_output != b.is_output) {
      return false;
    }
    if (a.kind == CellKind::kLut && a.lut_mask != b.lut_mask) return false;
  }
  return true;
}

void Netlist::copy_from(const Netlist& other) {
  name_ = other.name_;
  names_ = other.names_;  // deep arena copy; symbols preserved
  cells_ = other.cells_;  // conn lists still alias other's pools here
  inputs_ = other.inputs_;
  outputs_ = other.outputs_;
  dffs_ = other.dffs_;
  // Re-point names into our arena and re-house spilled lists into our
  // pools; inline lists were copied by value already.
  for (CellId id = 0; id < cells_.size(); ++id) {
    Cell& c = cells_[id];
    c.name = names_.view(id);
    if (c.fanins.spilled()) {
      ConnList housed;
      housed.rehouse_from(other.cells_[id].fanins, fanin_pool_);
      c.fanins = housed;
    }
    if (c.fanouts.spilled()) {
      ConnList housed;
      housed.rehouse_from(other.cells_[id].fanouts, fanout_pool_);
      c.fanouts = housed;
    }
  }
}

}  // namespace stt
