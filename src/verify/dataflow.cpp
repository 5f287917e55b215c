#include "verify/dataflow.hpp"

#include <algorithm>

namespace stt {

SupportFunction SupportFunction::constant(bool v) {
  SupportFunction f;
  f.mask = v ? 1ull : 0ull;
  return f;
}

SupportFunction SupportFunction::variable(CellId id) {
  SupportFunction f;
  f.vars = {id};
  f.mask = 0b10;  // row 0 -> 0, row 1 -> 1
  return f;
}

bool SupportFunction::depends_on(CellId v) const {
  return std::find(vars.begin(), vars.end(), v) != vars.end();
}

void SupportFunction::normalize() {
  for (int i = static_cast<int>(vars.size()) - 1; i >= 0; --i) {
    const int k = static_cast<int>(vars.size());
    bool depends = false;
    for (std::uint32_t row = 0; row < num_rows(k) && !depends; ++row) {
      if (row & (1u << i)) continue;
      const std::uint32_t partner = row | (1u << i);
      depends = ((mask >> row) & 1ull) != ((mask >> partner) & 1ull);
    }
    if (depends) continue;
    // Project variable i out: keep the rows where it is 0, repacked.
    std::uint64_t next = 0;
    std::uint32_t out_row = 0;
    for (std::uint32_t row = 0; row < num_rows(k); ++row) {
      if (row & (1u << i)) continue;
      if ((mask >> row) & 1ull) next |= (1ull << out_row);
      ++out_row;
    }
    mask = next;
    vars.erase(vars.begin() + i);
  }
}

namespace {

// Support function of one non-source cell over its fan-ins' functions `fn`.
SupportFunction transfer(const Netlist& nl, CellId id,
                         const std::vector<SupportFunction>& fn,
                         SupportCuts& cuts) {
  const Cell& c = nl.cell(id);
  if (c.kind == CellKind::kConst0) return SupportFunction::constant(false);
  if (c.kind == CellKind::kConst1) return SupportFunction::constant(true);

  const auto cut_here = [&] {
    cuts.cut[id] = 1;
    for (const CellId f : c.fanins) {
      for (const CellId v : fn[f].vars) cuts.absorbed[v] = 1;
    }
    return SupportFunction::variable(id);
  };

  // An unknown LUT is a fresh variable by definition — the attacker does not
  // know its function — and conservatively absorbs its fan-in variables
  // (the secret mask may or may not depend on them).
  if (c.kind == CellKind::kLut) return cut_here();

  // Merge the fan-in supports; overflow of the mask width cuts this cell.
  std::vector<CellId> merged;
  for (const CellId f : c.fanins) {
    for (const CellId v : fn[f].vars) {
      const auto it = std::lower_bound(merged.begin(), merged.end(), v);
      if (it == merged.end() || *it != v) merged.insert(it, v);
    }
  }
  if (static_cast<int>(merged.size()) > kMaxLutInputs) return cut_here();

  const int n = c.fanin_count();
  const int k = static_cast<int>(merged.size());

  // Per fan-in: position of each of its variables inside the merged set.
  std::vector<std::vector<int>> positions(c.fanins.size());
  for (std::size_t i = 0; i < c.fanins.size(); ++i) {
    for (const CellId v : fn[c.fanins[i]].vars) {
      positions[i].push_back(static_cast<int>(
          std::lower_bound(merged.begin(), merged.end(), v) -
          merged.begin()));
    }
  }

  SupportFunction out;
  out.vars = std::move(merged);
  for (std::uint32_t row = 0; row < num_rows(k); ++row) {
    std::uint32_t packed = 0;
    for (std::size_t i = 0; i < c.fanins.size(); ++i) {
      std::uint32_t sub_row = 0;
      for (std::size_t j = 0; j < positions[i].size(); ++j) {
        if (row & (1u << positions[i][j])) sub_row |= (1u << j);
      }
      if ((fn[c.fanins[i]].mask >> sub_row) & 1ull) {
        packed |= (1u << i);
      }
    }
    // eval_gate is arity-generic (wide AND/OR trees included); LUTs were
    // cut above.
    if (eval_gate(c.kind, packed, n)) out.mask |= (1ull << row);
  }
  out.normalize();
  return out;
}

}  // namespace

std::vector<SupportFunction> support_functions(const Netlist& nl,
                                               SupportCuts& cuts) {
  cuts.cut.assign(nl.size(), 0);
  cuts.absorbed.assign(nl.size(), 0);
  std::vector<SupportFunction> fn(nl.size());
  for (const CellId id : nl.topo_order()) {
    // The forward edge stops at a DFF D pin: a state bit is a source.
    const CellKind kind = nl.cell(id).kind;
    fn[id] = kind == CellKind::kInput || kind == CellKind::kDff
                 ? SupportFunction::variable(id)
                 : transfer(nl, id, fn, cuts);
  }
  return fn;
}

std::vector<char> observable_cells(const Netlist& nl) {
  std::vector<char> obs(nl.size(), 0);
  const std::vector<CellId> order = nl.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Cell& c = nl.cell(*it);
    char v = c.is_output ? 1 : 0;
    for (const CellId reader : c.fanouts) {
      // An edge into a DFF D pin is itself an observation point.
      v |= nl.cell(reader).kind == CellKind::kDff ? 1 : obs[reader];
    }
    obs[*it] = v;
  }
  return obs;
}

}  // namespace stt
