#include "verify/dataflow.hpp"

#include <algorithm>
#include <stdexcept>

namespace stt {

// ---------------------------------------------------------------------------
// TernaryDomain
// ---------------------------------------------------------------------------

Tri TernaryDomain::source(const Netlist& /*nl*/, CellId /*id*/) const {
  return Tri::kX;
}

Tri TernaryDomain::transfer(const Netlist& nl, CellId id,
                            std::span<const Tri> fanins) const {
  const Cell& c = nl.cell(id);
  if (c.kind == CellKind::kConst0) return Tri::kZero;
  if (c.kind == CellKind::kConst1) return Tri::kOne;
  return eval_cell_tri(c, fanins, lut_unknown);
}

// ---------------------------------------------------------------------------
// IntervalDomain
// ---------------------------------------------------------------------------

BitInterval IntervalDomain::source(const Netlist& /*nl*/,
                                   CellId /*id*/) const {
  return BitInterval::top();
}

BitInterval IntervalDomain::transfer(const Netlist& nl, CellId id,
                                     std::span<const BitInterval> fanins)
    const {
  const Cell& c = nl.cell(id);
  if (c.kind == CellKind::kConst0) return BitInterval::constant(false);
  if (c.kind == CellKind::kConst1) return BitInterval::constant(true);
  if (c.kind == CellKind::kLut && lut_unknown) return BitInterval::top();

  const int n = static_cast<int>(fanins.size());

  // Corner enumeration over the non-constant inputs: the output interval is
  // [min, max] over every completion, exact for any single-output function.
  // Wide gates fall back to the ternary transfer (identical result, no
  // 2^free blowup) once the free-input count passes the mask width.
  int free_positions[kMaxLutInputs];
  int n_free = 0;
  std::uint32_t base_row = 0;
  bool too_wide = n > kMaxLutInputs;
  for (int i = 0; i < n && !too_wide; ++i) {
    const BitInterval& v = fanins[static_cast<std::size_t>(i)];
    if (v.is_constant()) {
      if (v.lo) base_row |= (1u << i);
    } else if (n_free < kMaxLutInputs) {
      free_positions[n_free++] = i;
    } else {
      too_wide = true;
    }
  }
  if (too_wide) {
    std::vector<Tri> tri(fanins.size());
    for (std::size_t i = 0; i < fanins.size(); ++i) {
      tri[i] = fanins[i].to_tri();
    }
    const Tri out = eval_cell_tri(c, tri, lut_unknown);
    if (out == Tri::kX) return BitInterval::top();
    return BitInterval::constant(out == Tri::kOne);
  }

  const std::uint64_t mask = c.kind == CellKind::kLut
                                 ? c.lut_mask
                                 : gate_truth_mask(c.kind, n);
  std::uint8_t lo = 1;
  std::uint8_t hi = 0;
  for (std::uint32_t combo = 0; combo < (1u << n_free); ++combo) {
    std::uint32_t row = base_row;
    for (int j = 0; j < n_free; ++j) {
      if (combo & (1u << j)) row |= (1u << free_positions[j]);
    }
    const std::uint8_t bit = (mask >> row) & 1ull;
    lo = std::min(lo, bit);
    hi = std::max(hi, bit);
  }
  return {lo, hi};
}

// ---------------------------------------------------------------------------
// SupportFunction / SupportDomain
// ---------------------------------------------------------------------------

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

SupportFunction SupportDomain::source(const Netlist& /*nl*/,
                                      CellId id) const {
  return SupportFunction::variable(id);
}

SupportFunction SupportDomain::transfer(
    const Netlist& nl, CellId id,
    std::span<const SupportFunction> fanins) const {
  const Cell& c = nl.cell(id);
  if (c.kind == CellKind::kConst0) return SupportFunction::constant(false);
  if (c.kind == CellKind::kConst1) return SupportFunction::constant(true);

  if (cut_state == nullptr) {
    throw std::logic_error("SupportDomain: cut_state not attached");
  }
  auto cut_here = [&](bool absorbs_fanins) {
    cut_state->cut[id] = 1;
    if (absorbs_fanins) {
      for (const SupportFunction& f : fanins) {
        for (const CellId v : f.vars) cut_state->absorbed[v] = 1;
      }
    }
    return SupportFunction::variable(id);
  };

  // An unknown LUT is a fresh variable by definition — the attacker does not
  // know its function — and conservatively absorbs its fan-in variables
  // (the secret mask may or may not depend on them).
  if (c.kind == CellKind::kLut && lut_unknown) return cut_here(true);

  // Merge the fan-in supports; overflow of the mask width cuts this cell.
  std::vector<CellId> merged;
  for (const SupportFunction& f : fanins) {
    for (const CellId v : f.vars) {
      const auto it = std::lower_bound(merged.begin(), merged.end(), v);
      if (it == merged.end() || *it != v) merged.insert(it, v);
    }
  }
  if (static_cast<int>(merged.size()) > kMaxLutInputs) return cut_here(true);

  const int n = c.fanin_count();
  const int k = static_cast<int>(merged.size());

  // Per fan-in: position of each of its variables inside the merged set.
  std::vector<std::vector<int>> positions(fanins.size());
  for (std::size_t i = 0; i < fanins.size(); ++i) {
    for (const CellId v : fanins[i].vars) {
      positions[i].push_back(static_cast<int>(
          std::lower_bound(merged.begin(), merged.end(), v) -
          merged.begin()));
    }
  }

  SupportFunction out;
  out.vars = std::move(merged);
  for (std::uint32_t row = 0; row < num_rows(k); ++row) {
    std::uint32_t packed = 0;
    for (std::size_t i = 0; i < fanins.size(); ++i) {
      std::uint32_t sub_row = 0;
      for (std::size_t j = 0; j < positions[i].size(); ++j) {
        if (row & (1u << positions[i][j])) sub_row |= (1u << j);
      }
      if ((fanins[i].mask >> sub_row) & 1ull) {
        packed |= (1u << i);
      }
    }
    // eval_gate is arity-generic (wide AND/OR trees included); only the LUT
    // needs its mask.
    const bool out_bit = c.kind == CellKind::kLut
                             ? ((c.lut_mask >> packed) & 1ull) != 0
                             : eval_gate(c.kind, packed, n);
    if (out_bit) out.mask |= (1ull << row);
  }
  out.normalize();
  return out;
}

}  // namespace stt
