#include "core/packing.hpp"

#include "obs/obs.hpp"
#include "timing/sta.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace stt {

namespace {

// Truth mask of any combinational cell with a function (gate or LUT).
std::uint64_t cell_mask(const Cell& c) {
  if (c.kind == CellKind::kLut) return c.lut_mask;
  return gate_truth_mask(c.kind, c.fanin_count());
}

bool absorbable(const Netlist& nl, CellId g) {
  const Cell& c = nl.cell(g);
  if (!is_replaceable_gate(c.kind) && c.kind != CellKind::kLut) return false;
  if (c.is_output) return false;
  return c.fanouts.size() == 1 ||
         (std::adjacent_find(c.fanouts.begin(), c.fanouts.end(),
                             std::not_equal_to<>()) == c.fanouts.end() &&
          !c.fanouts.empty());
  // (all fanout entries equal = the same reader on several pins)
}

// Combinational fan-out cone of one root at a time (exclusive of flip-flop
// frontiers): cells reachable through fan-out edges without crossing into a
// DFF. One buffer serves every root: a new cone clears only the cells the
// previous one marked, so a cone costs its own size, not the netlist's.
class CombFanoutCone {
 public:
  explicit CombFanoutCone(std::size_t cells) : in_cone_(cells, 0) {}

  void build(const Netlist& nl, CellId root) {
    for (const CellId v : members_) in_cone_[v] = 0;
    members_.assign(1, root);
    in_cone_[root] = 1;
    // members_ doubles as the work list: everything past `next` is unvisited.
    for (std::size_t next = 0; next < members_.size(); ++next) {
      for (const CellId v : nl.cell(members_[next]).fanouts) {
        if (nl.cell(v).kind == CellKind::kDff || in_cone_[v]) continue;
        in_cone_[v] = 1;
        members_.push_back(v);
      }
    }
  }
  bool contains(CellId v) const { return in_cone_[v] != 0; }

 private:
  std::vector<char> in_cone_;
  std::vector<CellId> members_;
};

// Try to absorb one driver of LUT `lut`; returns true on success. `accept`
// is consulted after the tentative rewrite (timing guard); on rejection the
// rewrite is reverted.
bool absorb_one(Netlist& nl, CellId lut, int max_inputs, Rng& rng,
                const std::function<bool()>& accept) {
  Cell& l = nl.cell(lut);
  std::vector<int> slots(l.fanins.size());
  for (std::size_t i = 0; i < slots.size(); ++i) slots[i] = static_cast<int>(i);
  rng.shuffle(slots);

  for (const int slot : slots) {
    const CellId g = l.fanins[slot];
    if (g == lut || !absorbable(nl, g)) continue;
    const Cell& gc = nl.cell(g);

    // New fan-in list: L's fanins with every g occurrence dropped, then
    // g's fanins not already present.
    std::vector<CellId> fanins;
    for (const CellId f : l.fanins) {
      if (f != g && std::find(fanins.begin(), fanins.end(), f) == fanins.end()) {
        fanins.push_back(f);
      }
    }
    std::vector<int> outer_pos(l.fanins.size(), -1);  // L slot -> new index
    for (std::size_t i = 0; i < l.fanins.size(); ++i) {
      if (l.fanins[i] == g) continue;
      outer_pos[i] = static_cast<int>(
          std::find(fanins.begin(), fanins.end(), l.fanins[i]) -
          fanins.begin());
    }
    std::vector<int> inner_pos(gc.fanins.size(), -1);  // g slot -> new index
    for (std::size_t i = 0; i < gc.fanins.size(); ++i) {
      auto it = std::find(fanins.begin(), fanins.end(), gc.fanins[i]);
      if (it == fanins.end()) {
        fanins.push_back(gc.fanins[i]);
        it = fanins.end() - 1;
      }
      inner_pos[i] = static_cast<int>(it - fanins.begin());
    }
    if (static_cast<int>(fanins.size()) > max_inputs) continue;

    // Composed truth table over the merged fan-in list.
    const std::uint64_t g_mask = cell_mask(gc);
    const std::uint64_t l_mask = l.lut_mask;
    std::uint64_t mask = 0;
    const int k = static_cast<int>(fanins.size());
    for (std::uint32_t row = 0; row < num_rows(k); ++row) {
      std::uint32_t g_row = 0;
      for (std::size_t i = 0; i < gc.fanins.size(); ++i) {
        if (row & (1u << inner_pos[i])) g_row |= (1u << i);
      }
      const bool g_out = (g_mask >> g_row) & 1ull;
      std::uint32_t l_row = 0;
      for (std::size_t i = 0; i < l.fanins.size(); ++i) {
        const bool v = (l.fanins[i] == g)
                           ? g_out
                           : ((row & (1u << outer_pos[i])) != 0);
        if (v) l_row |= (1u << i);
      }
      if ((l_mask >> l_row) & 1ull) mask |= (1ull << row);
    }

    const std::vector<CellId> old_fanins(l.fanins.begin(), l.fanins.end());
    const std::uint64_t old_mask = l.lut_mask;
    nl.connect(lut, std::move(fanins));
    nl.cell(lut).lut_mask = mask;
    if (accept && !accept()) {
      nl.connect(lut, old_fanins);
      nl.cell(lut).lut_mask = old_mask;
      continue;
    }
    return true;
  }
  return false;
}

}  // namespace

std::uint64_t compose_masks(std::uint64_t outer_mask, int outer_fanin,
                            int slot, std::uint64_t inner_mask,
                            int inner_fanin) {
  if (slot < 0 || slot >= outer_fanin) {
    throw std::invalid_argument("compose_masks: bad slot");
  }
  const int k = outer_fanin - 1 + inner_fanin;
  if (k > kMaxLutInputs) {
    throw std::invalid_argument("compose_masks: result too wide");
  }
  std::uint64_t mask = 0;
  for (std::uint32_t row = 0; row < num_rows(k); ++row) {
    // Bits [0, outer_fanin-1) are the outer inputs minus `slot` (original
    // relative order); bits from outer_fanin-1 are the inner inputs.
    const std::uint32_t inner_row = row >> (outer_fanin - 1);
    const bool inner_out = (inner_mask >> inner_row) & 1ull;
    std::uint32_t outer_row = 0;
    int cursor = 0;
    for (int i = 0; i < outer_fanin; ++i) {
      bool v;
      if (i == slot) {
        v = inner_out;
      } else {
        v = (row >> cursor) & 1u;
        ++cursor;
      }
      if (v) outer_row |= (1u << i);
    }
    if ((outer_mask >> outer_row) & 1ull) mask |= (1ull << row);
  }
  return mask;
}

PackingResult pack_complex_functions(Netlist& nl, const PackingOptions& opt) {
  STTLOCK_SPAN("flow-stage", "packing");
  PackingResult result;
  Rng rng(opt.seed ^ 0x9ac4c09b1e5full);
  std::vector<CellId> luts;
  for (const CellId id : nl.topo_order()) {
    if (nl.cell(id).kind == CellKind::kLut) luts.push_back(id);
  }

  std::function<bool()> accept;
  if (opt.lib) {
    accept = [&nl, &opt] {
      const Sta sta(*opt.lib);
      return sta.analyze(nl).critical_delay_ps <= opt.max_delay_ps + 1e-9;
    };
  }

  for (int round = 0; round < opt.absorb_rounds; ++round) {
    for (const CellId lut : luts) {
      if (absorb_one(nl, lut, opt.max_inputs, rng, accept)) {
        ++result.absorbed_gates;
      }
    }
  }

  CombFanoutCone cone(nl.size());
  for (const CellId lut : luts) {
    for (int d = 0; d < opt.dummies_per_lut; ++d) {
      Cell& l = nl.cell(lut);
      const int k = l.fanin_count();
      if (k >= opt.max_inputs) break;
      cone.build(nl, lut);
      CellId dummy = kNullCell;
      for (int attempt = 0; attempt < 64; ++attempt) {
        const auto candidate =
            static_cast<CellId>(rng.below(nl.size()));
        const Cell& cc = nl.cell(candidate);
        if (cone.contains(candidate)) continue;
        if (candidate == lut) continue;
        if (std::find(l.fanins.begin(), l.fanins.end(), candidate) !=
            l.fanins.end()) {
          continue;
        }
        if (cc.kind == CellKind::kConst0 || cc.kind == CellKind::kConst1) {
          continue;  // a constant dummy would be obvious
        }
        dummy = candidate;
        break;
      }
      if (dummy == kNullCell) break;
      // Widen: the new (MSB) input is ignored by the function.
      const std::uint64_t base = l.lut_mask & full_mask(k);
      const std::vector<CellId> old_fanins(l.fanins.begin(), l.fanins.end());
      std::vector<CellId> fanins = old_fanins;
      fanins.push_back(dummy);
      nl.connect(lut, fanins);
      nl.cell(lut).lut_mask = base | (base << num_rows(k));
      if (accept && !accept()) {
        nl.connect(lut, old_fanins);
        nl.cell(lut).lut_mask = base;
        break;  // no slack for wider LUTs here
      }
      ++result.dummies_added;
    }
  }
  return result;
}


}  // namespace stt
