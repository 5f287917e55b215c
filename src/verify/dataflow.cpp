#include "verify/dataflow.hpp"

#include <algorithm>
#include <stdexcept>

namespace stt {

namespace {

// Elementary truth tables over 64 rows: bit `row` of kVarMask[i] is bit i
// of `row`, i.e. the table of variable i alone.
constexpr std::uint64_t kVarMask[kMaxLutInputs] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

// Exchange variables a < b of a truth table: the rows where they differ
// trade places, the rest stay.
std::uint64_t swap_vars(std::uint64_t t, int a, int b) {
  const std::uint64_t up = kVarMask[a] & ~kVarMask[b];
  const std::uint64_t down = kVarMask[b] & ~kVarMask[a];
  const int shift = (1 << b) - (1 << a);
  return (t & ~(up | down)) | ((t & up) << shift) | ((t & down) >> shift);
}

// The table of a normalized function `f` re-indexed onto a merged variable
// list in which f's variable j sits at position pos[j] (increasing). The
// result is a full 64-row table whose other variables are vacuous.
std::uint64_t expand(const SupportFunction& f, const int* pos) {
  const int m = static_cast<int>(f.vars.size());
  std::uint64_t t = f.mask;
  for (int v = m; v < kMaxLutInputs; ++v) t |= t << (1u << v);
  // Top variable first: position pos[j] > j is vacuous until j moves there.
  for (int j = m - 1; j >= 0; --j) {
    if (pos[j] != j) t = swap_vars(t, j, pos[j]);
  }
  return t;
}

}  // namespace

void SupportVars::erase(std::size_t i) {
  std::copy(ids_.begin() + i + 1, ids_.begin() + n_, ids_.begin() + i);
  --n_;
}

SupportFunction SupportFunction::constant(bool v) {
  SupportFunction f;
  f.mask = v ? 1ull : 0ull;
  return f;
}

SupportFunction SupportFunction::variable(CellId id) {
  SupportFunction f;
  f.vars.push_back(id);
  f.mask = 0b10;  // row 0 -> 0, row 1 -> 1
  return f;
}

bool SupportFunction::depends_on(CellId v) const {
  return std::find(vars.begin(), vars.end(), v) != vars.end();
}

void SupportFunction::normalize() {
  for (int i = static_cast<int>(vars.size()) - 1; i >= 0; --i) {
    const int k = static_cast<int>(vars.size());
    const std::uint64_t flips = (mask >> (1u << i)) ^ mask;
    if (flips & ~kVarMask[i] & full_mask(k)) continue;
    // Project variable i out: walk it to the top past the others (their
    // order is kept), then keep the half of the table where it is 0.
    for (int a = i; a + 1 < k; ++a) mask = swap_vars(mask, a, a + 1);
    mask &= full_mask(k - 1);
    vars.erase(static_cast<std::size_t>(i));
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
  std::array<CellId, kMaxLutInputs> merged{};
  int k = 0;
  for (const CellId f : c.fanins) {
    for (const CellId v : fn[f].vars) {
      int p = 0;
      while (p < k && merged[p] < v) ++p;
      if (p < k && merged[p] == v) continue;
      if (k == kMaxLutInputs) return cut_here();
      std::copy_backward(merged.begin() + p, merged.begin() + k,
                         merged.begin() + k + 1);
      merged[p] = v;
      ++k;
    }
  }

  // Every fan-in's table over the merged variables, folded through the
  // three word operations the gate vocabulary is built from.
  std::uint64_t all = ~0ull;
  std::uint64_t any = 0;
  std::uint64_t parity = 0;
  for (const CellId f : c.fanins) {
    std::array<int, kMaxLutInputs> pos{};
    int p = 0;
    for (std::size_t j = 0; j < fn[f].vars.size(); ++j) {
      while (merged[p] != fn[f].vars[j]) ++p;
      pos[j] = p;
    }
    const std::uint64_t t = expand(fn[f], pos.data());
    all &= t;
    any |= t;
    parity ^= t;
  }
  std::uint64_t table = 0;
  switch (c.kind) {
    case CellKind::kBuf: table = any; break;
    case CellKind::kNot: table = ~any; break;
    case CellKind::kAnd: table = all; break;
    case CellKind::kNand: table = ~all; break;
    case CellKind::kOr: table = any; break;
    case CellKind::kNor: table = ~any; break;
    case CellKind::kXor: table = parity; break;
    case CellKind::kXnor: table = ~parity; break;
    default:
      throw std::invalid_argument("support_functions: kind has no gate "
                                  "semantics");
  }
  SupportFunction out;
  for (int p = 0; p < k; ++p) out.vars.push_back(merged[p]);
  out.mask = table & full_mask(k);
  out.normalize();
  return out;
}

}  // namespace

std::vector<SupportFunction> support_functions(
    const Netlist& nl, const std::vector<CellId>& order, SupportCuts& cuts) {
  cuts.cut.assign(nl.size(), 0);
  cuts.absorbed.assign(nl.size(), 0);
  std::vector<SupportFunction> fn(nl.size());
  for (const CellId id : order) {
    // The forward edge stops at a DFF D pin: a state bit is a source.
    const CellKind kind = nl.cell(id).kind;
    fn[id] = kind == CellKind::kInput || kind == CellKind::kDff
                 ? SupportFunction::variable(id)
                 : transfer(nl, id, fn, cuts);
  }
  return fn;
}

std::vector<char> observable_cells(const Netlist& nl,
                                   const std::vector<CellId>& order) {
  std::vector<char> obs(nl.size(), 0);
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
