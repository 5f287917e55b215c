#include "sim/ternary.hpp"

#include <stdexcept>

namespace stt {

char tri_char(Tri t) {
  switch (t) {
    case Tri::kZero: return '0';
    case Tri::kOne: return '1';
    case Tri::kX: return 'X';
  }
  return '?';
}

Tri eval_cell_tri(const Cell& cell, std::span<const Tri> fanins) {
  const int n = static_cast<int>(fanins.size());
  if (n > kMaxLutInputs) {
    // Wide standard gates: direct Kleene evaluation (no mask fits).
    int ones = 0;
    int zeros = 0;
    int unknowns = 0;
    for (const Tri v : fanins) {
      if (v == Tri::kOne) ++ones;
      if (v == Tri::kZero) ++zeros;
      if (v == Tri::kX) ++unknowns;
    }
    switch (cell.kind) {
      case CellKind::kAnd:
        return zeros ? Tri::kZero : (unknowns ? Tri::kX : Tri::kOne);
      case CellKind::kNand:
        return zeros ? Tri::kOne : (unknowns ? Tri::kX : Tri::kZero);
      case CellKind::kOr:
        return ones ? Tri::kOne : (unknowns ? Tri::kX : Tri::kZero);
      case CellKind::kNor:
        return ones ? Tri::kZero : (unknowns ? Tri::kX : Tri::kOne);
      case CellKind::kXor:
        return unknowns ? Tri::kX
                        : ((ones & 1) ? Tri::kOne : Tri::kZero);
      case CellKind::kXnor:
        return unknowns ? Tri::kX
                        : ((ones & 1) ? Tri::kZero : Tri::kOne);
      default:
        throw std::invalid_argument("eval_cell_tri: fan-in too large");
    }
  }

  // Enumerate completions of the unknown inputs; if all agree the output is
  // known. With n <= 6 this costs at most 64 evaluations.
  std::uint32_t known_bits = 0;
  std::uint32_t unknown_positions[kMaxLutInputs];
  int n_unknown = 0;
  for (int i = 0; i < n; ++i) {
    if (fanins[i] == Tri::kX) {
      unknown_positions[n_unknown++] = static_cast<std::uint32_t>(i);
    } else if (fanins[i] == Tri::kOne) {
      known_bits |= (1u << i);
    }
  }

  const std::uint64_t mask = cell.kind == CellKind::kLut
                                 ? cell.lut_mask
                                 : gate_truth_mask(cell.kind, n);
  bool saw0 = false;
  bool saw1 = false;
  for (std::uint32_t combo = 0; combo < (1u << n_unknown); ++combo) {
    std::uint32_t row = known_bits;
    for (int j = 0; j < n_unknown; ++j) {
      if (combo & (1u << j)) row |= (1u << unknown_positions[j]);
    }
    ((mask >> row) & 1ull) ? saw1 = true : saw0 = true;
    if (saw0 && saw1) return Tri::kX;
  }
  return saw1 ? Tri::kOne : Tri::kZero;
}

}  // namespace stt
