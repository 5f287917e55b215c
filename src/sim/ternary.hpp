// Three-valued (0/1/X) values and the Kleene evaluation of one cell.
//
// Whole-netlist three-valued evaluation is sim/partial_eval's
// PartialEvaluator: an unconfigured LUT's output is X by definition there
// (the attacker does not know the configuration), and unknown inputs or
// power-up state are X as well.
#pragma once

#include <cstdint>
#include <span>

#include "netlist/netlist.hpp"

namespace stt {

enum class Tri : std::uint8_t { kZero = 0, kOne = 1, kX = 2 };

inline Tri tri_from_bool(bool b) { return b ? Tri::kOne : Tri::kZero; }
char tri_char(Tri t);

/// Kleene evaluation of one cell as configured (a LUT through its mask):
/// the result is X exactly when both 0 and 1 are achievable over the
/// unknown inputs.
Tri eval_cell_tri(const Cell& cell, std::span<const Tri> fanins);

}  // namespace stt
