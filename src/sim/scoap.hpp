// SCOAP testability measures (Goldstein's controllability/observability).
//
// The testing attack of Section IV-A.1 must justify LUT input rows
// (controllability) and propagate the LUT output to an observation point
// (observability) — exactly what SCOAP quantifies. The analysis feeds a
// per-LUT *resolvability score* used by the ablation bench: the parametric
// selection's USL closure measurably degrades the attacker's
// controllability/observability around missing gates.
//
// Conventions (standard SCOAP):
//   CC0/CC1(signal) — minimum "effort" to set it to 0/1; PIs cost 1.
//   CO(signal)      — effort to propagate its value to a PO; POs cost 0.
//   Crossing a flip-flop adds a sequential increment to all three.
//
// Each gate's minimum runs over the *prime* cubes of its function (built
// once per distinct fan-in/truth mask), and each relaxation sweep visits
// only the cells whose inputs changed since their last visit: the work is
// near-linear in the netlist, and every value equals a full sweep's.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace stt {

struct ScoapResult {
  std::vector<double> cc0;  ///< indexed by CellId (driver net)
  std::vector<double> cc1;
  std::vector<double> co;
  /// Work done: relaxation sweeps run (forward + backward) and cell visits
  /// (forward re-evaluations + backward scatters).
  int sweeps = 0;
  std::uint64_t evaluations = 0;

  /// Attack effort proxy for one cell: cheapest-row justification cost of
  /// its fan-ins plus observation cost of its output.
  double resolvability(const Netlist& nl, CellId id) const;
};

struct ScoapOptions {
  /// Cost added when crossing a flip-flop (one extra capture cycle).
  double sequential_increment = 5.0;
  /// Cap on the Gauss-Seidel sweeps of each pass. Values decrease
  /// monotonically, but long flip-flop chains settle one stage per sweep:
  /// the forward pass reaches this cap on s38584, so the cap (not a fixed
  /// point) defines the reported values there.
  int max_iterations = 16;
  /// Controllability assigned to unknown-content LUTs' outputs when
  /// `attacker_view` is set: the attacker cannot justify through a missing
  /// gate, so its output costs this much to control.
  bool attacker_view = false;
  double unknown_lut_cost = 1e6;
};

ScoapResult compute_scoap(const Netlist& nl, const ScoapOptions& opt = {});

}  // namespace stt
