// Static timing analysis over the combinational fabric.
//
// Timing graph: primary inputs launch at t=0; flip-flop outputs launch at
// clk-to-Q; gates add a library delay plus a linear fan-out load term;
// endpoints are primary outputs and flip-flop D pins (the latter charged a
// setup margin). The critical delay is the minimum feasible clock period.
//
// This is the timing engine behind: Table I's "performance degradation"
// column (critical delay of hybrid vs original), the critical-path filter in
// the path-pool construction, and the feasibility check inside parametric-
// aware selection.
#pragma once

#include <vector>

#include "netlist/netlist.hpp"
#include "tech/tech_library.hpp"

namespace stt {

struct TimingResult {
  std::vector<double> arrival_ps;  ///< per cell-output, indexed by CellId
  double critical_delay_ps = 0;    ///< worst endpoint arrival (min period)
  CellId worst_endpoint = kNullCell;
  /// The worst path, source to endpoint (cells whose output lies on it).
  std::vector<CellId> critical_path;
};

class Sta {
 public:
  /// Keeps a pointer to `lib`, which must outlive the analyzer.
  explicit Sta(const TechLibrary& lib) : lib_(&lib) {}
  explicit Sta(const TechLibrary&&) = delete;

  /// Propagation delay of one cell including its fan-out load term.
  double cell_delay_ps(const Netlist& nl, CellId id) const;

  TimingResult analyze(const Netlist& nl) const;

  /// Per-cell slack against a target clock period. Negative slack means the
  /// cell lies on a path that violates the period.
  std::vector<double> slacks(const Netlist& nl, const TimingResult& timing,
                             double period_ps) const;

 private:
  const TechLibrary* lib_;
};

}  // namespace stt
