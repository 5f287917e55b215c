// Power and area roll-up for pure-CMOS and hybrid STT-CMOS netlists.
//
// Model:
//  * CMOS cell dynamic power  = alpha_cell * E_active * f  (fJ x GHz = uW).
//  * STT LUT dynamic power    = alpha_in * E_cycle * f, where alpha_in is
//    the LUT's *input* transition rate. The MTJ read (precharge/evaluate)
//    is event-driven: it fires when an input changes, and its energy is
//    independent of the configured content and of which input toggled —
//    the data-independence the paper leans on for side-channel robustness
//    (Sec. II). Fig. 1's "Active Power" characterization instead clocks
//    the LUT continuously (the SPICE worst case, see tech/device_model);
//    the sign-off model here is what reproduces Table I's single-digit
//    power overheads.
//  * DFF dynamic power charges the output toggle plus a clock-pin term;
//  * every cell contributes its leakage.
//
// These roll-ups produce Table I's "power overhead %" and "area overhead %".
#pragma once

#include <span>

#include "netlist/netlist.hpp"
#include "tech/tech_library.hpp"

namespace stt {

struct PowerBreakdown {
  double dynamic_uw = 0;
  double leakage_uw = 0;
  double total_uw() const { return dynamic_uw + leakage_uw; }
};

/// `alpha` is the per-cell output switching activity, indexed by CellId;
/// `freq_ghz` the operating clock.
PowerBreakdown estimate_power(const Netlist& nl, const TechLibrary& lib,
                              std::span<const double> alpha, double freq_ghz);

/// Uniform-activity convenience used by the Table I flow (the paper reports
/// power at a fixed nominal activity).
PowerBreakdown estimate_power_uniform(const Netlist& nl,
                                      const TechLibrary& lib, double alpha,
                                      double freq_ghz);

/// Sum of cell footprints in um^2.
double total_area_um2(const Netlist& nl, const TechLibrary& lib);

}  // namespace stt
