// Cycle-accurate power-trace simulation for side-channel experiments.
//
// Section II claims a security benefit beyond reverse engineering:
// "STT-based LUT power consumption is almost insensitive to its input
// changes … more robust against power-based side channel attacks." The
// trace model makes that testable:
//
//  * a CMOS cell draws E_active whenever its *output* toggles — the
//    data-dependent component a differential power attacker exploits;
//  * an STT LUT draws E_cycle per *input transition event*, independent of
//    its configured content and of the output value — the read current is
//    the same whichever MTJ branch is selected;
//  * flip-flops draw clock power plus data-toggle power; everything leaks
//    a constant baseline; Gaussian measurement noise is added on top.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/packed_rows.hpp"
#include "tech/tech_library.hpp"
#include "util/rng.hpp"

namespace stt {

struct TraceOptions {
  std::uint64_t seed = 1;
  int cycles = 512;
  double input_toggle = 0.5;  ///< per-cycle PI toggle probability
  double noise_sigma_fj = 0.0;  ///< Gaussian measurement noise per sample
};

struct PowerTraceResult {
  /// One energy sample (fJ) per simulated cycle.
  std::vector<double> trace_fj;
  /// The applied stimulus, for attacker-side prediction: `pi.bit(i, t)` is
  /// input i in cycle t. Packed as `eval_batch` reads it.
  PackedRows pi;
  /// Observed state before each cycle: `state.bit(j, t)` is flip-flop j.
  PackedRows state;
};

/// Simulate `opt.cycles` clock cycles under a random PI stimulus and return
/// one energy sample per cycle, under a `power/trace` span. The state
/// trajectory is the only serial dependency, so it runs one cycle at a
/// time over the D-pin fan-in cone alone; every cell's values over all
/// cycles then come from a batch evaluation, 64 cycles per word, and
/// toggles are lane-shifted XORs of those words. Each sample sums its
/// terms in ascending cell id, the order a one-cycle-at-a-time simulation
/// adds them in, so the samples are the same bits.
PowerTraceResult simulate_power_trace(const Netlist& nl,
                                      const TechLibrary& lib,
                                      const TraceOptions& opt = {});

}  // namespace stt
