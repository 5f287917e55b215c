// Oracle-guided SAT attack WITHOUT scan access (bounded unrolling).
//
// Section IV-A.3: "it is a common practice that the scan architecture is
// disabled or locked before releasing the design to raise bar against
// different attacks". With no scan chain the attacker can only reset the
// chip, apply primary-input sequences and watch primary outputs, so the
// SAT attack must reason over F unrolled time frames. The unrolling
// multiplies formula size by F, and LUT outputs buried D flip-flops deep
// need F > D frames before they influence any observable output — this is
// precisely the D factor of Eqs. (1)-(3) made executable.
//
// The attack is the F-frame case of the scan attack's DIP loop
// (`run_dip_loop`, attack/sat_attack.hpp): frame f's flip-flop inputs are
// frame f-1's D pins (frame 0 starts from the all-zero reset state) and
// all frames of one copy share one key set. The loop seeks sequences that
// first differ in frame 0, then in frame 1, and so on, asserting each
// exhausted frame's outputs equal, which keeps every UNSAT proof to one
// frame. Responses are constant-folded frame by frame (attack/dip_encode.*).
// There is no warm-up: every random sequence would cost test clocks.
#pragma once

#include "attack/sat_attack.hpp"
#include "netlist/netlist.hpp"
#include "sim/compiled.hpp"

namespace stt {

/// Sequential oracle: reset to all-zero state, apply a PI sequence, return
/// the PO vector of every cycle. This is all a scan-locked chip reveals.
class SequenceOracle {
 public:
  explicit SequenceOracle(const Netlist& configured);

  /// `pi_seq[t]` is the PI vector at cycle t; result[t] the PO vector.
  std::vector<std::vector<bool>> query(
      const std::vector<std::vector<bool>>& pi_seq);

  /// Total cycles applied across all queries (the test-clock cost that
  /// Eqs. (1)-(3) bound).
  std::uint64_t cycles() const { return cycles_; }

 private:
  CompiledSim sim_;                    ///< compiled once
  std::vector<std::uint64_t> state_;   ///< reset to zero per query
  std::vector<std::uint64_t> pi_buf_;  ///< reused per-cycle scratch
  std::vector<std::uint64_t> wave_;
  std::uint64_t cycles_ = 0;
};

struct SeqAttackOptions : attack::CommonAttackOptions {
  /// Historical defaults; `work_budget` is the SAT conflict cap per call.
  SeqAttackOptions() {
    seed = 0;
    time_limit_s = 60.0;
    work_budget = 4'000'000;
  }

  int frames = 8;  ///< unrolling depth (must exceed the circuit's D to win)
  int max_iterations = 256;
};

/// `success()` = no distinguishing sequence within `frames`; `key` is
/// consistent with all observed sequences (when solved); `iterations`
/// counts distinguishing sequences and `queries` the oracle *cycles* this
/// run applied — the test-clock cost Eqs. (1)-(3) bound.
using SeqAttackResult = SatAttackResult;

/// Attack the hybrid netlist through a reset-and-run oracle. On success the
/// key reproduces the oracle on *every* input sequence of length <= frames;
/// longer-horizon behaviour should be validated separately (see tests).
/// Throws std::invalid_argument when `frames` < 1 or `hybrid` has no LUTs.
SeqAttackResult run_sequential_sat_attack(const Netlist& hybrid,
                                          SequenceOracle& oracle,
                                          const SeqAttackOptions& opt = {});

SeqAttackResult run_sequential_sat_attack(const Netlist& hybrid,
                                          const Netlist& configured,
                                          const SeqAttackOptions& opt = {});

}  // namespace stt
