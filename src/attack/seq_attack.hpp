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
// The implementation unrolls inside the solver: frame f's flip-flop inputs
// are frame f-1's D-pin variables (frame 0 starts from the all-zero reset
// state), all frames of one copy share one key-variable set, and the miter
// spans every frame's primary outputs.
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

struct SeqAttackResult : attack::AttackBase {
  /// `success()` = no distinguishing sequence within `frames`; `key` is
  /// consistent with all observed sequences (when solved); `queries`
  /// counts oracle *cycles* — the test-clock cost Eqs. (1)-(3) bound.
  int iterations = 0;
};

/// Attack the hybrid netlist through a reset-and-run oracle. On success the
/// key reproduces the oracle on *every* input sequence of length <= frames;
/// longer-horizon behaviour should be validated separately (see tests).
SeqAttackResult run_sequential_sat_attack(const Netlist& hybrid,
                                          SequenceOracle& oracle,
                                          const SeqAttackOptions& opt = {});

SeqAttackResult run_sequential_sat_attack(const Netlist& hybrid,
                                          const Netlist& configured,
                                          const SeqAttackOptions& opt = {});

}  // namespace stt
