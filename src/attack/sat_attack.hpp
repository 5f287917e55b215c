// Oracle-guided SAT attack (Subramanyan et al. style) against hybrid
// STT-CMOS netlists.
//
// The attacker holds the foundry view (structure known, LUT contents
// unknown) and a configured chip with scan access. Each iteration solves a
// miter of two key-differentiated copies for a distinguishing input
// pattern (DIP), queries the oracle, and constrains both key sets with the
// observed I/O pair; when no DIP remains, any satisfying key is
// functionally correct on the scan view.
//
// Engine: the miter is encoded once, with cone-of-influence sharing (only
// the key-tainted cone is duplicated in the second copy); every queried
// (dip, response) pair is then constant-folded in the attacker's view and
// only the unresolved key cones emit clauses (attack/dip_encode.*), so
// per-iteration CNF growth tracks the key cone instead of the circuit.
// Before the DIP loop a simulation-guided warm-up floods the oracle with
// cheap word-parallel random patterns (CompiledSim under ScanOracle::
// query_batch) and harvests the key rows that fold to single literals as
// unit constraints. One deterministic solver runs the whole attack: each
// DIP is one solve capped by `work_budget` conflicts, and after the final
// UNSAT the key is read from the same solver.
//
// The no-scan attack (attack/seq_attack.hpp) runs the same loop,
// `run_dip_loop`, on F unrolled frames.
//
// This is the strongest practical attack the paper argues against; the
// reproduction uses it to *validate* the paper's security ordering:
// independent selection falls in a handful of iterations, while dependent
// and parametric-aware selections blow up the iteration count / conflict
// budget (see bench/bench_attack_validation, bench/bench_sat_perf).
#pragma once

#include <functional>
#include <vector>

#include "attack/common.hpp"
#include "attack/oracle.hpp"
#include "core/hybrid.hpp"
#include "netlist/netlist.hpp"

namespace stt {

class DipEncoder;

struct SatAttackOptions : attack::CommonAttackOptions {
  /// Historical defaults: `time_limit_s` is a wall-clock cap honored
  /// *inside* solver calls via the solver deadline (checked every 256
  /// conflicts); `work_budget` is the exact SAT conflict cap per solver
  /// call — exceeding it aborts the attack with budget_exhausted (the
  /// defender "wins on resources"); `seed` drives the warm-up stimulus.
  SatAttackOptions() {
    seed = 0x5a7a11cull;
    time_limit_s = 60.0;
    work_budget = 4'000'000;
  }

  int max_iterations = 512;

  /// Simulation-guided warm-up: 64*warmup_words random oracle patterns are
  /// folded for free key bits before the DIP loop. 0 disables.
  int warmup_words = 4;
  /// Of the warm-up patterns, at most this many with unresolved complex
  /// outputs are fully cone-encoded into the CNF (the rest only contribute
  /// their unit constraints).
  int warmup_pair_limit = 8;
  /// Fans the warm-up batch across threads; results are bit-identical
  /// with or without it. Must not be a pool the caller is itself running
  /// inside.
  ParallelFor* parallel = nullptr;
};

/// Deterministic solver telemetry of the whole attack, final key solve
/// included. Identical across thread counts.
struct SatAttackStats {
  std::int64_t decisions = 0;
  std::int64_t propagations = 0;
  std::int64_t learned = 0;       ///< clauses learnt from conflicts
  std::int64_t peak_clauses = 0;  ///< live-clause high-water mark
  /// Clauses submitted to the solver: at miter construction +
  /// warm-up, and added by the DIP loop (the per-iteration CNF delta).
  std::int64_t cnf_initial_clauses = 0;
  std::int64_t cnf_dip_clauses = 0;
  double cnf_clauses_per_iter = 0;  ///< cnf_dip_clauses / iterations
  int key_rows_resolved = 0;        ///< unit key bits from folding
  int warmup_pairs_encoded = 0;     ///< complex warm-up pairs in the CNF
};

struct SatAttackResult : attack::AttackBase {
  int iterations = 0;          ///< DIPs generated
  std::int64_t conflicts = 0;  ///< DIP solves + key extraction
  SatAttackStats stats;
};

/// One oracle query of the DIP loop: the attacker-chosen bits of a pair in,
/// the observed bits out, in DipEncoder's pair layout for the loop's frame
/// count.
using DipQuery = std::function<std::vector<bool>(const std::vector<bool>&)>;
/// Work done on the encoder before the first solve (the scan warm-up); its
/// clauses count as `cnf_initial_clauses`.
using DipWarmUp = std::function<void(DipEncoder&, SatAttackStats&)>;

/// The DIP loop of both SAT attacks. `frames` is DipEncoder::kScan (scan
/// pairs) or the unrolling depth of a reset-started sequence, searched
/// frame by frame: a frame's outputs are asserted equal once no key pair
/// left can tell them apart, then the next frame is searched. Honours
/// `opt.time_limit_s` (also inside each solve) and `opt.work_budget` (per
/// solve) and stops after `max_iterations` DIPs. Fills every field but
/// `queries` and `span_id`, which depend on the caller's oracle and span.
/// Throws std::invalid_argument when `hybrid` has no LUTs.
SatAttackResult run_dip_loop(const Netlist& hybrid, int frames,
                             const DipQuery& query,
                             const attack::CommonAttackOptions& opt,
                             int max_iterations,
                             const DipWarmUp& warm_up = {});

/// `hybrid` is the attacker's netlist (LUT masks ignored / treated unknown);
/// `oracle` wraps the configured chip.
SatAttackResult run_sat_attack(const Netlist& hybrid, ScanOracle& oracle,
                               const SatAttackOptions& opt = {});

/// Convenience: build the oracle from the configured netlist.
SatAttackResult run_sat_attack(const Netlist& hybrid,
                               const Netlist& configured,
                               const SatAttackOptions& opt = {});

}  // namespace stt
