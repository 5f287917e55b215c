// CMOS gate selection and replacement (Section IV-A): the paper's primary
// contribution.
//
// All three algorithms share the path-pool front end (Section IV-A,
// implementation paragraph): sample ~2% of logic cells, DFS each seed to a
// PI -> PO path crossing >= 2 flip-flops, drop paths that touch the timing-
// critical path, and sort by flip-flop depth.
//
//  * Independent selection (IV-A.1): a predetermined number of gates chosen
//    at random from the pooled paths — no connectivity requirement. Cheap,
//    weakest security (Eq. 1 additive cost).
//  * Dependent selection (IV-A.2, Algorithm 1): every gate on the timing
//    paths composing a selected longest I/O path is replaced, so missing
//    gates feed missing gates (Eq. 2 multiplicative cost). No timing
//    awareness — this is the algorithm with the large Table I overheads.
//  * Parametric-aware dependent selection (IV-A.3, Algorithm 2): per
//    selected path, a random subset of gates with >= 2 inputs is replaced,
//    re-drawn until the timing constraint holds; gates left unselected go
//    to the USL, and every gate driving or driven by a USL gate (off-path)
//    is replaced too, destroying partial-truth-table attacks while keeping
//    the critical path clean (Eq. 3 exponential cost).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/hybrid.hpp"
#include "graph/paths.hpp"
#include "netlist/netlist.hpp"
#include "tech/tech_library.hpp"

namespace stt {

enum class SelectionAlgorithm { kIndependent, kDependent, kParametric };

std::string algorithm_name(SelectionAlgorithm alg);

struct SelectionOptions {
  std::uint64_t seed = 1;
  PathPoolOptions pool;

  /// Independent: number of gates to replace (the paper always uses 5).
  int indep_count = 5;

  /// Dependent: number of longest I/O paths whose timing paths are fully
  /// replaced (Algorithm 1 iterates over a list; 1 reproduces the paper's
  /// small-benchmark counts).
  int dep_num_paths = 1;

  /// Parametric: predetermined number of *timing paths* (PI/FF -> FF/PO
  /// segments drawn from the pooled I/O paths) and the per-path selection
  /// fraction; retries re-draw the random subset after a timing violation.
  /// 0 = auto: scale with circuit size (gates/400, clamped to [2, 16]),
  /// which reproduces Table I's size-dependent parametric counts.
  int para_num_paths = 0;
  double para_gate_fraction = 0.35;
  int para_max_retries = 30;
  /// Only gates with at least this many inputs are selected on-path
  /// ("only gates with two or more inputs are considered").
  int para_min_fanin = 2;
  /// Enable the USL neighbour-closure step (ablation knob).
  bool usl_closure = true;

  /// Allowed critical-delay degradation for the parametric timing check,
  /// relative to the original circuit (0.05 = +5%).
  double timing_margin = 0.05;
};

struct SelectionResult {
  SelectionAlgorithm algorithm = SelectionAlgorithm::kIndependent;
  std::vector<CellId> replaced;  ///< cells now implemented as STT LUTs
  LutKey key;                    ///< their configuration bitstream
  int paths_considered = 0;      ///< path-pool size after filtering
  int timing_retries = 0;        ///< parametric L1 re-draws
  int usl_replacements = 0;      ///< LUTs added by the USL closure
  double selection_seconds = 0;  ///< wall-clock of selection itself
};

class GateSelector {
 public:
  /// Keeps a pointer to `lib`, which must outlive the selector.
  explicit GateSelector(const TechLibrary& lib) : lib_(&lib) {}
  explicit GateSelector(const TechLibrary&&) = delete;

  /// Run one algorithm, mutating `nl` into the hybrid netlist (LUTs
  /// configured to preserve functionality). The netlist must be a pure-CMOS
  /// design (no pre-existing LUTs).
  SelectionResult run(Netlist& nl, SelectionAlgorithm alg,
                      const SelectionOptions& opt) const;

 private:
  SelectionResult run_independent(Netlist& nl, const SelectionOptions& opt,
                                  Rng& rng,
                                  const std::vector<IoPath>& pool) const;
  SelectionResult run_dependent(Netlist& nl, const SelectionOptions& opt,
                                Rng& rng,
                                const std::vector<IoPath>& pool) const;
  SelectionResult run_parametric(Netlist& nl, const SelectionOptions& opt,
                                 Rng& rng,
                                 const std::vector<IoPath>& pool) const;

  const TechLibrary* lib_;
};

}  // namespace stt
