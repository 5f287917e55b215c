// Partially-resolved LUT state and conservative three-valued evaluation
// around it: the one whole-netlist 0/1/X evaluator. With `unknown_luts`
// knowledge it is the foundry attacker's view (every LUT output X); with an
// empty knowledge map it evaluates the configured chip. Shared by the
// testing attacks (sensitization, guided-sens, DIP encoding), the `const`
// defense, and the verify layer's audit and key-dependency pass — it lives
// in sim so that verify does not depend on attack (the attack registry's
// oracle-free `static` kind depends on verify/keydep the other way around).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/ternary.hpp"

namespace stt {

/// What the attacker knows about one LUT's truth table so far.
struct LutKnowledge {
  std::uint32_t rows = 0;        ///< 2^fanin
  std::uint64_t known_mask = 0;  ///< rows whose value is resolved
  std::uint64_t value_mask = 0;  ///< resolved values

  bool complete() const {
    const std::uint64_t all =
        (rows >= 64) ? ~0ull : ((1ull << rows) - 1ull);
    return known_mask == all;
  }
};

using LutKnowledgeMap = std::unordered_map<CellId, LutKnowledge>;

/// Zero knowledge: every LUT of `nl` tracked with no row resolved — the
/// attacker view, in which every LUT output is X.
LutKnowledgeMap unknown_luts(const Netlist& nl);

/// Three-valued evaluation with partially known LUTs. The knowledge map is
/// read live, so knowledge the caller adds is seen by the next evaluation.
class PartialEvaluator {
 public:
  PartialEvaluator(const Netlist& nl, const LutKnowledgeMap& luts);

  /// `inputs` = PI values followed by FF state values.
  std::vector<Tri> eval(const std::vector<Tri>& inputs) const;

  /// Evaluate one combinational cell from its fan-in values: tracked LUTs
  /// through their partial knowledge, everything else as configured.
  Tri eval_cell(CellId id, std::span<const Tri> fin) const;

  /// Evaluate one partially-known LUT from definite/unknown inputs.
  Tri eval_partial_lut(CellId id, std::span<const Tri> fin) const;

  const Netlist& netlist() const { return *nl_; }
  const std::vector<CellId>& order() const { return order_; }

 private:
  const Netlist* nl_;
  const LutKnowledgeMap* luts_;
  std::vector<CellId> order_;
};

/// Incremental force probe: does one cell's value reach an observation
/// point? Given a solved base wave, `force` pins one cell to 0 (lane 0) and
/// to 1 (lane 1), then re-evaluates, in topo-rank order, only the readers
/// whose value actually changes, so a probe costs the cells it changes
/// rather than the whole netlist. The next `force` (or `refresh`/`rebase`)
/// first undoes the previous one through its touched list.
///
/// Observation points are the primary outputs followed by each flip-flop's
/// D-pin driver — the scan oracle's response order. A flip-flop's D pin is
/// a sink: changes never propagate through a DFF (or into an input).
class ForceProbe {
 public:
  explicit ForceProbe(const PartialEvaluator& eval);

  /// Load a solved base wave (PartialEvaluator::eval under the evaluator's
  /// current knowledge).
  void rebase(std::span<const Tri> base);

  /// Re-derive the base after the knowledge of LUT `cell` grew: the cell
  /// and every reader whose value changes are re-evaluated in place, which
  /// equals a full re-evaluation under the new knowledge.
  void refresh(CellId cell);

  /// Force `cell` to 0 in lane 0 and to 1 in lane 1 over the base.
  void force(CellId cell);

  Tri value(int lane, CellId id) const { return lane_[lane][id]; }

  /// Every observation point definite and equal in both lanes: the forced
  /// cell is provably blocked from the interface. True when there are no
  /// observation points; callers that need one check that themselves.
  bool masked() const;

  /// Lowest observation index whose lanes are definite and differ (the
  /// forced value provably reaches it), or -1 when none does.
  int first_sensitized() const;

  const std::vector<CellId>& observation_points() const { return obs_; }

  std::uint64_t probes() const { return probes_; }
  /// Cells re-evaluated by `force` calls so far.
  std::uint64_t cells_evaluated() const { return evaluated_; }

 private:
  Tri eval_at(int lane, CellId id) const;
  void schedule_readers(CellId id);
  CellId pop();
  void restore();

  const PartialEvaluator* eval_;
  std::vector<std::uint32_t> rank_;  ///< by CellId
  std::vector<Tri> lane_[2];
  std::vector<std::pair<CellId, Tri>> touched_;  ///< (cell, base value)
  std::vector<std::uint32_t> heap_;              ///< min-heap of ranks
  std::vector<char> queued_;                     ///< by CellId
  std::vector<CellId> obs_;
  std::vector<int> obs_index_;  ///< by CellId: lowest obs index, -1 if none
  std::uint64_t probes_ = 0;
  std::uint64_t evaluated_ = 0;
};

}  // namespace stt
