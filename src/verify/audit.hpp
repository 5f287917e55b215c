// Layer 2 of `sttlock lint`: the static-deobfuscation security audit.
//
// Without issuing a single oracle query, an attacker armed with constant
// propagation and testability analysis can already shrink the paper's
// security figures: a missing gate whose input is tied to a static constant
// only exposes half of its truth-table rows per tied input; a missing gate
// whose reachable rows all agree has a fully inferable (constant) function;
// a missing gate whose output is statically blocked from every observation
// point never influences the chip at all. Each case collapses the candidate
// set P_i (or removes gate i from M entirely), so Eqs. (1)-(3) computed from
// the optimistic per-gate (alpha, P, D) overstate the attack cost.
//
// This pass runs the attacker-view ternary propagation (sim/ternary via
// sim/partial_eval: every LUT output is X), audits each missing gate,
// then recomputes Eqs. (1)-(3) from the audited alpha/P/D/I/M and reports
// the delta against core/security.cpp's optimistic figures. On a netlist
// where nothing collapses the audited report matches the optimistic one
// bit-for-bit (identical arithmetic in identical order) — a property the
// test suite pins down.
#pragma once

#include <vector>

#include "core/security.hpp"
#include "core/similarity.hpp"
#include "sim/ternary.hpp"
#include "verify/annotations.hpp"
#include "verify/finding.hpp"

namespace stt {

struct StaticAuditOptions {
  SimilarityModel model = SimilarityModel::paper();
  /// Declared defense constructs. Findings such a construct triggers *by
  /// design* are not emitted: SEC002 for locked constants (the configured
  /// function being constant is the defense, not a leak) and SEC003 for
  /// decoy latches (the transparent mux ignores its decoy input on
  /// purpose). Only the diagnostics are suppressed — the audited security
  /// arithmetic (M, alpha/P/D, Eqs. 1-3) is computed exactly as without
  /// annotations, so the attack-cost figures stay honest.
  DefenseAnnotations defense;
  /// SEC004 fires when the SCOAP attacker-view resolvability of a missing
  /// gate (cheapest row justification + observation cost) is at or below
  /// this; the default only catches PI-adjacent gates observable without
  /// crossing a flip-flop.
  double resolvability_threshold = 6.0;
  /// Run the SCOAP pass behind SEC004 and `LutAudit::resolvability`
  /// (near-linear in the netlist, like the rest of the audit).
  bool scoap = true;
};

/// Per-missing-gate audit record.
struct LutAudit {
  CellId cell = kNullCell;
  int fanin = 0;
  /// Per input slot: kZero/kOne when the driver is a static constant under
  /// the attacker-view propagation, kX otherwise.
  std::vector<Tri> input_values;
  int constant_inputs = 0;
  /// Truth-table rows consistent with the constant inputs.
  std::uint64_t reachable_rows = 0;
  /// Free inputs the mask (restricted to reachable rows) depends on.
  int effective_support = 0;
  bool inferable = false;  ///< restricted function is constant
  bool masked = false;     ///< output blocked from every observation point
  double resolvability = 0;  ///< SCOAP proxy (0 when the pass is disabled)
};

struct StaticAuditResult {
  std::vector<LintFinding> findings;
  std::vector<LutAudit> luts;  ///< ascending CellId, one entry per LUT
  SecurityReport optimistic;   ///< core/security.cpp verbatim
  SecurityReport audited;      ///< recomputed from audited alpha/P/D/I/M
  /// log10(optimistic) - log10(audited) per equation; 0 when nothing
  /// collapsed, positive when the audit shrank the attack cost.
  double log10_drop_indep = 0;
  double log10_drop_dep = 0;
  double log10_drop_bf = 0;
};

/// Run the audit. The netlist must be structurally evaluable (layer 1's
/// `evaluable` flag); throws std::runtime_error otherwise.
StaticAuditResult run_static_audit(const Netlist& nl,
                                   const StaticAuditOptions& opt = {});

}  // namespace stt
