// Lint finding vocabulary: stable rule IDs, severities, and the report
// container shared by both analysis layers.
//
// Rule IDs are part of the tool's public contract (they appear in the JSON
// report, in CI gates and in suppression lists), so they are never renumbered
// or reused. Three families:
//   STRxxx — structural well-formedness of the netlist graph;
//   HYBxxx — hybrid-specific invariants of the STT-CMOS flow;
//   SECxxx — static-deobfuscation audit: missing gates whose secret is
//            (partially) recoverable without a single oracle query;
//   KEYxxx — key-dependency analysis (verify/keydep): per-key-cell
//            attack-resilience verdicts from the dataflow engine.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "netlist/netlist.hpp"

namespace stt {

enum class LintSeverity { kInfo, kWarning, kError };

std::string_view severity_name(LintSeverity severity);

enum class LintRule {
  // -- layer 1: structural -------------------------------------------------
  kCombinationalCycle,   ///< STR001
  kUnresolvedFanin,      ///< STR002
  kArityMismatch,        ///< STR003
  kFanoutDesync,         ///< STR004
  kNoPrimaryOutputs,     ///< STR005
  kConstantOutput,       ///< STR006
  kDeadGate,             ///< STR007
  kDuplicateFanin,       ///< STR008
  kLutMaskWidth,         ///< STR009
  // -- layer 1: hybrid invariants ------------------------------------------
  kSingleInputLut,       ///< HYB001
  kCamouflagedCmos,      ///< HYB002
  kCamouflageMask,       ///< HYB003
  kKeyGate,              ///< HYB004
  kDecoyLatch,           ///< HYB005
  kLockedConstant,       ///< HYB006
  // -- layer 2: security static audit --------------------------------------
  kConstantFedLut,       ///< SEC001
  kInferableLut,         ///< SEC002
  kVacuousLutInput,      ///< SEC003
  kResolvableLut,        ///< SEC004
  kMaskedLut,            ///< SEC005
  kAuditSkipped,         ///< SEC000
  // -- layer 2: key-dependency analysis (verify/keydep) ---------------------
  kKeyConstant,          ///< KEY001
  kKeyRemovable,         ///< KEY002
  kKeyMutable,           ///< KEY003
  kKeyChain,             ///< KEY004
  kKeyPairwise,          ///< KEY005
  kKeyDeadRows,          ///< KEY006
  kKeySpace,             ///< KEY007
  kKeyVacuous,           ///< KEY008
};

/// Stable identifier, e.g. "STR001".
std::string_view rule_id(LintRule rule);

/// Default severity of a rule. A few findings are emitted one notch above
/// their default (documented at the emission site, e.g. a *dead* missing
/// gate is an error while a dead CMOS gate is a warning).
LintSeverity rule_severity(LintRule rule);

struct LintFinding {
  LintRule rule = LintRule::kAuditSkipped;
  LintSeverity severity = LintSeverity::kInfo;
  CellId cell = kNullCell;  ///< offending cell; kNullCell for netlist-level
  std::string cell_name;    ///< empty for netlist-level findings
  std::string message;      ///< specific diagnostic, net names inline
};

struct LintCounts {
  int errors = 0;
  int warnings = 0;
  int infos = 0;
  int total() const { return errors + warnings + infos; }
};

LintCounts count_findings(const std::vector<LintFinding>& findings);

/// Convenience constructor used by both layers.
LintFinding make_finding(const Netlist& nl, LintRule rule, CellId cell,
                         std::string message);
LintFinding make_finding(const Netlist& nl, LintRule rule, CellId cell,
                         std::string message, LintSeverity severity);

}  // namespace stt
