#include "verify/finding.hpp"

namespace stt {

std::string_view severity_name(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::kInfo: return "info";
    case LintSeverity::kWarning: return "warning";
    case LintSeverity::kError: return "error";
  }
  return "?";
}

std::string_view rule_id(LintRule rule) {
  switch (rule) {
    case LintRule::kCombinationalCycle: return "STR001";
    case LintRule::kUnresolvedFanin: return "STR002";
    case LintRule::kArityMismatch: return "STR003";
    case LintRule::kFanoutDesync: return "STR004";
    case LintRule::kNoPrimaryOutputs: return "STR005";
    case LintRule::kConstantOutput: return "STR006";
    case LintRule::kDeadGate: return "STR007";
    case LintRule::kDuplicateFanin: return "STR008";
    case LintRule::kLutMaskWidth: return "STR009";
    case LintRule::kSingleInputLut: return "HYB001";
    case LintRule::kCamouflagedCmos: return "HYB002";
    case LintRule::kCamouflageMask: return "HYB003";
    case LintRule::kKeyGate: return "HYB004";
    case LintRule::kDecoyLatch: return "HYB005";
    case LintRule::kLockedConstant: return "HYB006";
    case LintRule::kConstantFedLut: return "SEC001";
    case LintRule::kInferableLut: return "SEC002";
    case LintRule::kVacuousLutInput: return "SEC003";
    case LintRule::kResolvableLut: return "SEC004";
    case LintRule::kMaskedLut: return "SEC005";
    case LintRule::kAuditSkipped: return "SEC000";
    case LintRule::kKeyConstant: return "KEY001";
    case LintRule::kKeyRemovable: return "KEY002";
    case LintRule::kKeyMutable: return "KEY003";
    case LintRule::kKeyChain: return "KEY004";
    case LintRule::kKeyPairwise: return "KEY005";
    case LintRule::kKeyDeadRows: return "KEY006";
    case LintRule::kKeySpace: return "KEY007";
    case LintRule::kKeyVacuous: return "KEY008";
  }
  return "???";
}

LintSeverity rule_severity(LintRule rule) {
  switch (rule) {
    case LintRule::kCombinationalCycle:
    case LintRule::kUnresolvedFanin:
    case LintRule::kArityMismatch:
    case LintRule::kFanoutDesync:
    case LintRule::kLutMaskWidth:
    case LintRule::kCamouflagedCmos:
    case LintRule::kCamouflageMask:
    case LintRule::kKeyGate:
    case LintRule::kDecoyLatch:
    case LintRule::kLockedConstant:
    case LintRule::kConstantFedLut:
    case LintRule::kInferableLut:
    case LintRule::kMaskedLut:
      return LintSeverity::kError;
    case LintRule::kNoPrimaryOutputs:
    case LintRule::kConstantOutput:
    case LintRule::kDeadGate:
    case LintRule::kDuplicateFanin:
    case LintRule::kVacuousLutInput:
    case LintRule::kKeyConstant:
    case LintRule::kKeyRemovable:
    case LintRule::kKeyChain:
      return LintSeverity::kWarning;
    case LintRule::kSingleInputLut:
    case LintRule::kResolvableLut:
    case LintRule::kAuditSkipped:
    case LintRule::kKeyMutable:
    case LintRule::kKeyPairwise:
    case LintRule::kKeyDeadRows:
    case LintRule::kKeySpace:
    case LintRule::kKeyVacuous:
      return LintSeverity::kInfo;
  }
  return LintSeverity::kInfo;
}

LintCounts count_findings(const std::vector<LintFinding>& findings) {
  LintCounts counts;
  for (const LintFinding& f : findings) {
    switch (f.severity) {
      case LintSeverity::kError: ++counts.errors; break;
      case LintSeverity::kWarning: ++counts.warnings; break;
      case LintSeverity::kInfo: ++counts.infos; break;
    }
  }
  return counts;
}

LintFinding make_finding(const Netlist& nl, LintRule rule, CellId cell,
                         std::string message) {
  return make_finding(nl, rule, cell, std::move(message),
                      rule_severity(rule));
}

LintFinding make_finding(const Netlist& nl, LintRule rule, CellId cell,
                         std::string message, LintSeverity severity) {
  LintFinding f;
  f.rule = rule;
  f.severity = severity;
  f.cell = cell;
  if (cell != kNullCell && cell < nl.size()) f.cell_name = nl.cell(cell).name;
  f.message = std::move(message);
  return f;
}

}  // namespace stt
