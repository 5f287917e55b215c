// `sttlock lint` driver: both analysis layers plus report rendering.
//
// The JSON report schema (stable, machine-readable; documented in
// EXPERIMENTS.md):
//   {
//     "netlist": "<name>",
//     "verdict": "clean" | "info" | "warnings" | "errors",
//     "counts": {"errors": N, "warnings": N, "infos": N},
//     "findings": [
//       {"rule": "STR001", "severity": "error", "cell": "<net>",
//        "message": "..."}, ...
//     ],
//     "audit": {                       // present when layer 2 ran
//       "missing_gates": M, "audited_missing_gates": M',
//       "accessible_inputs": I, "audited_accessible_inputs": I',
//       "circuit_depth": D,
//       "n_indep": "...", "n_dep": "...", "n_bf": "...",
//       "audited_n_indep": "...", "audited_n_dep": "...",
//       "audited_n_bf": "...",
//       "log10_drop": {"indep": x, "dep": x, "bf": x}
//     }
//   }
#pragma once

#include <string>

#include "verify/audit.hpp"
#include "verify/keydep.hpp"
#include "verify/structural.hpp"

namespace stt {

struct LintOptions {
  StructuralLintOptions structural;
  StaticAuditOptions audit;
  KeydepOptions keydep;
  /// Run the layer 2 security audit (skipped automatically, with an SEC000
  /// info finding, when structural errors make the netlist unevaluable).
  bool run_audit = true;
  /// Run the key-dependency analysis (KEY rules) next to the audit; it runs
  /// under the same evaluability bar and only when the netlist holds LUTs.
  bool run_keydep = true;
  /// Declared defense constructs, merged into every layer's own `defense`
  /// field (convenience so callers set annotations once).
  DefenseAnnotations defense;
};

struct LintReport {
  std::string netlist;
  /// All layers, grouped structural / audit / keydep, each block sorted by
  /// (rule, cell, message) so the JSON report is byte-stable.
  std::vector<LintFinding> findings;
  LintCounts counts;
  bool audit_ran = false;
  StaticAuditResult audit;  ///< meaningful iff audit_ran
  bool keydep_ran = false;
  /// Meaningful iff keydep_ran. Lint asks for degrees only, so `edges` is
  /// empty.
  KeydepResult keydep;

  /// "clean" (no findings), "info", "warnings", or "errors" — the highest
  /// severity present.
  std::string verdict() const;

  /// Gate outcome: true when the report should fail a CI job. Errors always
  /// fail; `strict` promotes warnings (info never fails).
  bool failed(bool strict) const;
};

LintReport run_lint(const Netlist& nl, const LintOptions& opt = {});

/// Human-readable rendering, one line per finding plus the audit table.
std::string lint_text(const LintReport& report);

/// The JSON document described above.
std::string lint_json(const LintReport& report);

/// Several reports as one JSON array.
std::string lint_json(const std::vector<LintReport>& reports);

}  // namespace stt
