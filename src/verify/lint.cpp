#include "verify/lint.hpp"

#include <algorithm>
#include <tuple>

#include "util/strings.hpp"

namespace stt {

namespace {

// Byte-stable report order: each layer's block is sorted by (rule, cell,
// message). Structural and audit emission is already deterministic, but the
// sort makes the JSON independent of any future hash-ordered emission site.
void sort_findings(std::vector<LintFinding>& findings, std::size_t from) {
  std::stable_sort(findings.begin() + static_cast<std::ptrdiff_t>(from),
                   findings.end(),
                   [](const LintFinding& a, const LintFinding& b) {
                     return std::tie(a.rule, a.cell_name, a.message) <
                            std::tie(b.rule, b.cell_name, b.message);
                   });
}

}  // namespace

std::string LintReport::verdict() const {
  if (counts.errors) return "errors";
  if (counts.warnings) return "warnings";
  if (counts.infos) return "info";
  return "clean";
}

bool LintReport::failed(bool strict) const {
  return counts.errors > 0 || (strict && counts.warnings > 0);
}

LintReport run_lint(const Netlist& nl, const LintOptions& opt) {
  LintReport report;
  report.netlist = nl.name();

  StructuralLintOptions structural_opt = opt.structural;
  structural_opt.defense.merge(opt.defense);
  const StructuralLintResult structural =
      run_structural_lint(nl, structural_opt);
  report.findings = structural.findings;
  sort_findings(report.findings, 0);

  if (opt.run_audit || opt.run_keydep) {
    if (!structural.evaluable) {
      report.findings.push_back(make_finding(
          nl, LintRule::kAuditSkipped, kNullCell,
          "security audit skipped: structural errors make the netlist "
          "unevaluable"));
    } else {
      if (opt.run_audit) {
        StaticAuditOptions audit_opt = opt.audit;
        audit_opt.defense.merge(opt.defense);
        report.audit = run_static_audit(nl, audit_opt);
        report.audit_ran = true;
        const std::size_t from = report.findings.size();
        report.findings.insert(report.findings.end(),
                               report.audit.findings.begin(),
                               report.audit.findings.end());
        sort_findings(report.findings, from);
      }
      if (opt.run_keydep && nl.stats().luts > 0) {
        KeydepOptions keydep_opt = opt.keydep;
        keydep_opt.defense.merge(opt.defense);
        // Lint reads verdicts and degrees, never the edge list.
        keydep_opt.interference = InterferenceRequest::kDegrees;
        report.keydep = analyze_keydep(nl, keydep_opt);
        report.keydep_ran = true;
        // analyze_keydep already sorts its findings.
        report.findings.insert(report.findings.end(),
                               report.keydep.findings.begin(),
                               report.keydep.findings.end());
      }
    }
  }
  report.counts = count_findings(report.findings);
  return report;
}

std::string lint_text(const LintReport& report) {
  std::string out;
  out += strformat("lint %s: %s (%d error(s), %d warning(s), %d info)\n",
                   report.netlist.c_str(), report.verdict().c_str(),
                   report.counts.errors, report.counts.warnings,
                   report.counts.infos);
  for (const LintFinding& f : report.findings) {
    out += strformat("  %s %-7s %-12s %s\n",
                     std::string(rule_id(f.rule)).c_str(),
                     std::string(severity_name(f.severity)).c_str(),
                     f.cell_name.empty() ? "<netlist>" : f.cell_name.c_str(),
                     f.message.c_str());
  }
  if (report.audit_ran) {
    const StaticAuditResult& a = report.audit;
    out += strformat(
        "  audit: M %d -> %d | I %d -> %d | D %d\n",
        a.optimistic.missing_gates, a.audited.missing_gates,
        a.optimistic.accessible_inputs, a.audited.accessible_inputs,
        a.audited.circuit_depth);
    out += strformat(
        "  audit: N_indep %s -> %s | N_dep %s -> %s | N_bf %s -> %s\n",
        a.optimistic.n_indep.to_string().c_str(),
        a.audited.n_indep.to_string().c_str(),
        a.optimistic.n_dep.to_string().c_str(),
        a.audited.n_dep.to_string().c_str(),
        a.optimistic.n_bf.to_string().c_str(),
        a.audited.n_bf.to_string().c_str());
    if (a.log10_drop_indep > 0 || a.log10_drop_dep > 0 ||
        a.log10_drop_bf > 0) {
      out += strformat(
          "  audit: optimism (log10 clocks) indep %.2f dep %.2f bf %.2f\n",
          a.log10_drop_indep, a.log10_drop_dep, a.log10_drop_bf);
    }
  }
  if (report.keydep_ran) {
    const KeydepResult& k = report.keydep;
    out += strformat(
        "  keydep: %s | key bits %d nominal, %d static, %d effective | "
        "cells const %d removable %d mutable %d pairwise %d hard %d\n",
        k.verdict().c_str(), k.key_bits, k.key_bits_static, k.eff_key_bits,
        k.constant_cells, k.removable_cells, k.mutable_cells,
        k.pairwise_cells, k.hard_cells);
  }
  return out;
}

std::string lint_json(const LintReport& report) {
  std::string out = "{\n";
  out += "  \"netlist\": \"" + json_escape(report.netlist) + "\",\n";
  out += "  \"verdict\": \"" + report.verdict() + "\",\n";
  out += strformat(
      "  \"counts\": {\"errors\": %d, \"warnings\": %d, \"infos\": %d},\n",
      report.counts.errors, report.counts.warnings, report.counts.infos);
  out += "  \"findings\": [\n";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const LintFinding& f = report.findings[i];
    out += "    {\"rule\": \"" + std::string(rule_id(f.rule)) + "\", ";
    out += "\"severity\": \"" + std::string(severity_name(f.severity)) +
           "\", ";
    out += "\"cell\": \"" + json_escape(f.cell_name) + "\", ";
    out += "\"message\": \"" + json_escape(f.message) + "\"}";
    if (i + 1 < report.findings.size()) out += ",";
    out += "\n";
  }
  out += "  ]";
  if (report.audit_ran) {
    const StaticAuditResult& a = report.audit;
    out += ",\n  \"audit\": {";
    out += strformat("\"missing_gates\": %d, ", a.optimistic.missing_gates);
    out += strformat("\"audited_missing_gates\": %d, ",
                     a.audited.missing_gates);
    out += strformat("\"accessible_inputs\": %d, ",
                     a.optimistic.accessible_inputs);
    out += strformat("\"audited_accessible_inputs\": %d, ",
                     a.audited.accessible_inputs);
    out += strformat("\"circuit_depth\": %d, ", a.audited.circuit_depth);
    out += "\"n_indep\": \"" + a.optimistic.n_indep.to_string() + "\", ";
    out += "\"n_dep\": \"" + a.optimistic.n_dep.to_string() + "\", ";
    out += "\"n_bf\": \"" + a.optimistic.n_bf.to_string() + "\", ";
    out += "\"audited_n_indep\": \"" + a.audited.n_indep.to_string() +
           "\", ";
    out += "\"audited_n_dep\": \"" + a.audited.n_dep.to_string() + "\", ";
    out += "\"audited_n_bf\": \"" + a.audited.n_bf.to_string() + "\", ";
    out += strformat(
        "\"log10_drop\": {\"indep\": %.4f, \"dep\": %.4f, \"bf\": %.4f}",
        a.log10_drop_indep, a.log10_drop_dep, a.log10_drop_bf);
    out += "}";
  }
  if (report.keydep_ran) {
    const KeydepResult& k = report.keydep;
    out += ",\n  \"keydep\": {";
    out += "\"verdict\": \"" + k.verdict() + "\", ";
    out += strformat("\"key_cells\": %d, ", k.key_cells);
    out += strformat("\"key_bits\": %d, ", k.key_bits);
    out += strformat("\"key_bits_static\": %d, ", k.key_bits_static);
    out += strformat("\"eff_key_bits\": %d, ", k.eff_key_bits);
    out += strformat(
        "\"cells_by_verdict\": {\"constant\": %d, \"removable\": %d, "
        "\"mutable\": %d, \"pairwise_secure\": %d, \"hard\": %d}",
        k.constant_cells, k.removable_cells, k.mutable_cells,
        k.pairwise_cells, k.hard_cells);
    out += "}";
  }
  out += "\n}\n";
  return out;
}

std::string lint_json(const std::vector<LintReport>& reports) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    out += lint_json(reports[i]);
    // lint_json ends with "}\n"; splice the array separator in.
    if (i + 1 < reports.size()) {
      out.erase(out.size() - 1);
      out += ",\n";
    }
  }
  out += "]\n";
  return out;
}

}  // namespace stt
