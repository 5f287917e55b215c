// TrialRecord: the typed result of one campaign grid point, and the single
// source of truth for every view of it.
//
// The CSV writer (report.cpp), the JSON writer, the per-defense summary,
// and the crash-safe result store (store.hpp) all consume this struct —
// the store serializes records with the binary codec below instead of
// re-parsing formatted rows, and the CSV writer walks `trial_csv_fields()`
// so the column set, order, and formatting are declared exactly once.
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace stt {

class WireWriter;
class WireReader;

/// One grid point's outcome. Fields above the "measured" marker are
/// deterministic; the measured block varies run to run.
struct TrialRecord {
  std::string benchmark;
  /// Defense axis point: registry kind and its "k=v;k=v" tuning rendering
  /// (empty = defaults).
  std::string defense;
  std::string defense_tuning;
  /// Attack axis point ("none" = no attack stage on this row).
  std::string attack = "none";
  int trial = 0;
  std::uint64_t circuit_seed = 0;
  std::uint64_t selection_seed = 0;  ///< seed of the successful attempt
  int attempts = 1;
  bool ok = false;
  std::string error;  ///< last failure message when !ok

  // Flow metrics (Table I + security sign-off).
  int num_luts = 0;
  // Key-material accounting from the defense's DefenseResult.
  int key_cells = 0;
  int key_bits = 0;
  int cells_added = 0;
  int cells_replaced = 0;
  double perf_pct = 0;
  double power_pct = 0;
  double area_pct = 0;
  double original_delay_ps = 0;
  double hybrid_delay_ps = 0;
  std::string n_indep;
  std::string n_dep;
  std::string n_bf;
  int paths_considered = 0;
  int timing_retries = 0;
  int usl_replacements = 0;

  // Lint stage (when spec.lint): verdict of the static analysis over the
  // hybrid netlist, plus the largest log10 gap between the optimistic and
  // audited Eq. (1)-(3) figures (0 when no candidate set collapsed).
  bool lint_ran = false;
  std::string lint_verdict;  ///< clean | info | warnings | errors
  int lint_errors = 0;
  int lint_warnings = 0;
  int lint_infos = 0;
  double audit_log10_drop = 0;
  // Key-dependency analysis (verify/keydep, part of the lint stage):
  // statically recoverable key bits, the predicted effective key space in
  // bits, and the analyzer's one-word verdict for the netlist.
  int key_bits_static = 0;
  int eff_key_bits = 0;
  std::string analyze_verdict;  ///< empty | broken | degraded | secure

  // Attack stage (when `attack` is not "none"), filled from the registry's
  // UnifiedResult. The solver-telemetry block below is zero for the
  // non-SAT attacks; for "sat" it mirrors SatAttackStats
  // (canonical-member counts, deterministic across --jobs).
  bool attack_ran = false;
  bool attack_success = false;
  std::string attack_outcome;  ///< solved | timed_out | budget_exhausted | ...
  std::string attack_detail;   ///< registry one-liner (dips, rows, ...)
  std::uint64_t attack_queries = 0;
  std::uint64_t attack_iterations = 0;
  std::int64_t attack_conflicts = 0;
  std::int64_t attack_decisions = 0;
  std::int64_t attack_propagations = 0;
  std::int64_t attack_learned = 0;
  std::int64_t attack_peak_clauses = 0;
  double attack_cnf_per_iter = 0;

  // -- measured (non-deterministic; reported separately) ------------------
  double selection_ms = 0;  ///< Table II metric, from the selector's timer
  double flow_ms = 0;       ///< whole-job run time
  double queue_ms = 0;      ///< ready -> running scheduling latency
};

/// "ok" | "failed" — the status cell/JSON value shared by every view.
std::string trial_status(const TrialRecord& record);

/// One column of the deterministic results CSV: header name plus the
/// formatter producing the (possibly blank) cell for a record. Blank cells
/// encode "this stage did not run" for the lint/attack column blocks.
struct TrialCsvField {
  const char* name;
  std::string (*cell)(const TrialRecord&);
};

/// The results-CSV column table, in emission order. Shared by
/// `campaign_results_csv` and anything else that needs the canonical
/// column set (the store's self-description, schema checks).
std::span<const TrialCsvField> trial_csv_fields();

/// Canonical binary codec for the result store. Every field is written —
/// including the measured block, so a resumed campaign can reproduce the
/// timing view of the recorded rows — in fixed little-endian wire format.
/// `decode_trial_record` throws std::runtime_error on truncation.
void encode_trial_record(WireWriter& w, const TrialRecord& record);
TrialRecord decode_trial_record(WireReader& r);

}  // namespace stt
