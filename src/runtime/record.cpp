#include "runtime/record.hpp"

#include <array>

#include "runtime/wire.hpp"
#include "util/strings.hpp"

namespace stt {

namespace {

std::string fmt4(double v) { return strformat("%.4f", v); }

// Cell formatter shorthands for the table below. Lint/attack columns are
// blank unless their stage ran — the blank string is part of the pinned
// CSV byte format, not a rendering default.
using R = const TrialRecord&;

std::string cell(const std::string& v) { return v; }
std::string cell(double v) { return fmt4(v); }
template <typename T>
std::string cell(T v) {
  return std::to_string(v);
}
/// The cell of a lint/attack column: blank unless its stage `ran`.
template <typename T>
std::string if_ran(bool ran, const T& v) {
  return ran ? cell(v) : std::string();
}

}  // namespace

std::string trial_status(const TrialRecord& record) {
  return record.ok ? "ok" : "failed";
}

std::span<const TrialCsvField> trial_csv_fields() {
  // The "algorithm" column holds the defense kind: the paper's three
  // selection algorithms are registered defenses of the same name, and the
  // column name is part of the pinned CSV bytes.
  static const std::array<TrialCsvField, 43> kFields = {{
      {"benchmark", [](R r) { return r.benchmark; }},
      {"algorithm", [](R r) { return r.defense; }},
      {"trial", [](R r) { return std::to_string(r.trial); }},
      {"circuit_seed", [](R r) { return std::to_string(r.circuit_seed); }},
      {"selection_seed",
       [](R r) { return std::to_string(r.selection_seed); }},
      {"status", [](R r) { return trial_status(r); }},
      {"attempts", [](R r) { return std::to_string(r.attempts); }},
      {"luts", [](R r) { return std::to_string(r.num_luts); }},
      {"perf_pct", [](R r) { return fmt4(r.perf_pct); }},
      {"power_pct", [](R r) { return fmt4(r.power_pct); }},
      {"area_pct", [](R r) { return fmt4(r.area_pct); }},
      {"orig_delay_ps", [](R r) { return fmt4(r.original_delay_ps); }},
      {"hybrid_delay_ps", [](R r) { return fmt4(r.hybrid_delay_ps); }},
      {"n_indep", [](R r) { return r.n_indep; }},
      {"n_dep", [](R r) { return r.n_dep; }},
      {"n_bf", [](R r) { return r.n_bf; }},
      {"paths", [](R r) { return std::to_string(r.paths_considered); }},
      {"timing_retries",
       [](R r) { return std::to_string(r.timing_retries); }},
      {"usl", [](R r) { return std::to_string(r.usl_replacements); }},
      {"defense_tuning", [](R r) { return r.defense_tuning; }},
      {"key_cells", [](R r) { return std::to_string(r.key_cells); }},
      {"key_bits", [](R r) { return std::to_string(r.key_bits); }},
      {"cells_added", [](R r) { return std::to_string(r.cells_added); }},
      {"cells_replaced",
       [](R r) { return std::to_string(r.cells_replaced); }},
      {"lint", [](R r) { return r.lint_ran ? r.lint_verdict : ""; }},
      {"lint_errors", [](R r) { return if_ran(r.lint_ran, r.lint_errors); }},
      {"lint_warnings",
       [](R r) { return if_ran(r.lint_ran, r.lint_warnings); }},
      {"audit_log10_drop",
       [](R r) { return if_ran(r.lint_ran, r.audit_log10_drop); }},
      {"key_bits_static",
       [](R r) { return if_ran(r.lint_ran, r.key_bits_static); }},
      {"eff_key_bits", [](R r) { return if_ran(r.lint_ran, r.eff_key_bits); }},
      {"analyze_verdict",
       [](R r) { return if_ran(r.lint_ran, r.analyze_verdict); }},
      {"attack", [](R r) { return r.attack_ran ? r.attack : "none"; }},
      {"attack_success",
       [](R r) {
         return r.attack_ran ? (r.attack_success ? "1" : "0")
                             : std::string();
       }},
      {"attack_outcome",
       [](R r) { return if_ran(r.attack_ran, r.attack_outcome); }},
      {"attack_queries",
       [](R r) { return if_ran(r.attack_ran, r.attack_queries); }},
      {"attack_iters",
       [](R r) { return if_ran(r.attack_ran, r.attack_iterations); }},
      {"attack_conflicts",
       [](R r) { return if_ran(r.attack_ran, r.attack_conflicts); }},
      {"attack_decisions",
       [](R r) { return if_ran(r.attack_ran, r.attack_decisions); }},
      {"attack_propagations",
       [](R r) { return if_ran(r.attack_ran, r.attack_propagations); }},
      {"attack_learned",
       [](R r) { return if_ran(r.attack_ran, r.attack_learned); }},
      {"attack_peak_clauses",
       [](R r) { return if_ran(r.attack_ran, r.attack_peak_clauses); }},
      {"attack_cnf_per_iter",
       [](R r) { return if_ran(r.attack_ran, r.attack_cnf_per_iter); }},
      {"error", [](R r) { return r.error; }},
  }};
  return kFields;
}

namespace {

// The codec's wire types, chosen by each field's C++ type. The deleted
// catch-all turns a field of any other type into a compile error.
struct FieldWriter {
  WireWriter& w;
  void operator()(const std::string& v) { w.str(v); }
  void operator()(bool v) { w.b(v); }
  void operator()(int v) { w.i32(v); }
  void operator()(std::int64_t v) { w.i64(v); }
  void operator()(std::uint64_t v) { w.u64(v); }
  void operator()(double v) { w.f64(v); }
  template <typename T>
  void operator()(const T&) = delete;
};

struct FieldReader {
  WireReader& r;
  void operator()(std::string& v) { v = r.str(); }
  void operator()(bool& v) { v = r.b(); }
  void operator()(int& v) { v = r.i32(); }
  void operator()(std::int64_t& v) { v = r.i64(); }
  void operator()(std::uint64_t& v) { v = r.u64(); }
  void operator()(double& v) { v = r.f64(); }
};

/// Every TrialRecord field in wire order — the one list both directions of
/// the codec walk, so encode and decode cannot drift apart.
template <typename Io, typename Record>
void wire_fields(Io io, Record& r) {
  // Identity and status.
  io(r.benchmark); io(r.defense); io(r.defense_tuning); io(r.attack);
  io(r.trial); io(r.circuit_seed); io(r.selection_seed); io(r.attempts);
  io(r.ok); io(r.error);
  // Flow metrics and key accounting.
  io(r.num_luts); io(r.key_cells); io(r.key_bits); io(r.cells_added);
  io(r.cells_replaced); io(r.perf_pct); io(r.power_pct); io(r.area_pct);
  io(r.original_delay_ps); io(r.hybrid_delay_ps);
  io(r.n_indep); io(r.n_dep); io(r.n_bf);
  io(r.paths_considered); io(r.timing_retries); io(r.usl_replacements);
  // Lint stage.
  io(r.lint_ran); io(r.lint_verdict); io(r.lint_errors); io(r.lint_warnings);
  io(r.lint_infos); io(r.audit_log10_drop); io(r.key_bits_static);
  io(r.eff_key_bits); io(r.analyze_verdict);
  // Attack stage.
  io(r.attack_ran); io(r.attack_success); io(r.attack_outcome);
  io(r.attack_detail); io(r.attack_queries); io(r.attack_iterations);
  io(r.attack_conflicts); io(r.attack_decisions); io(r.attack_propagations);
  io(r.attack_learned); io(r.attack_peak_clauses); io(r.attack_cnf_per_iter);
  // Measured block.
  io(r.selection_ms); io(r.flow_ms); io(r.queue_ms);
}

}  // namespace

void encode_trial_record(WireWriter& w, const TrialRecord& r) {
  wire_fields(FieldWriter{w}, r);
}

TrialRecord decode_trial_record(WireReader& r) {
  TrialRecord t;
  wire_fields(FieldReader{r}, t);
  return t;
}

}  // namespace stt
