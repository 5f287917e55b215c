#include "runtime/report.hpp"

#include <map>

#include "util/strings.hpp"
#include "util/table.hpp"

namespace stt {

namespace {

std::string fmt(double v) { return strformat("%.4f", v); }

}  // namespace

std::string campaign_results_csv(const CampaignReport& report) {
  // Column names, order, and cell formatting all come from the TrialRecord
  // field table (record.cpp) — the one place the results schema is
  // declared — so this writer, the store, and schema checks cannot drift.
  const std::span<const TrialCsvField> fields = trial_csv_fields();
  std::vector<std::string> header;
  header.reserve(fields.size());
  for (const TrialCsvField& field : fields) header.emplace_back(field.name);
  TextTable table(std::move(header));
  for (const TrialRecord& row : report.rows) {
    std::vector<std::string> cells;
    cells.reserve(fields.size());
    for (const TrialCsvField& field : fields) {
      cells.push_back(field.cell(row));
    }
    table.add_row(std::move(cells));
  }
  return table.to_csv();
}

std::string campaign_timing_csv(const CampaignReport& report) {
  TextTable table({"benchmark", "defense", "defense_tuning", "attack", "trial",
                   "selection_mmss", "selection_ms", "flow_ms", "queue_ms"});
  for (const TrialRecord& row : report.rows) {
    table.add_row({row.benchmark, row.defense, row.defense_tuning, row.attack,
                   std::to_string(row.trial),
                   Timer::format_mmss(row.selection_ms / 1e3),
                   strformat("%.1f", row.selection_ms),
                   strformat("%.1f", row.flow_ms),
                   strformat("%.2f", row.queue_ms)});
  }
  return table.to_csv();
}

std::vector<DefenseSummary> summarize_by_defense(
    const CampaignReport& report) {
  std::vector<DefenseSummary> summaries;
  for (const TrialRecord& row : report.rows) {
    DefenseSummary* summary = nullptr;
    for (DefenseSummary& s : summaries) {
      if (s.defense == row.defense && s.tuning == row.defense_tuning) {
        summary = &s;
        break;
      }
    }
    if (!summary) {
      summaries.emplace_back();
      summary = &summaries.back();
      summary->defense = row.defense;
      summary->tuning = row.defense_tuning;
    }
    ++summary->rows;
    if (!row.ok) {
      ++summary->failed;
      continue;
    }
    summary->perf_pct.add(row.perf_pct);
    summary->power_pct.add(row.power_pct);
    summary->area_pct.add(row.area_pct);
    summary->luts.add(row.num_luts);
    summary->key_bits.add(row.key_bits);
    if (row.attack_ran) {
      ++summary->attacked;
      if (row.attack_success) ++summary->attack_breaks;
    }
  }
  return summaries;
}

std::string campaign_summary_text(const CampaignReport& report) {
  TextTable table({"Defense", "Rows", "Failed", "Perf% mean", "Pwr% mean",
                   "Area% mean", "#STT mean", "Key bits", "Broken"});
  for (const DefenseSummary& s : summarize_by_defense(report)) {
    const std::string label =
        s.tuning.empty() ? s.defense : s.defense + "(" + s.tuning + ")";
    table.add_row({label, std::to_string(s.rows), std::to_string(s.failed),
                   strformat("%.2f", s.perf_pct.mean()),
                   strformat("%.2f", s.power_pct.mean()),
                   strformat("%.2f", s.area_pct.mean()),
                   strformat("%.1f", s.luts.mean()),
                   strformat("%.1f", s.key_bits.mean()),
                   s.attacked ? strformat("%zu/%zu", s.attack_breaks,
                                          s.attacked)
                              : "-"});
  }
  return table.render();
}

std::string campaign_json(const CampaignReport& report, bool include_profile) {
  std::string out = "{\n";
  out += strformat("  \"master_seed\": %llu,\n",
                   static_cast<unsigned long long>(report.master_seed));
  out += strformat("  \"trials\": %d,\n", report.trials);
  std::string attacks;
  for (const std::string& attack : report.attacks) {
    attacks += attacks.empty() ? attack : "," + attack;
  }
  out += "  \"attack\": \"" + json_escape(attacks) + "\",\n";
  out += "  \"results\": [\n";
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    const TrialRecord& row = report.rows[i];
    out += "    {";
    out += "\"benchmark\": \"" + json_escape(row.benchmark) + "\", ";
    out += "\"algorithm\": \"" + json_escape(row.defense) + "\", ";
    out += "\"defense\": \"" + json_escape(row.defense) + "\", ";
    out += "\"defense_tuning\": \"" + json_escape(row.defense_tuning) + "\", ";
    out += strformat("\"trial\": %d, ", row.trial);
    out += strformat("\"circuit_seed\": %llu, ",
                     static_cast<unsigned long long>(row.circuit_seed));
    out += strformat("\"selection_seed\": %llu, ",
                     static_cast<unsigned long long>(row.selection_seed));
    out += "\"status\": \"" + trial_status(row) + "\", ";
    out += strformat("\"attempts\": %d, ", row.attempts);
    out += strformat("\"luts\": %d, ", row.num_luts);
    out += "\"perf_pct\": " + fmt(row.perf_pct) + ", ";
    out += "\"power_pct\": " + fmt(row.power_pct) + ", ";
    out += "\"area_pct\": " + fmt(row.area_pct) + ", ";
    out += "\"n_indep\": \"" + json_escape(row.n_indep) + "\", ";
    out += "\"n_dep\": \"" + json_escape(row.n_dep) + "\", ";
    out += "\"n_bf\": \"" + json_escape(row.n_bf) + "\", ";
    out += strformat("\"timing_retries\": %d, ", row.timing_retries);
    out += strformat("\"usl\": %d, ", row.usl_replacements);
    out += strformat(
        "\"key_cells\": %d, \"key_bits\": %d, \"cells_added\": %d, "
        "\"cells_replaced\": %d",
        row.key_cells, row.key_bits, row.cells_added, row.cells_replaced);
    if (row.lint_ran) {
      out += ", \"lint\": \"" + json_escape(row.lint_verdict) + "\", ";
      out += strformat(
          "\"lint_errors\": %d, \"lint_warnings\": %d, \"lint_infos\": %d, ",
          row.lint_errors, row.lint_warnings, row.lint_infos);
      out += "\"audit_log10_drop\": " + fmt(row.audit_log10_drop) + ", ";
      out += strformat("\"key_bits_static\": %d, \"eff_key_bits\": %d, ",
                       row.key_bits_static, row.eff_key_bits);
      out += "\"analyze_verdict\": \"" + json_escape(row.analyze_verdict) +
             "\"";
    }
    if (row.attack_ran) {
      out += ", \"attack\": \"" + json_escape(row.attack) + "\"";
      out += strformat(", \"attack_success\": %s, \"attack_queries\": %llu",
                       row.attack_success ? "true" : "false",
                       static_cast<unsigned long long>(row.attack_queries));
      out += ", \"attack_outcome\": \"" + json_escape(row.attack_outcome) +
             "\", \"attack_detail\": \"" + json_escape(row.attack_detail) +
             "\"";
      out += strformat(
          ", \"attack_iters\": %llu, \"attack_conflicts\": %lld"
          ", \"attack_decisions\": %lld, \"attack_propagations\": %lld"
          ", \"attack_learned\": %lld, \"attack_peak_clauses\": %lld",
          static_cast<unsigned long long>(row.attack_iterations),
          static_cast<long long>(row.attack_conflicts),
          static_cast<long long>(row.attack_decisions),
          static_cast<long long>(row.attack_propagations),
          static_cast<long long>(row.attack_learned),
          static_cast<long long>(row.attack_peak_clauses));
      out += ", \"attack_cnf_per_iter\": " + fmt(row.attack_cnf_per_iter);
    }
    if (!row.ok) {
      out += ", \"error\": \"" + json_escape(row.error) + "\"";
    }
    out += "}";
    if (i + 1 < report.rows.size()) out += ",";
    out += "\n";
  }
  out += "  ],\n";
  out += "  \"summary\": [\n";
  const auto summaries = summarize_by_defense(report);
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    const DefenseSummary& s = summaries[i];
    out += "    {\"defense\": \"" + json_escape(s.defense) + "\", ";
    out += "\"defense_tuning\": \"" + json_escape(s.tuning) + "\", ";
    out += strformat("\"rows\": %zu, \"failed\": %zu, ", s.rows, s.failed);
    out += "\"perf_pct_mean\": " + fmt(s.perf_pct.mean()) + ", ";
    out += "\"power_pct_mean\": " + fmt(s.power_pct.mean()) + ", ";
    out += "\"area_pct_mean\": " + fmt(s.area_pct.mean()) + ", ";
    out += "\"luts_mean\": " + fmt(s.luts.mean()) + ", ";
    out += "\"key_bits_mean\": " + fmt(s.key_bits.mean()) + ", ";
    out += strformat("\"attacked\": %zu, \"attack_breaks\": %zu}", s.attacked,
                     s.attack_breaks);
    if (i + 1 < summaries.size()) out += ",";
    out += "\n";
  }
  out += "  ],\n";
  // Stable metrics delta: deterministic across runs and --jobs values,
  // so it belongs with "results"/"summary" rather than "runtime".
  out += "  \"obs\": " + obs::metrics_json(report.obs, 2).substr(2);
  if (include_profile) {
    const auto& p = report.profile;
    out += ",\n  \"runtime\": {";
    out += strformat("\"threads\": %u, ", p.threads);
    out += strformat("\"wall_seconds\": %.3f, ", p.wall_seconds);
    out += strformat("\"job_cpu_seconds\": %.3f, ", p.job_cpu_seconds);
    out += strformat("\"executed\": %llu, ",
                     static_cast<unsigned long long>(p.executed));
    out += strformat("\"stolen\": %llu, ",
                     static_cast<unsigned long long>(p.stolen));
    out += strformat("\"failed_rows\": %zu,\n", p.failed_rows);
    out += strformat("    \"rows_resumed\": %zu, \"rows_executed\": %zu, ",
                     p.rows_resumed, p.rows_executed);
    out += strformat("\"shard_index\": %u, \"shard_count\": %u,\n",
                     p.shard_index, p.shard_count);
    out += strformat(
        "    \"cache_builds\": %llu, \"cache_reuses\": %llu, ",
        static_cast<unsigned long long>(p.cache_builds),
        static_cast<unsigned long long>(p.cache_reuses));
    out += "\"cache_saved_ms\": " + fmt(p.cache_saved_ms) + ",\n";
    out += "    \"store_note\": \"" + json_escape(p.store_note) + "\",\n";
    out += "    \"obs\": " + obs::metrics_json(p.obs, 4).substr(4);
    out += "}";
  }
  out += "\n}\n";
  return out;
}

ProgressMeter::ProgressMeter(std::size_t total, bool enabled, std::FILE* out)
    : total_(total),
      enabled_(enabled),
      out_(out),
      base_dips_(obs::Metrics::global().counter_value("sat.dips")),
      base_words_(obs::Metrics::global().counter_value("sim.words")) {}

ProgressMeter::~ProgressMeter() { finish(); }

void ProgressMeter::tick(std::size_t done, const std::string& label) {
  if (!enabled_) return;
  std::lock_guard lock(mutex_);
  const double elapsed = timer_.seconds();
  std::string rates;
  if (elapsed > 0) {
    const std::uint64_t dips =
        obs::Metrics::global().counter_value("sat.dips") - base_dips_;
    const std::uint64_t words =
        obs::Metrics::global().counter_value("sim.words") - base_words_;
    if (dips != 0) {
      rates += strformat(" %.1f dips/s", static_cast<double>(dips) / elapsed);
    }
    if (words != 0) {
      // One sim word is 64 bit-parallel patterns.
      rates += strformat(" %.2fM evals/s",
                         static_cast<double>(words) * 64.0 / elapsed / 1e6);
    }
  }
  std::fprintf(out_, "\r[%zu/%zu] %-40s t=%.1fs%s", done, total_,
               label.c_str(), elapsed, rates.c_str());
  std::fflush(out_);
  dirty_ = true;
}

void ProgressMeter::finish() {
  if (!enabled_) return;
  std::lock_guard lock(mutex_);
  if (dirty_) {
    std::fputc('\n', out_);
    std::fflush(out_);
    dirty_ = false;
  }
}

}  // namespace stt
