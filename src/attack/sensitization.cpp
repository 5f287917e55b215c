#include "attack/sensitization.hpp"

#include <optional>

#include "sim/partial_eval.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace stt {

SensitizationResult run_sensitization_attack(const Netlist& hybrid,
                                             ScanOracle& oracle,
                                             const SensitizationOptions& opt) {
  SensitizationResult result;
  const Timer timer;
  std::optional<obs::Span> root;
  if (opt.trace) root.emplace("attack", "sensitization");
  result.span_id = root ? root->id() : 0;
  Rng rng(opt.seed);

  LutKnowledgeMap luts;
  std::vector<CellId> lut_ids;
  for (CellId id = 0; id < hybrid.size(); ++id) {
    const Cell& c = hybrid.cell(id);
    if (c.kind != CellKind::kLut) continue;
    LutKnowledge st;
    st.rows = num_rows(c.fanin_count());
    luts.emplace(id, st);
    lut_ids.push_back(id);
    result.rows_total += static_cast<int>(st.rows);
  }
  result.luts_total = static_cast<int>(lut_ids.size());
  if (lut_ids.empty()) {
    result.outcome = attack::Outcome::kSolved;
    result.elapsed_s = timer.seconds();
    return result;
  }

  PartialEvaluator evaluator(hybrid, luts);
  ForceProbe probe(evaluator);
  const std::size_t n_in = oracle.num_inputs();
  const std::uint64_t start_queries = oracle.queries();

  int resolved_rows = 0;
  int resolved_luts = 0;
  std::uint64_t stale = 0;  // patterns since last progress

  bool hit_time_limit = false;
  while (resolved_rows < result.rows_total &&
         oracle.queries() - start_queries < opt.query_budget &&
         stale < opt.query_budget / 4 + 512) {
    if ((stale & 255u) == 0 && timer.seconds() >= opt.time_limit_s) {
      hit_time_limit = true;
      break;
    }
    std::vector<bool> pattern(n_in);
    for (std::size_t i = 0; i < n_in; ++i) pattern[i] = rng.chance(0.5);
    const std::vector<bool> response = oracle.query(pattern);
    ++stale;

    std::vector<Tri> tri_in(n_in);
    for (std::size_t i = 0; i < n_in; ++i) tri_in[i] = tri_from_bool(pattern[i]);
    // Row justification reads this pattern's base throughout; the probe's
    // base is re-derived after every resolution so later probes see the
    // knowledge this pattern has already added.
    const std::vector<Tri> base = evaluator.eval(tri_in);
    probe.rebase(base);

    for (const CellId lut : lut_ids) {
      LutKnowledge& st = luts[lut];
      if (st.complete()) continue;
      // Inputs justified to a definite row?
      const Cell& c = hybrid.cell(lut);
      std::uint32_t row = 0;
      bool definite = true;
      for (int i = 0; i < c.fanin_count(); ++i) {
        const Tri v = base[c.fanins[i]];
        if (v == Tri::kX) {
          definite = false;
          break;
        }
        if (v == Tri::kOne) row |= (1u << i);
      }
      if (!definite || (st.known_mask & (1ull << row))) continue;

      // Propagate: does forcing the LUT output provably reach an
      // observable bit (PO or next-state) that the oracle reveals?
      probe.force(lut);
      const int o = probe.first_sensitized();
      if (o < 0) continue;
      const Tri v1 = probe.value(1, probe.observation_points()[o]);
      const bool row_value = (tri_from_bool(response[o]) == v1);
      st.known_mask |= (1ull << row);
      if (row_value) st.value_mask |= (1ull << row);
      ++resolved_rows;
      stale = 0;
      if (st.complete()) ++resolved_luts;
      probe.refresh(lut);
    }
  }

  result.rows_resolved = resolved_rows;
  result.luts_resolved = resolved_luts;
  result.queries = oracle.queries() - start_queries;
  if (resolved_rows == result.rows_total) {
    result.outcome = attack::Outcome::kSolved;
  } else if (hit_time_limit) {
    result.outcome = attack::Outcome::kTimedOut;
  } else if (result.queries >= opt.query_budget) {
    result.outcome = attack::Outcome::kBudgetExhausted;
  } else {
    result.outcome = attack::Outcome::kAbandoned;  // stale: no progress
  }
  for (const CellId lut : lut_ids) {
    result.key[std::string(hybrid.cell(lut).name)] = luts[lut].value_mask;
  }
  result.elapsed_s = timer.seconds();
  return result;
}

}  // namespace stt
