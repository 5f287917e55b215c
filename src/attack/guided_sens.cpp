#include "attack/guided_sens.hpp"

#include <algorithm>
#include <optional>
#include <set>

#include "attack/encode.hpp"
#include "sim/partial_eval.hpp"
#include "attack/sat.hpp"
#include "obs/obs.hpp"
#include "util/timer.hpp"

namespace stt {

namespace {

// Abstract view for pattern derivation: every unresolved LUT becomes a
// buffer driven by a fresh "free" primary input (its value is an unknown
// the attacker can neither control nor rely on); resolved LUTs keep their
// recovered masks. Returns the abstract netlist plus, per original LUT id,
// the name of its free input.
struct AbstractView {
  Netlist nl;
  std::unordered_map<CellId, std::string> free_input_of;  ///< by original id
};

AbstractView make_abstract(const Netlist& hybrid, const LutKnowledgeMap& luts) {
  AbstractView view;
  view.nl = hybrid;
  int counter = 0;
  for (const auto& [id, st] : luts) {
    if (st.complete()) {
      Cell& c = view.nl.cell(id);
      c.lut_mask = st.value_mask & full_mask(c.fanin_count());
      continue;
    }
    const std::string free_name = "__free" + std::to_string(counter++) +
                                  "_" + std::string(hybrid.cell(id).name);
    const CellId free_pi = view.nl.add_input(free_name);
    // Sever the LUT from its drivers; it now buffers the free unknown.
    view.nl.connect(id, {free_pi});
    Cell& c = view.nl.cell(id);
    c.kind = CellKind::kBuf;
    c.lut_mask = 0;
    view.free_input_of[id] = free_name;
  }
  view.nl.finalize();
  return view;
}

}  // namespace

GuidedSensResult run_guided_sensitization(const Netlist& hybrid,
                                          ScanOracle& oracle,
                                          const GuidedSensOptions& opt) {
  GuidedSensResult result;
  const Timer timer;
  std::optional<obs::Span> root;
  if (opt.trace) root.emplace("attack", "guided_sens");
  result.span_id = root ? root->id() : 0;

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

  const std::size_t n_real_in = oracle.num_inputs();
  const std::uint64_t start_queries = oracle.queries();

  // A row becomes permanently dead when the SAT query proves no
  // justify-and-propagate pattern exists *under the current knowledge*;
  // rows are retried whenever knowledge grows, so deadness is tracked per
  // pass.
  bool progress = true;
  bool hit_time_limit = false;
  std::set<std::pair<CellId, std::uint32_t>> proven_unreachable;
  while (progress && result.rows_resolved < result.rows_total &&
         !hit_time_limit) {
    progress = false;
    const AbstractView view = make_abstract(hybrid, luts);
    const PartialEvaluator evaluator(hybrid, luts);
    ForceProbe probe(evaluator);

    for (const CellId lut : lut_ids) {
      LutKnowledge& st = luts[lut];
      if (st.complete()) continue;
      const Cell& target = hybrid.cell(lut);

      // Justification through another unresolved LUT is hopeless; postpone
      // this LUT until its drivers resolve.
      bool driver_unknown = false;
      for (const CellId f : target.fanins) {
        const auto it = luts.find(f);
        if (it != luts.end() && !it->second.complete()) driver_unknown = true;
      }
      if (driver_unknown) continue;

      for (std::uint32_t row = 0; row < st.rows; ++row) {
        if (st.known_mask & (1ull << row)) continue;
        if (timer.seconds() >= opt.time_limit_s) {
          hit_time_limit = true;
          break;
        }

        // Fresh solver per row: two copies of the abstract view, sharing
        // every input except the target's own free variable.
        sat::Solver solver;
        const EncodedCircuit c0 = encode_comb(solver, view.nl);
        std::vector<sat::Var> inputs1 = c0.input_vars;
        // Locate the target's free-input slot.
        const CellId free_cell =
            view.nl.find(view.free_input_of.at(lut));
        std::size_t free_slot = 0;
        {
          const auto ins = view.nl.inputs();
          free_slot = static_cast<std::size_t>(
              std::find(ins.begin(), ins.end(), free_cell) - ins.begin());
        }
        inputs1[free_slot] = solver.new_var();
        EncodeOptions share;
        share.share_inputs = &inputs1;
        const EncodedCircuit c1 = encode_comb(solver, view.nl, share);
        solver.add_unit(sat::neg(c0.input_vars[free_slot]));  // z = 0
        solver.add_unit(sat::pos(inputs1[free_slot]));        // z = 1

        // Justify the row on the target's original drivers (copy 0; the
        // two copies agree upstream by construction).
        for (int i = 0; i < target.fanin_count(); ++i) {
          const CellId driver = target.fanins[i];
          // Driver cells exist identically in the abstract view.
          const sat::Var v = c0.cell_var[driver];
          solver.add_unit((row & (1u << i)) ? sat::pos(v) : sat::neg(v));
        }

        // Some observable must differ between z=0 and z=1.
        std::vector<sat::Lit> any_diff;
        for (std::size_t o = 0; o < c0.output_vars.size(); ++o) {
          const sat::Var d = solver.new_var();
          const sat::Var x = c0.output_vars[o];
          const sat::Var y = c1.output_vars[o];
          solver.add_ternary(sat::neg(d), sat::pos(x), sat::pos(y));
          solver.add_ternary(sat::neg(d), sat::neg(x), sat::neg(y));
          solver.add_ternary(sat::pos(d), sat::neg(x), sat::pos(y));
          solver.add_ternary(sat::pos(d), sat::pos(x), sat::neg(y));
          any_diff.push_back(sat::pos(d));
        }
        solver.add_clause(any_diff);

        bool row_done = false;
        for (int witness = 0;
             witness < opt.max_witnesses_per_row && !row_done; ++witness) {
          solver.set_conflict_budget(opt.work_budget);
          const sat::Result sat_result = solver.solve();
          if (sat_result == sat::Result::kUnsat) {
            if (witness == 0) proven_unreachable.insert({lut, row});
            break;
          }
          if (sat_result == sat::Result::kUnknown) break;

          // Candidate scan pattern: the real inputs of copy 0. In the
          // abstract view the encoder's input order is [original PIs,
          // free PIs, FFs]; the free block must be skipped.
          const std::size_t n_pi = hybrid.inputs().size();
          const std::size_t n_free = view.nl.inputs().size() - n_pi;
          std::vector<bool> pattern(n_real_in);
          for (std::size_t i = 0; i < n_pi; ++i) {
            pattern[i] = solver.value(c0.input_vars[i]);
          }
          for (std::size_t j = n_pi; j < n_real_in; ++j) {
            pattern[j] = solver.value(c0.input_vars[j + n_free]);
          }
          // Conservative validation: justification and propagation must
          // hold for *every* value of the other unknowns, not just the
          // SAT witness's choice.
          std::vector<Tri> tri_in(n_real_in);
          for (std::size_t i = 0; i < n_real_in; ++i) {
            tri_in[i] = tri_from_bool(pattern[i]);
          }
          const std::vector<Tri> base = evaluator.eval(tri_in);
          bool valid = true;
          for (int i = 0; i < target.fanin_count() && valid; ++i) {
            const Tri v = base[target.fanins[i]];
            valid = (v != Tri::kX) &&
                    ((v == Tri::kOne) == ((row & (1u << i)) != 0));
          }
          int observable_index = -1;
          Tri v1_at_obs = Tri::kX;
          if (valid) {
            probe.rebase(base);
            probe.force(lut);
            observable_index = probe.first_sensitized();
            valid = observable_index >= 0;
            if (valid) {
              v1_at_obs = probe.value(
                  1, probe.observation_points()[observable_index]);
            }
          }
          if (!valid) {
            // Block this witness's real-input assignment and re-derive.
            std::vector<sat::Lit> block;
            for (std::size_t i = 0; i < n_real_in; ++i) {
              const std::size_t slot = i < n_pi ? i : i + n_free;
              block.push_back(pattern[i] ? sat::neg(c0.input_vars[slot])
                                         : sat::pos(c0.input_vars[slot]));
            }
            solver.add_clause(block);
            continue;
          }

          const auto response = oracle.query(pattern);
          const bool row_value =
              tri_from_bool(response[observable_index]) == v1_at_obs;
          st.known_mask |= (1ull << row);
          if (row_value) st.value_mask |= (1ull << row);
          ++result.rows_resolved;
          progress = true;
          row_done = true;
        }
      }
      if (st.complete()) ++result.luts_resolved;
    }
  }

  result.rows_proven_unreachable =
      static_cast<int>(proven_unreachable.size());
  result.queries = oracle.queries() - start_queries;
  if (result.rows_resolved == result.rows_total) {
    result.outcome = attack::Outcome::kSolved;
  } else if (hit_time_limit) {
    result.outcome = attack::Outcome::kTimedOut;
  } else {
    result.outcome = attack::Outcome::kAbandoned;  // no derivable row left
  }
  for (const CellId lut : lut_ids) {
    result.key[std::string(hybrid.cell(lut).name)] = luts[lut].value_mask;
  }
  result.elapsed_s = timer.seconds();
  return result;
}

}  // namespace stt
