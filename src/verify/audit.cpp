#include "verify/audit.hpp"

#include <stdexcept>
#include <unordered_set>

#include "graph/analysis.hpp"
#include "obs/obs.hpp"
#include "sim/partial_eval.hpp"
#include "sim/scoap.hpp"
#include "util/strings.hpp"

namespace stt {

namespace {

bool definite(Tri t) { return t != Tri::kX; }

// Does the mask, restricted to the reachable rows, change when input `bit`
// flips? Only row pairs that are both reachable count.
bool depends_on(std::uint64_t mask, std::uint64_t reachable, int fanin,
                int bit) {
  for (std::uint32_t row = 0; row < num_rows(fanin); ++row) {
    if (row & (1u << bit)) continue;
    const std::uint32_t partner = row | (1u << bit);
    if (!((reachable >> row) & 1ull) || !((reachable >> partner) & 1ull)) {
      continue;
    }
    if (((mask >> row) & 1ull) != ((mask >> partner) & 1ull)) return true;
  }
  return false;
}

}  // namespace

StaticAuditResult run_static_audit(const Netlist& nl,
                                   const StaticAuditOptions& opt) {
  // The pass simulates and topologically orders the netlist, so it needs
  // the structural layer's "evaluable" bar: resolved fan-ins and legal
  // arities everywhere (topo_order itself rejects cycles).
  for (CellId id = 0; id < nl.size(); ++id) {
    const Cell& c = nl.cell(id);
    const FaninRange range = fanin_range(c.kind);
    if (c.fanin_count() < range.min || c.fanin_count() > range.max) {
      throw std::runtime_error("static audit: illegal arity on '" +
                               std::string(c.name) + "'");
    }
    for (const CellId f : c.fanins) {
      if (f == kNullCell || f >= nl.size()) {
        throw std::runtime_error("static audit: unresolved fan-in on '" +
                                 std::string(c.name) + "'");
      }
    }
  }

  // Leaf spans: audit_security, audit_scoap, audit_luts, audit_equations.
  STTLOCK_SPAN("verify", "audit");
  StaticAuditResult result;
  {
    STTLOCK_SPAN("verify", "audit_security");
    result.optimistic = security_report(nl, opt.model);
  }

  std::vector<CellId> luts;
  for (CellId id = 0; id < nl.size(); ++id) {
    if (nl.cell(id).kind == CellKind::kLut) luts.push_back(id);
  }

  const ScoapResult scoap = [&] {
    if (!opt.scoap || luts.empty()) return ScoapResult{};
    STTLOCK_SPAN("verify", "audit_scoap");
    ScoapOptions sopt;
    sopt.attacker_view = true;
    ScoapResult r = compute_scoap(nl, sopt);
    // Runtime-tagged like the probe counters below.
    static obs::Counter& sweeps = obs::Metrics::global().counter(
        "verify.audit.scoap_sweeps", /*stable=*/false);
    static obs::Counter& evals = obs::Metrics::global().counter(
        "verify.audit.scoap_evals", /*stable=*/false);
    sweeps.add(static_cast<std::uint64_t>(r.sweeps));
    evals.add(r.evaluations);
    return r;
  }();

  std::vector<Tri> wave;
  std::unordered_set<CellId> excluded;  // inferable or masked: drop from M
  {
    STTLOCK_SPAN("verify", "audit_luts");
    // Attacker-view constant propagation: every primary input and state bit
    // is X, every missing gate's output is X (zero LUT knowledge), so a
    // definite wave value is a static constant no key and no stimulus can
    // change.
    const LutKnowledgeMap knowledge = unknown_luts(nl);
    const PartialEvaluator evaluator(nl, knowledge);
    const std::vector<Tri> all_x(nl.inputs().size() + nl.dffs().size(),
                                 Tri::kX);
    wave = evaluator.eval(all_x);
    ForceProbe probe(evaluator);
    probe.rebase(wave);

    for (const CellId id : luts) {
      const Cell& c = nl.cell(id);
      const int k = c.fanin_count();
      LutAudit audit;
      audit.cell = id;
      audit.fanin = k;

      // Constant-fed inputs and the reachable-row set they leave behind.
      std::string const_slots;
      for (int i = 0; i < k; ++i) {
        const Tri v = wave[c.fanins[i]];
        audit.input_values.push_back(v);
        if (definite(v)) {
          ++audit.constant_inputs;
          if (!const_slots.empty()) const_slots += ", ";
          const_slots += strformat(
              "'%s'=%c", std::string(nl.cell(c.fanins[i]).name).c_str(),
              tri_char(v));
        }
      }
      for (std::uint32_t row = 0; row < num_rows(k); ++row) {
        bool reachable = true;
        for (int i = 0; i < k; ++i) {
          const bool bit = row & (1u << i);
          if ((audit.input_values[i] == Tri::kOne && !bit) ||
              (audit.input_values[i] == Tri::kZero && bit)) {
            reachable = false;
            break;
          }
        }
        if (reachable) audit.reachable_rows |= (1ull << row);
      }

      // Effective support and inferability over the reachable restriction.
      for (int i = 0; i < k; ++i) {
        if (definite(audit.input_values[i])) continue;
        if (depends_on(c.lut_mask, audit.reachable_rows, k, i)) {
          ++audit.effective_support;
        }
      }
      audit.inferable = audit.effective_support == 0;

      if (audit.constant_inputs > 0) {
        result.findings.push_back(make_finding(
            nl, LintRule::kConstantFedLut, id,
            strformat("missing gate '%s' has %d of %d input(s) tied to static "
                      "constants (%s): only %d of %u truth-table rows are "
                      "reachable",
                      std::string(c.name).c_str(), audit.constant_inputs, k,
                      const_slots.c_str(),
                      __builtin_popcountll(audit.reachable_rows),
                      num_rows(k))));
      }
      // By-design suppressions (diagnostics only; every audited quantity
      // below still sees the gate exactly as an attacker would).
      const std::string cname(c.name);
      const bool declared_constant =
          opt.defense.locked_constants.count(cname) != 0;
      const bool declared_latch = opt.defense.decoy_latches.count(cname) != 0;

      if (audit.inferable) {
        if (!declared_constant) {
          const std::uint32_t first_row =
              static_cast<std::uint32_t>(__builtin_ctzll(audit.reachable_rows));
          result.findings.push_back(make_finding(
              nl, LintRule::kInferableLut, id,
              strformat("missing gate '%s' is statically inferable: every "
                        "reachable row yields %c (P collapses to 1)",
                        std::string(c.name).c_str(),
                        ((c.lut_mask >> first_row) & 1ull) ? '1' : '0')));
        }
      } else if (audit.constant_inputs == 0 && audit.effective_support < k &&
                 !declared_latch) {
        std::string vacuous;
        for (int i = 0; i < k; ++i) {
          if (depends_on(c.lut_mask, audit.reachable_rows, k, i)) continue;
          if (!vacuous.empty()) vacuous += ", ";
          vacuous += "'";
          vacuous += nl.cell(c.fanins[i]).name;
          vacuous += "'";
        }
        result.findings.push_back(make_finding(
            nl, LintRule::kVacuousLutInput, id,
            strformat("missing gate '%s' ignores input(s) %s: effective "
                      "support is %d of %d",
                      std::string(c.name).c_str(), vacuous.c_str(),
                      audit.effective_support, k)));
      }

      // Masked output: forcing the gate to 0 vs 1 leaves every observation
      // point (primary outputs and flip-flop D pins) at the same *definite*
      // value — sound proof that the secret never reaches the interface.
      if (!probe.observation_points().empty()) {
        probe.force(id);
        audit.masked = probe.masked();
        if (audit.masked) {
          result.findings.push_back(make_finding(
              nl, LintRule::kMaskedLut, id,
              strformat("missing gate '%s' is statically blocked from every "
                        "observation point: it contributes to M but its secret "
                        "never reaches the interface",
                        std::string(c.name).c_str())));
        }
      }

      if (opt.scoap && !scoap.co.empty()) {
        audit.resolvability = scoap.resolvability(nl, id);
        if (audit.resolvability <= opt.resolvability_threshold) {
          result.findings.push_back(make_finding(
              nl, LintRule::kResolvableLut, id,
              strformat("missing gate '%s' is trivially resolvable "
                        "(SCOAP justify+observe cost %.1f <= %.1f): "
                        "PI-adjacent rows, flip-flop-free observation",
                        std::string(c.name).c_str(), audit.resolvability,
                        opt.resolvability_threshold)));
        }
      }

      if (audit.inferable || audit.masked) excluded.insert(id);
      result.luts.push_back(std::move(audit));
    }
    // Deterministic in value, but runtime-tagged: the campaign's stable
    // metrics block predates these counters and stays byte-identical.
    static obs::Counter& probes =
        obs::Metrics::global().counter("verify.audit.probes", /*stable=*/false);
    static obs::Counter& probe_cells = obs::Metrics::global().counter(
        "verify.audit.probe_cells", /*stable=*/false);
    probes.add(probe.probes());
    probe_cells.add(probe.cells_evaluated());
  }

  // ---- audited Eqs. (1)-(3) -----------------------------------------------
  // Mirrors core/security.cpp term for term; the only deviations are the
  // audited quantities: inferable/masked gates leave M, effective support
  // replaces declared fan-in in alpha/P lookups, and the accessible-input
  // walk does not descend through statically constant cells.
  STTLOCK_SPAN("verify", "audit_equations");
  SecurityReport& audited = result.audited;
  audited.circuit_depth = result.optimistic.circuit_depth;

  std::vector<CellId> included;
  for (const CellId id : luts) {
    if (!excluded.count(id)) included.push_back(id);
  }
  audited.missing_gates = static_cast<int>(included.size());
  if (!included.empty()) {
    std::unordered_set<CellId> accessible;
    {
      std::vector<bool> seen(nl.size(), false);
      std::vector<CellId> work;
      for (const CellId id : included) {
        for (const CellId f : nl.cell(id).fanins) {
          if (!definite(wave[f])) work.push_back(f);
        }
      }
      while (!work.empty()) {
        const CellId u = work.back();
        work.pop_back();
        if (seen[u]) continue;
        seen[u] = true;
        const Cell& c = nl.cell(u);
        if (c.kind == CellKind::kInput || c.kind == CellKind::kDff) {
          accessible.insert(u);
          continue;
        }
        for (const CellId f : c.fanins) {
          if (!definite(wave[f])) work.push_back(f);
        }
      }
    }
    audited.accessible_inputs = static_cast<int>(accessible.size());

    const std::vector<int> depth_to_po = seq_depth_to_po(nl);

    BigNum sum;
    BigNum product = BigNum::from_double(1.0);
    BigNum bf_candidates = BigNum::from_double(1.0);
    double alpha_total = 0;
    double cand_total = 0;
    std::size_t audit_index = 0;
    for (const CellId id : included) {
      while (result.luts[audit_index].cell != id) ++audit_index;
      const LutAudit& a = result.luts[audit_index];
      const double alpha = opt.model.alpha_for(a.effective_support);
      const double cand = opt.model.candidates_for(a.effective_support);
      const int d = depth_to_po[id] == kUnreachable
                        ? audited.circuit_depth
                        : depth_to_po[id] + 1;
      alpha_total += alpha;
      cand_total += cand;
      sum += BigNum::from_double(alpha * static_cast<double>(d));
      product *= BigNum::from_double(alpha * cand * static_cast<double>(d));
      bf_candidates *= BigNum::from_double(cand);
    }
    audited.mean_alpha = alpha_total / static_cast<double>(included.size());
    audited.mean_candidates =
        cand_total / static_cast<double>(included.size());
    audited.n_indep = sum;
    audited.n_dep = product;
    audited.n_bf =
        BigNum::pow2(static_cast<double>(audited.accessible_inputs)) *
        bf_candidates *
        BigNum::from_double(static_cast<double>(audited.circuit_depth));
  }

  auto drop = [](const BigNum& optimistic, const BigNum& audited_value) {
    if (optimistic.is_zero() && audited_value.is_zero()) return 0.0;
    return optimistic.log10() - audited_value.log10();
  };
  result.log10_drop_indep = drop(result.optimistic.n_indep, audited.n_indep);
  result.log10_drop_dep = drop(result.optimistic.n_dep, audited.n_dep);
  result.log10_drop_bf = drop(result.optimistic.n_bf, audited.n_bf);
  return result;
}

}  // namespace stt
