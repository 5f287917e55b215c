// Security datasheet: everything the library knows about one hardened
// design, in one report — the document a design-assurance reviewer would
// ask for before sign-off.
//
//   ./hardening_report [circuit.bench]
//
// Pipeline: parametric-aware selection -> complex-function packing
// (timing-guarded) -> sign-off metrics (timing, power, area) -> security
// metrics (Eqs. 1-3, SCOAP resolvability, DPA margin on the most exposed
// LUT).
#include <algorithm>
#include <cstdio>

#include "attack/dpa.hpp"
#include "core/flow.hpp"
#include "core/packing.hpp"
#include "io/bench_io.hpp"
#include "power/trace.hpp"
#include "sim/scoap.hpp"
#include "synth/generator.hpp"

int main(int argc, char** argv) {
  using namespace stt;
  const TechLibrary lib = TechLibrary::cmos90_stt();

  const Netlist original = argc > 1 ? read_bench_file(argv[1])
                              : generate_circuit(*find_profile("s1238"), 42);
  std::printf("==== sttlock hardening report: %s ====\n\n",
              original.name().c_str());

  // -- 1. selection + packing ----------------------------------------------
  FlowOptions fopt;
  fopt.algorithm = SelectionAlgorithm::kParametric;
  fopt.selection.seed = 42;
  FlowResult flow = run_secure_flow(original, lib, fopt);

  PackingOptions popt;
  popt.seed = 42;
  popt.lib = &lib;
  popt.max_delay_ps = flow.overhead.original_delay_ps *
                      (1.0 + fopt.selection.timing_margin);
  const auto packed = pack_complex_functions(flow.hybrid, popt);
  flow.hybrid = strip_dead_logic(flow.hybrid);
  flow.selection.key = extract_key(flow.hybrid);
  flow.overhead = compare_overhead(original, flow.hybrid, lib);
  flow.security = security_report(flow.hybrid, SimilarityModel::paper());

  std::printf("[lock] %zu STT LUTs (%d via USL closure), packing absorbed "
              "%d gates, %d dummy inputs\n",
              flow.selection.key.size(), flow.selection.usl_replacements,
              packed.absorbed_gates, packed.dummies_added);
  std::printf("[key]  %zu configuration bits\n\n", key_bits(flow.hybrid));

  // -- 2. parametric sign-off ----------------------------------------------
  std::printf("[timing] %.1f ps -> %.1f ps (%+.2f%%)\n",
              flow.overhead.original_delay_ps, flow.overhead.hybrid_delay_ps,
              flow.overhead.perf_degradation_pct());
  std::printf("[power]  %+.2f%% @ alpha=10%%\n",
              flow.overhead.power_overhead_pct());
  std::printf("[area]   %+.2f%% (%.0f -> %.0f um^2)\n\n",
              flow.overhead.area_overhead_pct(),
              flow.overhead.original_area_um2, flow.overhead.hybrid_area_um2);

  // -- 3. security ----------------------------------------------------------
  std::printf("[attack cost] Eq.1 %s | Eq.2 %s | Eq.3 %s test clocks\n",
              flow.security.n_indep.to_string().c_str(),
              flow.security.n_dep.to_string().c_str(),
              flow.security.n_bf.to_string().c_str());
  std::printf("[attack cost] brute force at 1G patterns/s: %s years\n",
              attack_years(flow.security.n_bf).to_string().c_str());
  std::printf("[exposure] I = %d controllable support bits over M = %d "
              "missing gates, D = %d\n",
              flow.security.accessible_inputs, flow.security.missing_gates,
              flow.security.circuit_depth);

  // SCOAP resolvability of every missing gate under the attacker view.
  ScoapOptions sopt;
  sopt.attacker_view = true;
  const auto scoap = compute_scoap(flow.hybrid, sopt);
  double worst = 0;
  double best = 1e30;
  CellId most_exposed = kNullCell;
  for (const auto& [name, mask] : flow.selection.key) {
    const CellId id = flow.hybrid.find(name);
    const double r = scoap.resolvability(flow.hybrid, id);
    worst = std::max(worst, r);
    if (r < best) {
      best = r;
      most_exposed = id;
    }
  }
  std::printf("[testability] attacker-view resolvability: easiest LUT %.1f, "
              "hardest %.1f (>= %.0f means provably gated on other "
              "unknowns)\n",
              best, worst, sopt.unknown_lut_cost);

  // DPA margin on the most exposed LUT.
  if (most_exposed != kNullCell &&
      flow.hybrid.cell(most_exposed).fanin_count() <= 4) {
    TraceOptions topt;
    topt.cycles = 1024;
    const auto trace = simulate_power_trace(flow.hybrid, lib, topt);
    const auto dpa = run_dpa_attack(
        flow.hybrid, most_exposed, flow.hybrid.cell(most_exposed).lut_mask,
        trace, {});
    std::printf("[side channel] CPA margin on the most exposed LUT ('%s'): "
                "%.4f %s\n",
                std::string(flow.hybrid.cell(most_exposed).name).c_str(), dpa.margin(),
                dpa.margin() < 0.05
                    ? "(at-chance: content-independent MTJ read energy)"
                    : "(residual leakage via downstream CMOS toggles — "
                      "consider packing that cone)");
  }

  const double budget_pct = 100.0 * fopt.selection.timing_margin;
  const double perf_pct = flow.overhead.perf_degradation_pct();
  if (perf_pct <= budget_pct) {
    std::printf("\nVerdict: hybrid design meets the +%.0f%% timing budget "
                "(%+.2f%%), and every implemented attack class is "
                "quantified above.\n",
                budget_pct, perf_pct);
  } else {
    std::printf("\nVerdict: hybrid design MISSES the +%.0f%% timing budget "
                "(%+.2f%%); every implemented attack class is quantified "
                "above.\n",
                budget_pct, perf_pct);
  }
  return 0;
}
