// Scan-locked (no-scan) attack study: the executable version of the D
// factor in Eqs. (1)-(3).
//
// Section IV-A.3: oracle-guided attacks "significantly account on
// accessibility to scan architecture"; practice locks the scan chain. This
// bench quantifies what the attacker loses: the sequential SAT attack must
// unroll F time frames, and a LUT buried behind d flip-flops is invisible
// until F > d. We sweep the burial depth and the unrolling horizon on a
// pipeline circuit and report recovery status and costs, plus the scan
// attack as the baseline.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "attack/sat_attack.hpp"
#include "attack/seq_attack.hpp"
#include "core/hybrid.hpp"
#include "sim/compiled.hpp"
#include "synth/generator.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace stt;

// A circuit whose single locked gate sits `depth` flip-flops before the
// only primary output, with enough side logic to be non-trivial.
Netlist buried_lock(int depth, Netlist* hybrid_out) {
  Netlist nl("buried" + std::to_string(depth));
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId c = nl.add_input("c");
  const CellId g = nl.add_gate(CellKind::kXor, "locked", {a, b});
  const CellId mix = nl.add_gate(CellKind::kNand, "mix", {g, c});
  CellId cursor = mix;
  for (int i = 0; i < depth; ++i) {
    const CellId ff = nl.add_dff("ff" + std::to_string(i), cursor);
    cursor = nl.add_gate(CellKind::kXor, "st" + std::to_string(i), {ff, c});
  }
  const CellId out = nl.add_gate(CellKind::kOr, "out", {cursor, a});
  nl.mark_output(out);
  nl.finalize();

  *hybrid_out = nl;
  hybrid_out->replace_with_lut(nl.find("locked"));
  return nl;
}

bool key_correct_sequentially(const Netlist& view, const LutKey& key,
                              const Netlist& original) {
  Netlist recovered = view;
  apply_key(recovered, key);
  const CompiledSim sa(recovered);
  const CompiledSim sb(original);
  std::vector<std::uint64_t> state_a(sa.num_dffs(), 0);
  std::vector<std::uint64_t> state_b(sb.num_dffs(), 0);
  std::vector<std::uint64_t> wave_a(sa.wave_size()), wave_b(sb.wave_size());
  Rng rng(99);
  std::vector<std::uint64_t> pi(original.inputs().size());
  for (int t = 0; t < 64; ++t) {
    for (auto& w : pi) w = rng();
    sa.step(pi, state_a, wave_a);
    sb.step(pi, state_b, wave_b);
    for (std::size_t o = 0; o < sa.num_outputs(); ++o) {
      if (wave_a[sa.output_cells()[o]] != wave_b[sb.output_cells()[o]]) {
        return false;
      }
    }
  }
  return true;
}

void print_depth_sweep() {
  TextTable table({"burial depth d", "frames F", "DIS found", "key correct",
                   "oracle cycles", "attack s"});
  for (const int depth : {1, 2, 4, 6}) {
    for (const int frames : {depth - 1, depth + 1, depth + 4}) {
      if (frames <= 0) continue;
      Netlist hybrid;
      const Netlist original = buried_lock(depth, &hybrid);
      const Netlist view = foundry_view(hybrid);
      SeqAttackOptions opt;
      opt.frames = frames;
      opt.time_limit_s = 30;
      SequenceOracle oracle(original);
      const auto r = run_sequential_sat_attack(view, oracle, opt);
      const bool correct =
          r.success() && key_correct_sequentially(view, r.key, original);
      table.add_row({std::to_string(depth), std::to_string(frames),
                     std::to_string(r.iterations),
                     r.success() ? (correct ? "yes" : "NO (horizon too short)")
                               : "-",
                     std::to_string(r.queries),
                     strformat("%.2f", r.elapsed_s)});
    }
  }
  std::printf(
      "No-scan sequential SAT attack vs burial depth: with F <= d the\n"
      "attack finds no distinguishing sequence (0 DIS) and its vacuous key\n"
      "is wrong on longer runs; F > d recovers the key. Locked scan chains\n"
      "therefore multiply attack cost by the unrolling factor — the D term\n"
      "of Eqs. (1)-(3).\n\n%s\n",
      table.render().c_str());
}

void print_scan_vs_noscan() {
  TextTable table({"circuit", "mode", "ok", "iters/DIS", "oracle cost",
                   "seconds"});
  const CircuitProfile profile{"sv", 8, 6, 6, 120, 8};
  const Netlist original = generate_circuit(profile, 21);
  Netlist hybrid = original;
  for (const CellId id : hybrid.logic_cells()) {
    if (hybrid.stats().luts >= 3) break;
    if (is_replaceable_gate(hybrid.cell(id).kind) &&
        hybrid.cell(id).fanin_count() >= 2) {
      hybrid.replace_with_lut(id);
    }
  }
  const Netlist view = foundry_view(hybrid);

  const auto scan = run_sat_attack(view, original);
  table.add_row({"sv-120", "scan (comb)",
                 scan.success() && key_correct_sequentially(view, scan.key,
                                                          original)
                     ? "yes"
                     : "no",
                 std::to_string(scan.iterations),
                 std::to_string(scan.queries),
                 strformat("%.2f", scan.elapsed_s)});

  SeqAttackOptions opt;
  opt.frames = 6;
  opt.time_limit_s = 60;
  const auto noscan = run_sequential_sat_attack(view, original, opt);
  table.add_row({"sv-120", "no scan (6 frames)",
                 noscan.success() && key_correct_sequentially(
                                       view, noscan.key, original)
                     ? "yes"
                     : "no",
                 std::to_string(noscan.iterations),
                 std::to_string(noscan.queries),
                 strformat("%.2f", noscan.elapsed_s)});
  std::printf("Scan vs no-scan attack cost on the same lock:\n\n%s\n",
              table.render().c_str());
}

void bm_seq_attack_frames(benchmark::State& state) {
  Netlist hybrid;
  const Netlist original = buried_lock(2, &hybrid);
  const Netlist view = foundry_view(hybrid);
  SeqAttackOptions opt;
  opt.frames = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SequenceOracle oracle(original);
    benchmark::DoNotOptimize(run_sequential_sat_attack(view, oracle, opt));
  }
  state.SetLabel(strformat("%d frames", static_cast<int>(state.range(0))));
}

BENCHMARK(bm_seq_attack_frames)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_depth_sweep();
  print_scan_vs_noscan();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
