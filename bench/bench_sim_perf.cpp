// Simulation-engine throughput across SIMD ISAs: the perf trajectory of
// the compiled batch simulator against the seed's single-pattern oracle
// path and the seed's 64-bit word engine.
//
// Two baseline rows plus a per-ISA matrix, all applying the *same* scan
// patterns to the same locked circuit:
//  * single          — one ScanOracle::query (bool in/out) per pattern,
//                      the seed-era attack-loop driving style;
//  * rows with isa "scalar64" — the scalar kernel pinned to the seed's
//                      fixed 8-word block schedule, the schedule of the
//                      64-bit engine before the SIMD lane kernels, and the
//                      denominator of the speedup columns. It runs today's
//                      interpreter, so whatever speeds that up (such as
//                      the grouped instruction stream) speeds up the
//                      baseline too, and the SIMD gate asks the lanes to
//                      win on top of it;
//  * rows with isa "scalar"/"avx2"/"avx512" — the lane kernels under the
//                      automatic block schedule (serial calls stream each
//                      wave row end to end; threaded calls split the
//                      batch by worker count), one row per granularity:
//        word           ScanOracle::query_word, 64 packed patterns/call;
//        batch          ScanOracle::query_batch, W words per call;
//        batch_threaded query_batch fanned out across the ThreadPool;
//        step           CompiledSim::step, one sequential clock of one
//                       word (64 trajectories) per call: the cost of the
//                       seq attack's frames and the power trace's state
//                       pass; clocks/s is patterns_per_sec / 64;
//  * patch_full / patch_cone (widest ISA) — the key-guessing loops' step:
//                      patch one LUT mask, then re-score 4 words with a
//                      whole-circuit eval_batch or with eval_cone over that
//                      LUT's fan-out cone; `patch_cone_speedup` is their
//                      ratio, and the two must fold identical responses.
//
// Every row folds the oracle responses into one checksum that must be
// identical across all modes and ISAs (the step rows fold their state
// trajectory and outputs into their own, as do the patch rows) —
// bit-exactness across lane widths and between whole-circuit and cone
// re-evaluation is a hard requirement of the engine, checked here on real
// responses.
// Timed rows run one untimed warm-up pass, then repeat until a minimum
// wall time so the JSON reports steady-state throughput, not page faults.
// JSON goes to BENCH_sim_perf.json (--out) for CI to archive.
//
// Acceptance gates (--smoke relaxes nothing; the gates scale by ISA):
//  * batch (widest ISA) >= 5x single — the seed-era gate;
//  * batch_threaded (widest ISA) >= 4x scalar64 batch_threaded when the
//    widest ISA is avx512, >= 2x when it is avx2; no SIMD gate when only
//    the scalar kernel is available.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/oracle.hpp"
#include "sim/compiled.hpp"
#include "core/selection.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "synth/generator.hpp"
#include "tech/tech_library.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace stt;

constexpr std::uint64_t kSeed = 20160605;

struct Row {
  std::string mode;
  std::string isa;      // "", "scalar64", "scalar", "avx2", "avx512"
  double seconds = 0;   // summed over timed repetitions
  std::uint64_t patterns = 0;  // summed over timed repetitions
  std::uint64_t checksum = 0;
  int reps = 0;
};

double rate(const Row& m) {
  return m.seconds > 0 ? static_cast<double>(m.patterns) / m.seconds : 0.0;
}

// Fold a response word-set into the running checksum so a single flipped
// output bit anywhere changes the digest.
std::uint64_t fold(std::uint64_t acc, std::span<const std::uint64_t> words) {
  for (const std::uint64_t w : words) {
    acc = (acc ^ w) * 0x9e3779b97f4a7c15ull;
    acc ^= acc >> 29;
  }
  return acc;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add_option("--benchmark",
                  "ISCAS'89 profile name (default s38584; s641 with --smoke)");
  args.add_option("--patterns", "patterns per repetition (rounded to words)");
  args.add_option("--batch-words", "words per query_batch call", "256");
  args.add_option("--jobs", "threads for batch_threaded (0 = hardware)", "0");
  args.add_option("--min-seconds",
                  "minimum timed wall per row (single runs once)", "0.3");
  args.add_option("--out", "output JSON path", "BENCH_sim_perf.json");
  args.add_flag("--smoke", "seconds-scale CI configuration (s641, few words)");
  try {
    args.parse({argv + 1, argv + argc});
  } catch (const ArgError& e) {
    std::fprintf(stderr, "bench_sim_perf: %s\n%s", e.what(),
                 args.help().c_str());
    return 2;
  }

  const bool smoke = args.flag("--smoke");
  const std::string bench_name =
      args.get_or("--benchmark", smoke ? "s641" : "s38584");
  const auto profile = find_profile(bench_name);
  if (!profile) {
    std::fprintf(stderr, "bench_sim_perf: unknown benchmark %s\n",
                 bench_name.c_str());
    return 2;
  }
  const std::size_t n_words =
      args.has("--patterns")
          ? (static_cast<std::size_t>(args.get_int("--patterns")) + 63) / 64
          : (smoke ? 32 : 256);
  const std::size_t n_patterns = n_words * 64;
  const std::size_t batch_words =
      std::min<std::size_t>(args.get_int("--batch-words"), n_words);
  const double min_seconds = args.get_double("--min-seconds");

  // Build the evaluated chip: generated replica, locked with the paper's
  // parametric selection so the instruction stream contains LUTs.
  Netlist chip = generate_circuit(*profile, kSeed);
  {
    const TechLibrary lib = TechLibrary::cmos90_stt();
    GateSelector selector(lib);
    SelectionOptions opt;
    opt.seed = kSeed;
    (void)selector.run(chip, SelectionAlgorithm::kIndependent, opt);
  }
  const std::size_t n_gates = chip.stats().gates;
  const std::size_t n_in = chip.inputs().size() + chip.dffs().size();
  const std::size_t n_out = chip.outputs().size() + chip.dffs().size();

  // One shared stimulus set in blocked layout: bit position i, word w at
  // stim[i * n_words + w].
  Rng rng(kSeed ^ 0xbadc0ffeull);
  std::vector<std::uint64_t> stim(n_in * n_words);
  for (auto& w : stim) w = rng();

  std::vector<Row> rows;

  {  // single: the seed-era driving style, one bool pattern per query.
    ScanOracle oracle(chip);
    Row m{"single", "", 0, n_patterns, 0, 1};
    std::vector<bool> pattern(n_in);
    std::vector<std::uint64_t> packed(n_out, 0);
    Timer timer;
    for (std::size_t w = 0; w < n_words; ++w) {
      for (std::size_t o = 0; o < n_out; ++o) packed[o] = 0;
      for (int b = 0; b < 64; ++b) {
        for (std::size_t i = 0; i < n_in; ++i) {
          pattern[i] = (stim[i * n_words + w] >> b) & 1ull;
        }
        const auto response = oracle.query(pattern);
        for (std::size_t o = 0; o < n_out; ++o) {
          if (response[o]) packed[o] |= (1ull << b);
        }
      }
      m.checksum = fold(m.checksum, packed);
    }
    m.seconds = timer.seconds();
    rows.push_back(m);
  }

  // Timed repetition driver: one untimed warm-up pass (faults pages,
  // warms caches, and folds the row checksum — the steady state is what
  // attack loops see), then repeat until min_seconds of wall time. Timed
  // passes skip the checksum transpose: responses are deterministic, and
  // attack loops consume response rows in place rather than re-packing
  // them per word.
  const auto repeat = [&](Row row, std::uint64_t pass_patterns,
                          const auto& pass) {
    pass(row, /*collect_checksum=*/true);  // warm-up
    row.patterns = 0;
    Timer timer;
    do {
      pass(row, /*collect_checksum=*/false);
      row.patterns += pass_patterns;
      ++row.reps;
      row.seconds = timer.seconds();
    } while (row.seconds < min_seconds);
    return row;
  };

  // One oracle and one set of staging buffers per *row*, reused across the
  // warm-up pass and every timed repetition — steady-state throughput, not
  // allocator and page-fault noise, is what the attack loops experience.
  const auto run_word_row = [&](const std::string& isa_label) {
    ScanOracle oracle(chip);
    std::vector<std::uint64_t> in(n_in), out(n_out);
    rows.push_back(repeat({"word", isa_label, 0, 0, 0, 0}, n_patterns,
                          [&](Row& m, bool collect) {
      std::uint64_t acc = 0;
      for (std::size_t w = 0; w < n_words; ++w) {
        for (std::size_t i = 0; i < n_in; ++i) in[i] = stim[i * n_words + w];
        oracle.query_word(in, out);
        if (collect) acc = fold(acc, out);
      }
      if (collect) m.checksum = acc;
    }));
  };

  const auto run_batch_row = [&](const std::string& mode,
                                 const std::string& isa_label,
                                 ParallelFor* par) {
    ScanOracle oracle(chip);
    std::vector<std::uint64_t> in(n_in * batch_words);
    std::vector<std::uint64_t> out(n_out * batch_words);
    std::vector<std::uint64_t> packed(n_out, 0);
    rows.push_back(repeat({mode, isa_label, 0, 0, 0, 0}, n_patterns,
                          [&](Row& m, bool collect) {
      std::uint64_t acc = 0;
      for (std::size_t w0 = 0; w0 < n_words; w0 += batch_words) {
        const std::size_t bw = std::min(batch_words, n_words - w0);
        for (std::size_t i = 0; i < n_in; ++i) {
          for (std::size_t w = 0; w < bw; ++w) {
            in[i * bw + w] = stim[i * n_words + w0 + w];
          }
        }
        oracle.query_batch(bw, std::span(in.data(), n_in * bw),
                           std::span(out.data(), n_out * bw), par);
        if (!collect) continue;
        // Checksum word-by-word so every row folds identical sequences.
        for (std::size_t w = 0; w < bw; ++w) {
          for (std::size_t o = 0; o < n_out; ++o) packed[o] = out[o * bw + w];
          acc = fold(acc, packed);
        }
      }
      if (collect) m.checksum = acc;
    }));
  };

  // Sequential clocks: the first word of the stimulus's flip-flop bits is
  // the initial state, each word of its PI bits one clock's inputs.
  std::vector<Row> step_rows;
  const auto run_step_row = [&](const std::string& isa_label) {
    CompiledSim sim(chip);
    const std::size_t n_pi = sim.num_inputs();
    std::vector<std::uint64_t> pi(n_pi), state(sim.num_dffs());
    std::vector<std::uint64_t> wave(sim.wave_size()), po(sim.num_outputs());
    step_rows.push_back(repeat({"step", isa_label, 0, 0, 0, 0}, n_patterns,
                               [&](Row& m, bool collect) {
      for (std::size_t j = 0; j < state.size(); ++j) {
        state[j] = stim[(n_pi + j) * n_words];
      }
      std::uint64_t acc = 0;
      for (std::size_t w = 0; w < n_words; ++w) {
        for (std::size_t i = 0; i < n_pi; ++i) pi[i] = stim[i * n_words + w];
        sim.step(pi, state, wave);
        if (!collect) continue;
        for (std::size_t o = 0; o < po.size(); ++o) {
          po[o] = wave[sim.output_cells()[o]];
        }
        acc = fold(fold(acc, po), state);
      }
      if (collect) m.checksum = acc;
    }));
  };

  const unsigned jobs = static_cast<unsigned>(args.get_int("--jobs"));
  ThreadPool pool(jobs);
  ThreadPoolParallelFor par(pool);

  // The ISA matrix: the scalar64 baseline (seed engine: scalar kernel,
  // fixed 8-word blocks), then every kernel this build+host supports
  // under the automatic schedule.
  struct IsaRun {
    std::string label;
    SimIsa isa;
    std::size_t block;  // 0 = automatic policy
  };
  std::vector<IsaRun> isa_runs{
      {"scalar64", SimIsa::kScalar, CompiledSim::kWordsPerBlock}};
  for (const SimIsa isa : {SimIsa::kScalar, SimIsa::kAvx2, SimIsa::kAvx512}) {
    if (sim_isa_supported(isa)) isa_runs.push_back({sim_isa_name(isa), isa, 0});
  }
  const std::string widest = isa_runs.back().label;

  const std::size_t saved_block = CompiledSim::batch_block_override();
  for (const IsaRun& run : isa_runs) {
    ScopedSimIsa force(run.isa);
    CompiledSim::set_batch_block_override(run.block);
    run_word_row(run.label);
    run_step_row(run.label);
    run_batch_row("batch", run.label, nullptr);
    run_batch_row("batch_threaded", run.label, &par);
    CompiledSim::set_batch_block_override(saved_block);
  }

  // The key-guessing loops' unit of work (ml, bf): patch one LUT mask,
  // then re-score the first kPatchWords words of the stimulus (ml's
  // default 256-pattern signature) under the widest ISA. `patch_full`
  // re-runs the whole circuit (eval_batch); `patch_cone` re-runs only that
  // LUT's fan-out cone (eval_cone) over the wave it keeps. Both apply the
  // same patch sequence from the same starting masks and fold every
  // patch's response rows, so their checksums must agree.
  constexpr std::size_t kPatchWords = 4;
  constexpr std::size_t kPatches = 1024;
  const std::size_t patch_words = std::min(kPatchWords, n_words);
  std::vector<CellId> luts;
  for (CellId id = 0; id < chip.size(); ++id) {
    if (chip.cell(id).kind == CellKind::kLut) luts.push_back(id);
  }
  std::vector<Row> patch_rows;
  const auto run_patch_row = [&](const std::string& mode, bool cone_only) {
    const std::size_t W = patch_words;
    CompiledSim sim(chip);
    std::vector<CompiledSim::Cone> cones;
    for (const CellId id : luts) cones.push_back(sim.cone_of(id));
    const std::size_t n_pi = sim.num_inputs();
    std::vector<std::uint64_t> pi(n_pi * W), ff(sim.num_dffs() * W);
    for (std::size_t w = 0; w < W; ++w) {
      for (std::size_t i = 0; i < n_pi; ++i) {
        pi[i * W + w] = stim[i * n_words + w];
      }
      for (std::size_t j = 0; j < sim.num_dffs(); ++j) {
        ff[j * W + w] = stim[(n_pi + j) * n_words + w];
      }
    }
    std::vector<std::uint64_t> wave(sim.wave_size() * W);
    std::vector<std::uint64_t> po(sim.num_outputs() * W);
    std::vector<std::uint64_t> ns(sim.num_dffs() * W);
    sim.eval_batch(W, pi, ff, wave);
    patch_rows.push_back(repeat(
        {mode, widest, 0, 0, 0, 0}, kPatches * W * 64,
        [&](Row& m, bool collect) {
          Rng pick(kSeed);
          std::uint64_t acc = 0;
          for (std::size_t k = 0; k < kPatches; ++k) {
            const std::size_t i = pick.below(luts.size());
            const int fanin = chip.cell(luts[i]).fanin_count();
            sim.set_lut_mask(luts[i], pick() & full_mask(fanin));
            if (cone_only) {
              sim.eval_cone(W, cones[i], wave);
            } else {
              sim.eval_batch(W, pi, ff, wave);
            }
            if (!collect) continue;
            sim.gather_outputs(W, wave, po);
            sim.gather_next_state(W, wave, ns);
            acc = fold(fold(acc, po), ns);
          }
          if (collect) m.checksum = acc;
        }));
  };
  if (!luts.empty()) {
    run_patch_row("patch_full", false);
    run_patch_row("patch_cone", true);
    if (patch_rows[1].checksum != patch_rows[0].checksum) {
      std::fprintf(stderr,
                   "bench_sim_perf: checksum mismatch in patch_cone "
                   "(%016llx vs patch_full %016llx) — cone re-evaluation is "
                   "NOT bit-identical to a full batch\n",
                   static_cast<unsigned long long>(patch_rows[1].checksum),
                   static_cast<unsigned long long>(patch_rows[0].checksum));
      return 1;
    }
  }

  for (const Row& m : rows) {
    if (m.checksum != rows.front().checksum) {
      std::fprintf(stderr,
                   "bench_sim_perf: checksum mismatch in %s[%s] "
                   "(%016llx vs %016llx) — results are NOT bit-identical "
                   "across modes/ISAs\n",
                   m.mode.c_str(), m.isa.c_str(),
                   static_cast<unsigned long long>(m.checksum),
                   static_cast<unsigned long long>(rows.front().checksum));
      return 1;
    }
  }
  for (const Row& m : step_rows) {
    if (m.checksum != step_rows.front().checksum) {
      std::fprintf(stderr,
                   "bench_sim_perf: checksum mismatch in step[%s] "
                   "(%016llx vs %016llx) — sequential clocks are NOT "
                   "bit-identical across ISAs\n",
                   m.isa.c_str(), static_cast<unsigned long long>(m.checksum),
                   static_cast<unsigned long long>(step_rows.front().checksum));
      return 1;
    }
  }
  rows.insert(rows.end(), step_rows.begin(), step_rows.end());
  rows.insert(rows.end(), patch_rows.begin(), patch_rows.end());

  const auto find_row = [&](const std::string& mode,
                            const std::string& isa) -> const Row* {
    for (const Row& m : rows) {
      if (m.mode == mode && m.isa == isa) return &m;
    }
    return nullptr;
  };
  const double single_rate = rate(rows.front());
  const Row* base_threaded = find_row("batch_threaded", "scalar64");

  std::string json = "{\n";
  json += "  \"benchmark\": \"" + profile->name + "\",\n";
  json += "  \"gates\": " + std::to_string(n_gates) + ",\n";
  json += "  \"patterns\": " + std::to_string(n_patterns) + ",\n";
  json += "  \"batch_words\": " + std::to_string(batch_words) + ",\n";
  json += "  \"threads\": " + std::to_string(pool.size()) + ",\n";
  json += "  \"widest_isa\": \"" + widest + "\",\n";
  json += "  \"checksum\": \"" + std::to_string(rows.front().checksum) +
          "\",\n";
  json += "  \"step_checksum\": \"" +
          std::to_string(step_rows.front().checksum) + "\",\n";
  if (!patch_rows.empty()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "  \"patch_words\": %zu,\n  \"patch_checksum\": \"%llu\",\n"
                  "  \"patch_cone_speedup\": %.2f,\n",
                  patch_words,
                  static_cast<unsigned long long>(patch_rows[0].checksum),
                  rate(patch_rows[0]) > 0
                      ? rate(patch_rows[1]) / rate(patch_rows[0])
                      : 0.0);
    json += buf;
  }
  json += "  \"modes\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& m = rows[i];
    const Row* base = find_row(m.mode, "scalar64");
    const double vs64 =
        base != nullptr && rate(*base) > 0 ? rate(m) / rate(*base) : 0.0;
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"isa\": \"%s\", \"reps\": %d, "
                  "\"seconds\": %.6f, \"patterns_per_sec\": %.1f, "
                  "\"gates_per_sec\": %.3e, \"speedup_vs_single\": %.2f, "
                  "\"speedup_vs_scalar64\": %.2f}%s\n",
                  m.mode.c_str(), m.isa.c_str(), m.reps, m.seconds, rate(m),
                  rate(m) * static_cast<double>(n_gates),
                  single_rate > 0 ? rate(m) / single_rate : 0.0, vs64,
                  i + 1 < rows.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n}\n";

  std::fputs(json.c_str(), stdout);
  const std::string out_path = args.get("--out");
  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "bench_sim_perf: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }

  // Gate 1 (seed-era): the widest batched path must beat the seed's
  // single-pattern oracle by at least 5x.
  const Row* widest_batch = find_row("batch", widest);
  if (widest_batch == nullptr ||
      (single_rate > 0 && rate(*widest_batch) < 5.0 * single_rate)) {
    std::fprintf(stderr,
                 "bench_sim_perf: batch[%s] speedup %.2fx below the 5x gate\n",
                 widest.c_str(),
                 widest_batch != nullptr && single_rate > 0
                     ? rate(*widest_batch) / single_rate
                     : 0.0);
    return 1;
  }
  // Gate 2 (SIMD lanes): the widest batch_threaded row must beat the
  // 64-bit seed engine by an ISA-scaled factor. Applies to the default
  // (large-circuit) configuration only: sub-1k-gate smoke circuits are
  // instruction-decode-bound, where lane width buys little by design —
  // smoke runs still enforce the cross-ISA checksum identity above.
  const double simd_gate =
      widest == "avx512" ? 4.0 : widest == "avx2" ? 2.0 : 0.0;
  if (smoke && simd_gate > 0) {
    std::fprintf(stderr,
                 "bench_sim_perf: --smoke skips the %.0fx SIMD gate "
                 "(decode-bound small circuit); run the default "
                 "configuration to enforce it\n",
                 simd_gate);
  }
  if (simd_gate > 0 && !smoke) {
    const Row* widest_threaded = find_row("batch_threaded", widest);
    const double base_rate =
        base_threaded != nullptr ? rate(*base_threaded) : 0.0;
    const double got = widest_threaded != nullptr && base_rate > 0
                           ? rate(*widest_threaded) / base_rate
                           : 0.0;
    if (got < simd_gate) {
      std::fprintf(stderr,
                   "bench_sim_perf: batch_threaded[%s] is %.2fx the 64-bit "
                   "engine, below the %.0fx SIMD gate\n",
                   widest.c_str(), got, simd_gate);
      return 1;
    }
  }
  return 0;
}
