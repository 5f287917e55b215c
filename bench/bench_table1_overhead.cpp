// Reproduces the paper's Table I: percentage of performance, power and area
// overhead (plus the number of inserted STT LUTs) after applying the
// independent, dependent and parametric-aware selection algorithms to the
// twelve ISCAS'89 benchmarks.
//
// Circuits are seeded statistical replicas matched to the published
// benchmark sizes (see DESIGN.md, substitutions). Expect the paper's
// *trends*: dependent selection has the largest performance/power impact;
// all overheads shrink as circuit size grows; parametric-aware selection
// stays within its timing margin by construction.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_jobs.hpp"
#include "core/flow.hpp"
#include "runtime/job.hpp"
#include "runtime/thread_pool.hpp"
#include "synth/generator.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace stt;

constexpr std::uint64_t kSeed = 20160605;  // DAC'16 conference date

void print_table1() {
  const TechLibrary lib = TechLibrary::cmos90_stt();
  TextTable table({"Circuit", "Perf% Ind", "Perf% Dep", "Perf% Par",
                   "Pwr% Ind", "Pwr% Dep", "Pwr% Par", "Area% Ind",
                   "Area% Dep", "Area% Par", "#STT Ind", "#STT Dep",
                   "#STT Par", "size"});

  // The whole benchmark x algorithm grid runs on the campaign engine's
  // job graph: one circuit-generation job per benchmark, three dependent
  // secure-flow jobs per circuit. Results land in grid-indexed slots, so
  // the table below is byte-identical to the historical serial loop.
  const auto& profiles = iscas89_profiles();
  const SelectionAlgorithm algs[3] = {SelectionAlgorithm::kIndependent,
                                      SelectionAlgorithm::kDependent,
                                      SelectionAlgorithm::kParametric};
  std::vector<std::shared_ptr<const Netlist>> circuits(profiles.size());
  std::vector<std::array<FlowResult, 3>> results(profiles.size());

  Timer wall;
  ThreadPool pool(bench_jobs());
  JobGraph graph;
  for (std::size_t b = 0; b < profiles.size(); ++b) {
    const JobId gen = graph.add("gen/" + profiles[b].name,
                                [&circuits, &profiles, b](JobContext&) {
                                  circuits[b] = std::make_shared<const Netlist>(
                                      generate_circuit(profiles[b], kSeed));
                                });
    for (int a = 0; a < 3; ++a) {
      graph.add(
          "flow/" + profiles[b].name + "/" + algorithm_name(algs[a]),
          [&circuits, &results, &lib, &algs, b, a](JobContext&) {
            FlowOptions opt;
            opt.algorithm = algs[a];
            opt.selection.seed = kSeed + static_cast<std::uint64_t>(a);
            results[b][a] = run_secure_flow(*circuits[b], lib, opt);
          },
          {gen});
    }
  }
  graph.run(pool);
  std::fprintf(stderr, "table1 grid: %zu jobs on %u threads in %.1fs\n",
               graph.size(), pool.size(), wall.seconds());

  Accumulator perf[3], power[3], area[3], count[3], sizes;
  for (std::size_t b = 0; b < profiles.size(); ++b) {
    const CircuitProfile& profile = profiles[b];
    const auto& row = results[b];
    for (int a = 0; a < 3; ++a) {
      perf[a].add(row[a].overhead.perf_degradation_pct());
      power[a].add(row[a].overhead.power_overhead_pct());
      area[a].add(row[a].overhead.area_overhead_pct());
      count[a].add(row[a].overhead.num_stt_luts);
    }
    sizes.add(static_cast<double>(profile.n_gates));

    auto pct = [](double v) { return strformat("%.2f", v); };
    table.add_row({profile.name,
                   pct(row[0].overhead.perf_degradation_pct()),
                   pct(row[1].overhead.perf_degradation_pct()),
                   pct(row[2].overhead.perf_degradation_pct()),
                   pct(row[0].overhead.power_overhead_pct()),
                   pct(row[1].overhead.power_overhead_pct()),
                   pct(row[2].overhead.power_overhead_pct()),
                   pct(row[0].overhead.area_overhead_pct()),
                   pct(row[1].overhead.area_overhead_pct()),
                   pct(row[2].overhead.area_overhead_pct()),
                   std::to_string(row[0].overhead.num_stt_luts),
                   std::to_string(row[1].overhead.num_stt_luts),
                   std::to_string(row[2].overhead.num_stt_luts),
                   std::to_string(profile.n_gates)});
  }
  auto pct = [](double v) { return strformat("%.2f", v); };
  table.add_row({"Average", pct(perf[0].mean()), pct(perf[1].mean()),
                 pct(perf[2].mean()), pct(power[0].mean()),
                 pct(power[1].mean()), pct(power[2].mean()),
                 pct(area[0].mean()), pct(area[1].mean()),
                 pct(area[2].mean()), pct(count[0].mean()),
                 pct(count[1].mean()), pct(count[2].mean()),
                 pct(sizes.mean())});

  std::printf(
      "Table I — Percentage of power, performance and area overhead after\n"
      "introducing STT-based LUT units (Ind = independent, Dep = dependent,\n"
      "Par = parametric-aware dependent selection).\n\n%s\n",
      table.render().c_str());
  if (FILE* csv = std::fopen("table1.csv", "w")) {
    std::fputs(table.to_csv().c_str(), csv);
    std::fclose(csv);
    std::printf("(machine-readable copy written to table1.csv)\n\n");
  }
}

// google-benchmark: full-flow cost on a small, medium and large benchmark.
void bm_secure_flow(benchmark::State& state) {
  const TechLibrary lib = TechLibrary::cmos90_stt();
  const CircuitProfile& profile = iscas89_profiles()[state.range(0)];
  const Netlist original = generate_circuit(profile, kSeed);
  FlowOptions opt;
  opt.algorithm = SelectionAlgorithm::kParametric;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_secure_flow(original, lib, opt));
  }
  state.SetLabel(profile.name);
}

BENCHMARK(bm_secure_flow)->Arg(0)->Arg(4)->Arg(7)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  try {
    print_table1();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_table1_overhead: %s\n", e.what());
    return 2;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
