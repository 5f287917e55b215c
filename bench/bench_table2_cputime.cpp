// Reproduces the paper's Table II: the CPU time (MM:SS.t) for selecting
// gates for replacement under the three selection algorithms, per ISCAS'89
// benchmark. The paper's machine was a 1.7 GHz Core i7; absolute numbers
// differ, the takeaway — selection stays within seconds even at ~20k gates —
// must hold.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_jobs.hpp"
#include "core/selection.hpp"
#include "runtime/job.hpp"
#include "runtime/thread_pool.hpp"
#include "synth/generator.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace stt;

constexpr std::uint64_t kSeed = 20160605;

void print_table2() {
  const TechLibrary lib = TechLibrary::cmos90_stt();
  const GateSelector selector(lib);
  TextTable table({"Circuit", "Independent", "Dependent", "Parametric",
                   "Ind ms", "Dep ms", "Par ms"});

  // Selection timings for the whole grid, measured inside campaign-engine
  // jobs (each timing comes from the selector's own monotonic timer, so
  // parallel execution perturbs only scheduling, not the measured span).
  const auto& profiles = iscas89_profiles();
  const SelectionAlgorithm algs[3] = {SelectionAlgorithm::kIndependent,
                                      SelectionAlgorithm::kDependent,
                                      SelectionAlgorithm::kParametric};
  std::vector<std::shared_ptr<const Netlist>> circuits(profiles.size());
  std::vector<std::array<double, 3>> seconds(profiles.size());

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
          "select/" + profiles[b].name + "/" + algorithm_name(algs[a]),
          [&circuits, &seconds, &selector, &algs, b, a](JobContext&) {
            Netlist work = *circuits[b];
            SelectionOptions opt;
            opt.seed = kSeed + static_cast<std::uint64_t>(a);
            seconds[b][a] = selector.run(work, algs[a], opt).selection_seconds;
          },
          {gen});
    }
  }
  graph.run(pool);

  for (std::size_t b = 0; b < profiles.size(); ++b) {
    std::string cells[3];
    std::string ms[3];
    for (int a = 0; a < 3; ++a) {
      cells[a] = Timer::format_mmss(seconds[b][a]);
      ms[a] = std::to_string(static_cast<long long>(seconds[b][a] * 1e3 + 0.5));
    }
    table.add_row({profiles[b].name, cells[0], cells[1], cells[2], ms[0],
                   ms[1], ms[2]});
  }
  std::printf(
      "Table II — The CPU time (MM:SS.t) for selecting gates for replacement\n"
      "in various selection algorithms.\n\n%s\n",
      table.render().c_str());
}

void bm_selection(benchmark::State& state) {
  const TechLibrary lib = TechLibrary::cmos90_stt();
  const GateSelector selector(lib);
  const CircuitProfile& profile = iscas89_profiles()[state.range(0)];
  const auto alg = static_cast<SelectionAlgorithm>(state.range(1));
  const Netlist original = generate_circuit(profile, kSeed);
  SelectionOptions opt;
  opt.seed = kSeed;
  for (auto _ : state) {
    Netlist work = original;
    benchmark::DoNotOptimize(selector.run(work, alg, opt));
  }
  state.SetLabel(profile.name + "/" + algorithm_name(alg));
}

BENCHMARK(bm_selection)
    ->ArgsProduct({{0, 4, 7, 11}, {0, 1, 2}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  try {
    print_table2();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_table2_cputime: %s\n", e.what());
    return 2;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
