// Oracle-guided attack-engine throughput: the cone-pruned incremental DIP
// encoder with and without the simulation-guided warm-up.
//
// Two modes run the *same* attack (same locked circuit, same oracle):
//  * pruned     — cone-pruned constant-folded DIP encoding, no warm-up;
//  * pruned_sim — cone pruning plus the word-parallel simulation warm-up.
//
// Every mode must recover a functionally correct key: each recovered key
// is applied to the attacker's view and the resulting chip is driven with
// one shared random word batch; the folded response checksums must be
// identical across modes and equal to the reference chip's. JSON goes to
// BENCH_sat_perf.json (override with --out).
//
// The in-binary gates are deterministic. Every mode's CNF growth per DIP
// must stay within a tenth of the full-copy cost: two symbolic encode_comb
// copies of the view, which is what constraining both key sets without
// folding adds per DIP (`full_copy_per_iter` in the JSON). The --smoke
// configuration also pins each mode's exact trajectory (DIPs, queries,
// conflicts, folded key rows), so any change to the solver or the encoder
// shows up as a failed gate, not as a timing drift.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/encode.hpp"
#include "attack/oracle.hpp"
#include "attack/sat_attack.hpp"
#include "core/hybrid.hpp"
#include "core/selection.hpp"
#include "synth/generator.hpp"
#include "tech/tech_library.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace stt;

constexpr std::uint64_t kSeed = 20160605;

struct ModeResult {
  std::string name;
  SatAttackResult attack;
  std::uint64_t checksum = 0;
};

/// The exact trajectory of one mode on the --smoke configuration.
struct Pin {
  const char* mode;
  int iterations;
  std::uint64_t queries;
  std::int64_t conflicts;
  int key_rows_folded;
};
constexpr Pin kSmokePins[] = {{"pruned", 50, 50, 1916, 42},
                              {"pruned_sim", 24, 280, 2127, 64}};
constexpr const char* kSmokeBenchmark = "s953";
constexpr const char* kSmokeKind = "dependent";
/// Gate: folded CNF growth per DIP <= full-copy cost / kMinCnfReduction.
constexpr double kMinCnfReduction = 10.0;

std::uint64_t fold(std::uint64_t acc, std::span<const std::uint64_t> words) {
  for (const std::uint64_t w : words) {
    acc = (acc ^ w) * 0x9e3779b97f4a7c15ull;
    acc ^= acc >> 29;
  }
  return acc;
}

// Functional digest of a configured netlist: responses to a fixed random
// word batch, folded. Two chips agree on the digest iff they agree on
// every one of the 64*words probed patterns.
std::uint64_t functional_checksum(const Netlist& chip, std::size_t words) {
  ScanOracle oracle(chip);
  const std::size_t n_in = oracle.num_inputs();
  const std::size_t n_out = oracle.num_outputs();
  Rng rng(kSeed ^ 0xc0de5eedull);
  std::vector<std::uint64_t> in(n_in * words);
  for (auto& w : in) w = rng();
  std::vector<std::uint64_t> out(n_out * words);
  oracle.query_batch(words, in, out, nullptr);
  return fold(0, out);
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add_option("--benchmark",
                  "ISCAS'89 profile name (default s13207; s953 with --smoke)");
  args.add_option("--kind", "paper defense kind: independent | dependent | "
                  "parametric", "dependent");
  args.add_option("--time-limit", "per-mode wall-clock cap in seconds", "300");
  args.add_option("--out", "output JSON path", "BENCH_sat_perf.json");
  args.add_flag("--smoke", "seconds-scale CI configuration");
  try {
    args.parse({argv + 1, argv + argc});
  } catch (const ArgError& e) {
    std::fprintf(stderr, "bench_sat_perf: %s\n%s", e.what(),
                 args.help().c_str());
    return 2;
  }

  const bool smoke = args.flag("--smoke");
  const std::string bench_name =
      args.get_or("--benchmark", smoke ? kSmokeBenchmark : "s13207");
  const auto profile = find_profile(bench_name);
  if (!profile) {
    std::fprintf(stderr, "bench_sat_perf: unknown benchmark %s\n",
                 bench_name.c_str());
    return 2;
  }
  const std::string alg_name = args.get("--kind");
  SelectionAlgorithm alg;
  if (alg_name == "independent") {
    alg = SelectionAlgorithm::kIndependent;
  } else if (alg_name == "dependent") {
    alg = SelectionAlgorithm::kDependent;
  } else if (alg_name == "parametric") {
    alg = SelectionAlgorithm::kParametric;
  } else {
    std::fprintf(stderr, "bench_sat_perf: unknown kind %s\n",
                 alg_name.c_str());
    return 2;
  }
  const double time_limit = args.get_double("--time-limit");

  // The defended chip: generated replica locked with the requested paper
  // algorithm; the attacker sees the redacted foundry view.
  Netlist chip = generate_circuit(*profile, kSeed);
  {
    const TechLibrary lib = TechLibrary::cmos90_stt();
    GateSelector selector(lib);
    SelectionOptions opt;
    opt.seed = kSeed;
    (void)selector.run(chip, alg, opt);
  }
  const Netlist view = foundry_view(chip);
  const std::size_t n_luts = chip.stats().luts;
  const std::size_t n_key_bits = key_bits(chip);
  const std::size_t checksum_words = 16;
  const std::uint64_t reference = functional_checksum(chip, checksum_words);
  // What one DIP would add without folding: both key sets constrained by a
  // full symbolic copy of the view.
  double full_copy_per_iter = 0;
  {
    sat::Solver solver;
    EncodeOptions symbolic;
    symbolic.symbolic_keys = true;
    (void)encode_comb(solver, view, symbolic);
    full_copy_per_iter = 2.0 * static_cast<double>(solver.clauses_added());
  }

  std::vector<ModeResult> modes;
  const auto run_mode = [&](const std::string& name,
                            const SatAttackOptions& opt) {
    ScanOracle oracle(chip);
    ModeResult m{name, run_sat_attack(view, oracle, opt), 0};
    if (m.attack.success()) {
      Netlist recovered = view;
      apply_key(recovered, m.attack.key);
      m.checksum = functional_checksum(recovered, checksum_words);
    }
    std::fprintf(stderr,
                 "  %-10s %s: %d DIPs, %llu queries, %lld conflicts, "
                 "%.1f clauses/iter, %.3fs\n",
                 name.c_str(),
                 m.attack.success()
                     ? "ok"
                     : (m.attack.timed_out() ? "TIMEOUT" : "BUDGET"),
                 m.attack.iterations,
                 static_cast<unsigned long long>(m.attack.queries),
                 static_cast<long long>(m.attack.conflicts),
                 m.attack.stats.cnf_clauses_per_iter, m.attack.elapsed_s);
    modes.push_back(m);
  };

  SatAttackOptions base;
  base.time_limit_s = time_limit;
  base.max_iterations = 100000;

  SatAttackOptions pruned = base;
  pruned.warmup_words = 0;
  run_mode("pruned", pruned);

  SatAttackOptions pruned_sim = base;
  run_mode("pruned_sim", pruned_sim);

  for (const ModeResult& m : modes) {
    if (!m.attack.success()) {
      std::fprintf(stderr, "bench_sat_perf: mode %s failed to recover a key\n",
                   m.name.c_str());
      return 1;
    }
    if (m.checksum != reference) {
      std::fprintf(stderr,
                   "bench_sat_perf: mode %s recovered a functionally WRONG "
                   "key (checksum %016llx vs %016llx)\n",
                   m.name.c_str(), static_cast<unsigned long long>(m.checksum),
                   static_cast<unsigned long long>(reference));
      return 1;
    }
  }

  std::string json = "{\n";
  json += "  \"benchmark\": \"" + profile->name + "\",\n";
  json += "  \"algorithm\": \"" + alg_name + "\",\n";
  json += "  \"luts\": " + std::to_string(n_luts) + ",\n";
  json += "  \"key_bits\": " + std::to_string(n_key_bits) + ",\n";
  json += "  \"checksum\": \"" + std::to_string(reference) + "\",\n";
  {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "  \"full_copy_per_iter\": %.2f,\n",
                  full_copy_per_iter);
    json += buf;
  }
  json += "  \"modes\": [\n";
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const ModeResult& m = modes[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"name\": \"%s\", \"seconds\": %.6f, \"iterations\": %d, "
        "\"queries\": %llu, \"conflicts\": %lld, \"decisions\": %lld, "
        "\"propagations\": %lld, \"learned\": %lld, \"peak_clauses\": %lld, "
        "\"cnf_initial\": %lld, \"cnf_dip\": %lld, "
        "\"cnf_per_iter\": %.2f, \"key_rows_folded\": %d}%s\n",
        m.name.c_str(), m.attack.elapsed_s, m.attack.iterations,
        static_cast<unsigned long long>(m.attack.queries),
        static_cast<long long>(m.attack.conflicts),
        static_cast<long long>(m.attack.stats.decisions),
        static_cast<long long>(m.attack.stats.propagations),
        static_cast<long long>(m.attack.stats.learned),
        static_cast<long long>(m.attack.stats.peak_clauses),
        static_cast<long long>(m.attack.stats.cnf_initial_clauses),
        static_cast<long long>(m.attack.stats.cnf_dip_clauses),
        m.attack.stats.cnf_clauses_per_iter, m.attack.stats.key_rows_resolved,
        i + 1 < modes.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n}\n";

  std::fputs(json.c_str(), stdout);
  const std::string out_path = args.get("--out");
  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "bench_sat_perf: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }

  int failed = 0;
  for (const ModeResult& m : modes) {
    if (m.attack.stats.cnf_clauses_per_iter * kMinCnfReduction >
        full_copy_per_iter) {
      std::fprintf(stderr,
                   "bench_sat_perf: mode %s adds %.2f clauses per DIP, more "
                   "than 1/%.0f of the full-copy %.2f\n",
                   m.name.c_str(), m.attack.stats.cnf_clauses_per_iter,
                   kMinCnfReduction, full_copy_per_iter);
      ++failed;
    }
  }
  if (smoke && bench_name == kSmokeBenchmark && alg_name == kSmokeKind) {
    for (const Pin& pin : kSmokePins) {
      for (const ModeResult& m : modes) {
        if (m.name != pin.mode) continue;
        const SatAttackResult& a = m.attack;
        if (a.iterations != pin.iterations || a.queries != pin.queries ||
            a.conflicts != pin.conflicts ||
            a.stats.key_rows_resolved != pin.key_rows_folded) {
          std::fprintf(
              stderr,
              "bench_sat_perf: mode %s trajectory %d DIPs / %llu queries / "
              "%lld conflicts / %d folded rows, pinned %d / %llu / %lld / "
              "%d\n",
              pin.mode, a.iterations,
              static_cast<unsigned long long>(a.queries),
              static_cast<long long>(a.conflicts), a.stats.key_rows_resolved,
              pin.iterations, static_cast<unsigned long long>(pin.queries),
              static_cast<long long>(pin.conflicts), pin.key_rows_folded);
          ++failed;
        }
      }
    }
  }
  return failed == 0 ? 0 : 1;
}
