// sttbench: end-to-end benchmark of the sttlock flow (see README.md).
//
//   sttbench --workload campaign_sat|lint_locked|attack_oracle --seed N
//            --seconds S --trace 0|1 --work-dir DIR --expected FILE
//   sttbench --write-expected FILE --work-dir DIR
//
// A run prints a human-readable report and, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. `--trace 0`
// reports the end-to-end metrics; `--trace 1` replays the workload with
// every library call timed from here and reports the per-layer ledger.
// `--write-expected` regenerates the known-answer file for every variant.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "sim/isa.hpp"

namespace sttbench {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t variant_seed(std::uint64_t variant, const std::string& stream) {
  std::uint64_t x = fnv1a(stream) ^ (variant * 0x9e3779b97f4a7c15ull);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return (x ^ (x >> 31)) & 0x7fffffffffffull;
}

void RunResult::check_failed(const std::string& why) {
  correct = false;
  note("CHECK FAILED: " + why);
}

void RunResult::op_failed(const std::string& why) {
  ++failed;
  note("OP FAILED: " + why);
}

double process_cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double max_of(const std::vector<double>& v) {
  double m = 0;
  for (const double x : v) m = std::max(m, x);
  return m;
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The names and units of BENCHMARK.json, in its order.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"ops_per_s", "1/s"}, {"cpu_s_per_op", "s"},
    {"op_p50_s", "s"},         {"op_max_s", "s"},    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"attack.sat.s", "s"},
    {"attack.static.s", "s"},
    {"attack.bf.s", "s"},
    {"attack.sens.s", "s"},
    {"attack.ml.s", "s"},
    {"attack.dpa.s", "s"},
    {"attack.seq.s", "s"},
    {"attack.sat.dips", "count"},
    {"attack.sat.conflicts", "count"},
    {"attack.sat.peak_clauses", "count"},
    {"attack.sat.conflicts_per_s", "1/s"},
    {"attack.sat.props_per_s", "1/s"},
    {"attack.seq.sequences_per_s", "1/s"},
    {"attack.bf.combos_per_s", "1/s"},
    {"attack.sens.queries_per_s", "1/s"},
    {"attack.queries_per_s", "1/s"},
    {"attack.solved_frac", "ratio"},
    {"attack.key_verified_frac", "ratio"},
    {"attack.keys_checked", "count"},
    {"verify.lint_s", "s"},
    {"verify.structural_s", "s"},
    {"verify.audit_s", "s"},
    {"verify.keydep_s", "s"},
    {"verify.keydep_edges", "count"},
    {"verify.key_cells", "count"},
    {"io.parse_s", "s"},
    {"io.parse_mb_per_s", "MiB/s"},
    {"sim.lower_s", "s"},
    {"sim.view_s", "s"},
    {"defense.apply_s", "s"},
    {"defense.key_bits", "count"},
    {"synth.generate_s", "s"},
    {"synth.cells", "count"},
    {"runtime.busy_frac", "ratio"},
    {"runtime.glue_s", "s"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"fail_frac", "ratio"},
};

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

struct Args {
  RunConfig cfg;
  std::string write_expected;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.cfg.workload = value;
    } else if (flag == "--seed") {
      a.cfg.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.cfg.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.cfg.trace = value == "1";
    } else if (flag == "--work-dir") {
      a.cfg.work_dir = value;
    } else if (flag == "--expected") {
      a.cfg.expected_path = value;
    } else if (flag == "--write-expected") {
      a.write_expected = value;
    } else {
      throw std::invalid_argument("unknown option " + flag);
    }
  }
  if (a.cfg.work_dir.empty()) throw std::invalid_argument("--work-dir is required");
  if (a.write_expected.empty()) {
    if (a.cfg.workload.empty() || !have_seed) {
      throw std::invalid_argument("--workload and --seed are required");
    }
    if (a.cfg.expected_path.empty()) {
      throw std::invalid_argument("--expected is required");
    }
    if (!(a.cfg.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  }
  return a;
}

void write_expected(const Args& a) {
  std::ofstream out(a.write_expected);
  if (!out) throw std::runtime_error("cannot write " + a.write_expected);
  out << "# sttbench known answers: <workload> <variant> <item> k=v...\n"
         "# Deterministic defense/lint columns only; regenerate with\n"
         "#   sttbench --write-expected FILE --work-dir DIR\n";
  for (std::uint64_t v = 0; v < kVariants; ++v) {
    write_campaign_answers(out, v);
    write_lint_answers(out, v, a.cfg.work_dir);
    out.flush();
    std::fprintf(stderr, "variant %llu written\n",
                 static_cast<unsigned long long>(v));
  }
}

int emit(const RunConfig& cfg, RunResult r) {
  r.note("input: seed=" + std::to_string(cfg.seed) +
         " variant=" + std::to_string(variant_of(cfg.seed)) +
         " nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " sim_isa=" + stt::sim_isa_name(stt::active_sim_isa()));
  std::string json = "{\"correct\": ";
  std::string metrics;
  const auto add = [&](const MetricDef& def, bool required) {
    double value = 0;
    const auto it = r.metrics.find(def.name);
    if (it != r.metrics.end()) {
      value = it->second;
    } else if (required) {
      r.check_failed(std::string("metric ") + def.name + " not measured");
    }
    if (!std::isfinite(value)) {
      r.check_failed(std::string("metric ") + def.name + " is not finite");
      value = 0;
    }
    std::printf("metric %-28s %14s %s\n", def.name,
                format_number(value).c_str(), def.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + def.name + "\": {\"value\": " +
               format_number(value) + ", \"unit\": \"" + def.unit + "\"}";
  };
  if (cfg.trace) {
    r.metrics["fail_frac"] = static_cast<double>(r.failed) /
                             static_cast<double>(std::max<std::uint64_t>(r.attempted, 1));
    if (r.metrics["trace.coverage"] < 0.95) {
      r.check_failed("trace coverage below 0.95");
    }
    for (const MetricDef& def : kPerLayer) add(def, false);
  } else {
    for (const MetricDef& def : kEndToEnd) add(def, true);
  }
  if (r.attempted == 0) r.check_failed("no operation attempted");
  for (const std::string& line : r.notes) std::printf("%s\n", line.c_str());
  const bool correct = r.correct && r.failed == 0;
  std::printf("result: %s, %llu attempted, %llu failed\n",
              correct ? "correct" : "INCORRECT",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted) +
          ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {" +
          metrics + "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace sttbench

int main(int argc, char** argv) {
  using namespace sttbench;
  try {
    const Args args = parse_args(argc, argv);
    if (!args.write_expected.empty()) {
      write_expected(args);
      return 0;
    }
    const RunConfig& cfg = args.cfg;
    RunResult r;
    if (cfg.workload == "campaign_sat") {
      r = run_campaign_sat(cfg);
    } else if (cfg.workload == "lint_locked") {
      r = run_lint_locked(cfg);
    } else if (cfg.workload == "attack_oracle") {
      r = run_attack_oracle(cfg);
    } else {
      throw std::invalid_argument("unknown workload '" + cfg.workload +
                                  "' (campaign_sat|lint_locked|attack_oracle)");
    }
    return emit(cfg, std::move(r));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sttbench: error: %s\n", e.what());
    return 2;
  }
}
