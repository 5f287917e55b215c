// Shared pieces of the end-to-end benchmark: the run configuration, the
// result record every workload fills, wall/CPU clocks, and the layer ledger
// that the traced runs fill by timing calls into each library layer from
// the outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "verify/annotations.hpp"

namespace sttbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;       ///< scratch for generated inputs
  std::string expected_path;  ///< known-answer file (expected.txt)
};

/// Input sets are pinned: `--seed` selects one of `kVariants` derived
/// seeds, so every seed has an entry in the known-answer file.
constexpr std::uint64_t kVariants = 16;
inline std::uint64_t variant_of(std::uint64_t seed) { return seed % kVariants; }
/// The generator/defense seed of variant `v` for one named input stream.
std::uint64_t variant_seed(std::uint64_t variant, const std::string& stream);

/// What one run reports. `metrics` holds whatever the workload measured;
/// main() projects it onto the end-to-end or per-layer metric list.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;  ///< human-readable report lines

  void note(const std::string& line) { notes.push_back(line); }
  /// A failed self-check: the run is reported as incorrect.
  void check_failed(const std::string& why);
  /// A failed operation: counted in `failed` (and so in fail_frac).
  void op_failed(const std::string& why);
};

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds of the whole process (all threads).
double process_cpu_seconds();
/// Peak resident set size of the process, in MiB.
double peak_rss_mb();

double median(std::vector<double> v);
double max_of(const std::vector<double>& v);

/// Set-up time: run `set_up` (which keeps its own result) three times and
/// return the median wall time.
template <class F>
double median_setup_seconds(F&& set_up) {
  std::vector<double> times;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    set_up();
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

/// Per-layer seconds and counts of one traced pass. `time` adds the wall
/// time of one call into a layer to `values[layer]`; calls on the
/// operation's path also count toward `layer_seconds` (coverage), calls
/// made off it (a sub-layer breakdown) do not.
class Ledger {
 public:
  template <class F>
  decltype(auto) time(const std::string& layer, F&& call, bool on_path = true) {
    struct Add {
      Ledger& l;
      const std::string& layer;
      bool on_path;
      Clock::time_point t0 = Clock::now();
      ~Add() {
        const double s = seconds_since(t0);
        l.values[layer] += s;
        if (on_path) l.layer_seconds += s;
      }
    } add{*this, layer, on_path};
    return call();
  }

  std::map<std::string, double> values;
  double layer_seconds = 0;  ///< sum of on-path layer calls
  double op_seconds = 0;     ///< sum of traced operation wall times
};

/// Stable 64-bit FNV-1a digest, for byte-identity checks.
std::uint64_t fnv1a(const std::string& s);

RunResult run_campaign_sat(const RunConfig& cfg);
void write_campaign_answers(std::ostream& out, std::uint64_t variant);
RunResult run_lint_locked(const RunConfig& cfg);
/// The lint breakdown, off the operation path: the structural lint, the
/// audit and the key-dependency analysis, each called and timed alone.
void time_lint_layers(const stt::Netlist& nl,
                      const stt::DefenseAnnotations& annotations,
                      Ledger& ledger);
void write_lint_answers(std::ostream& out, std::uint64_t variant,
                        const std::string& work_dir);
RunResult run_attack_oracle(const RunConfig& cfg);

}  // namespace sttbench
