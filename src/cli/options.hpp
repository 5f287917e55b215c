// Shared CLI options layer for the sttlock subcommands.
//
// Every subcommand used to re-declare the cross-cutting options (--jobs,
// --trace, --metrics, --sim-isa, --quiet, --json) with drifting help text.
// `CommonOptions` registers a chosen subset once with one canonical wording
// per option, and `load` applies the cross-cutting side effects (eager
// --sim-isa resolution) and snapshots the parsed values:
//
//   ArgParser p;
//   cli::CommonOptions common(p, cli::kJobs | cli::kObs | cli::kSimIsa);
//   p.add_option("--in", "input netlist");   // subcommand-specific options
//   p.parse(args);
//   common.load(p);
//   ThreadPool pool(common.jobs() == 0 ? 0u : common.jobs());
//
// Behavior (names, defaults, parsing) is identical to the per-subcommand
// declarations it replaces — only the --help wording is unified.
//
// The grid axes shared by `campaign`, `lint --gen` and `analyze --gen` are
// parsed here too, once: `parse_defense_axis` for --defense and
// `expand_profiles` for --benchmarks / --gen.
#pragma once

#include <string>
#include <vector>

#include "defense/defense.hpp"
#include "obs/obs.hpp"
#include "runtime/campaign.hpp"
#include "util/args.hpp"

namespace stt::cli {

/// Option groups a subcommand can compose. `kObs` is the usual
/// --trace/--metrics pair.
enum CommonGroup : unsigned {
  kJobs = 1u << 0,     ///< --jobs N (0 = all hardware threads), default 1
  kTrace = 1u << 1,    ///< --trace <chrome-trace.json>
  kMetrics = 1u << 2,  ///< --metrics <metrics-delta.json>
  kSimIsa = 1u << 3,   ///< --sim-isa scalar|avx2|avx512|auto, eager resolve
  kQuiet = 1u << 4,    ///< --quiet: suppress the text summary on stdout
  kJson = 1u << 5,     ///< --json: print the JSON report on stdout
  kObs = kTrace | kMetrics,
};

class CommonOptions {
 public:
  /// Registers the selected groups' options into `parser` (canonical names,
  /// docs and defaults). Register subcommand-specific options before or
  /// after — ArgParser help output is sorted by name either way.
  CommonOptions(ArgParser& parser, unsigned groups);

  /// Call once after `parser.parse(...)`: applies --sim-isa eagerly (bad
  /// spellings fail before any work starts) and snapshots the values below.
  void load(const ArgParser& parser);

  unsigned jobs() const { return jobs_; }
  const std::string& trace_path() const { return trace_; }
  const std::string& metrics_path() const { return metrics_; }
  bool quiet() const { return quiet_; }
  bool json() const { return json_; }

 private:
  unsigned groups_;
  unsigned jobs_ = 1;
  std::string trace_;
  std::string metrics_;
  bool quiet_ = false;
  bool json_ = false;
};

/// The trimmed, non-empty entries of a `sep`-separated list.
std::vector<std::string> split_list(const std::string& list, char sep = ',');

/// `sep`-separated "key=value" entries (blank entries skipped); throws
/// ArgError on an entry without '='.
defense::Tuning parse_tuning_list(const std::string& list, char sep);

/// The --defense axis: "all" (every registered defense, default tuning) or
/// a comma list of kind[:k=v[:k=v...]] entries. Kinds and tuning keys are
/// validated where the axis is applied.
std::vector<DefenseAxis> parse_defense_axis(const std::string& arg);

/// The benchmark axis (--benchmarks, --gen): "all" (the ISCAS'89 set in
/// Table I order) or a comma list of profile names; throws ArgError naming
/// an unknown profile and listing the known ones.
std::vector<std::string> expand_profiles(const std::string& arg);

/// The `attack --list` and `defend --list` text: each kind, its description
/// and one line per knob (type, range, default, doc) from its knob table.
std::string attack_list_text();
std::string defense_list_text();

/// Write `content` to `path`, throwing std::runtime_error on failure.
void write_text_file(const std::string& path, const std::string& content);

/// Scoped --trace/--metrics capture: starts the global TraceRecorder and
/// baselines the metrics registry on construction; finish() writes the
/// Chrome trace and the metrics delta. Either path may be empty.
class ObsCapture {
 public:
  ObsCapture(std::string trace_path, std::string metrics_path);
  /// Capture whatever the subcommand's CommonOptions selected (paths are
  /// empty when the kTrace/kMetrics groups were not composed in).
  explicit ObsCapture(const CommonOptions& common)
      : ObsCapture(common.trace_path(), common.metrics_path()) {}

  void finish();

 private:
  std::string trace_path_;
  std::string metrics_path_;
  obs::MetricsSnapshot before_;
};

}  // namespace stt::cli
