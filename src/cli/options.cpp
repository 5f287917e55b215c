#include "cli/options.hpp"

#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <utility>

#include "attack/registry.hpp"
#include "defense/registry.hpp"
#include "sim/isa.hpp"
#include "synth/generator.hpp"
#include "util/strings.hpp"

namespace stt::cli {

CommonOptions::CommonOptions(ArgParser& parser, unsigned groups)
    : groups_(groups) {
  if (groups_ & kJobs) {
    parser.add_option("--jobs", "worker threads (0 = all hardware threads)",
                      "1");
  }
  if (groups_ & kTrace) {
    parser.add_option("--trace",
                      "write a Chrome trace (chrome://tracing JSON) here", "");
  }
  if (groups_ & kMetrics) {
    parser.add_option("--metrics",
                      "write the run's metrics delta (JSON) here", "");
  }
  if (groups_ & kSimIsa) {
    // Empty leaves the engine's lazy resolution (STTLOCK_SIM_ISA env, then
    // CPUID) in charge; any other value — including "auto" — resolves
    // eagerly so bad spellings fail before work starts.
    parser.add_option("--sim-isa",
                      "simulation kernel: scalar|avx2|avx512|auto "
                      "(default: STTLOCK_SIM_ISA env, then CPUID probe)",
                      "");
  }
  if (groups_ & kQuiet) {
    parser.add_flag("--quiet", "suppress the text summary on stdout");
  }
  if (groups_ & kJson) {
    parser.add_flag("--json", "print the JSON report on stdout");
  }
}

void CommonOptions::load(const ArgParser& parser) {
  if (groups_ & kJobs) {
    jobs_ = static_cast<unsigned>(
        parser.get_int("--jobs", 0, std::numeric_limits<unsigned>::max()));
  }
  if (groups_ & kTrace) trace_ = parser.get("--trace");
  if (groups_ & kMetrics) metrics_ = parser.get("--metrics");
  if (groups_ & kSimIsa) {
    const std::string isa = parser.get("--sim-isa");
    if (!isa.empty()) set_sim_isa(isa);
  }
  if (groups_ & kQuiet) quiet_ = parser.flag("--quiet");
  if (groups_ & kJson) json_ = parser.flag("--json");
}

std::vector<std::string> split_list(const std::string& list, char sep) {
  std::vector<std::string> out;
  for (const std::string& entry : split(list, sep)) {
    if (!trim(entry).empty()) out.emplace_back(trim(entry));
  }
  return out;
}

defense::Tuning parse_tuning_list(const std::string& list, char sep) {
  defense::Tuning tuning;
  for (const std::string& kv : split_list(list, sep)) {
    const auto eq = kv.find('=');
    if (eq == std::string::npos) {
      throw ArgError("tuning entries must be key=value, got '" + kv + "'");
    }
    tuning.emplace_back(std::string(trim(kv.substr(0, eq))),
                        std::string(trim(kv.substr(eq + 1))));
  }
  return tuning;
}

std::vector<DefenseAxis> parse_defense_axis(const std::string& arg) {
  std::vector<DefenseAxis> axes;
  if (arg == "all") {
    for (const std::string& kind : defense::registry().names()) {
      axes.push_back({kind, {}});
    }
    return axes;
  }
  for (const std::string& entry : split_list(arg)) {
    const auto colon = entry.find(':');
    DefenseAxis axis{std::string(trim(entry.substr(0, colon))), {}};
    if (colon != std::string::npos) {
      axis.tuning = parse_tuning_list(entry.substr(colon + 1), ':');
    }
    axes.push_back(std::move(axis));
  }
  return axes;
}

std::vector<std::string> expand_profiles(const std::string& arg) {
  std::vector<std::string> names;
  if (arg == "all") {
    for (const CircuitProfile& profile : iscas89_profiles()) {
      names.push_back(profile.name);
    }
    return names;
  }
  for (const std::string& name : split_list(arg)) {
    if (!find_profile(name)) {
      std::string known;
      for (const CircuitProfile& profile : iscas89_profiles()) {
        known += known.empty() ? profile.name : "|" + profile.name;
      }
      throw ArgError("unknown profile '" + name + "' (expected all or " +
                     known + ")");
    }
    names.push_back(name);
  }
  return names;
}

namespace {

/// One `--list` entry: kind, description, then one line per knob.
void list_kind(std::string& out, const std::string& name,
               std::string_view description,
               const std::vector<KnobDoc>& knobs, int width) {
  out += strformat("  %-*s %s\n", width, name.c_str(),
                   std::string(description).c_str());
  for (const KnobDoc& knob : knobs) {
    out += strformat("%*s--tune %s=<%s> (default %s): %s\n", width + 3, "",
                     knob.name.c_str(), knob.type.c_str(),
                     knob.default_value.c_str(), knob.doc.c_str());
  }
}

}  // namespace

std::string attack_list_text() {
  std::string out = "registered attacks:\n";
  for (const attack::AttackInfo& info : attack::registry().catalogue()) {
    list_kind(out, info.name, info.description, info.knobs, 6);
  }
  return out;
}

std::string defense_list_text() {
  std::string out = "registered defenses:\n";
  for (const std::string& name : defense::registry().names()) {
    const defense::DefenseBase& d = defense::registry().at(name);
    list_kind(out, name, d.description(), d.knobs(), 12);
  }
  return out;
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << content;
}

ObsCapture::ObsCapture(std::string trace_path, std::string metrics_path)
    : trace_path_(std::move(trace_path)),
      metrics_path_(std::move(metrics_path)) {
  if (!metrics_path_.empty()) {
    before_ = obs::Metrics::global().snapshot(/*include_runtime=*/true);
  }
  if (!trace_path_.empty()) obs::TraceRecorder::global().start();
}

void ObsCapture::finish() {
  if (!trace_path_.empty()) {
    obs::TraceRecorder::global().stop();
    write_text_file(trace_path_, obs::TraceRecorder::global().chrome_json());
    std::fprintf(stderr, "wrote %s (%zu trace events)\n", trace_path_.c_str(),
                 obs::TraceRecorder::global().event_count());
    trace_path_.clear();
  }
  if (!metrics_path_.empty()) {
    write_text_file(
        metrics_path_,
        obs::metrics_json(obs::snapshot_diff(
            obs::Metrics::global().snapshot(/*include_runtime=*/true),
            before_)) +
            "\n");
    std::fprintf(stderr, "wrote %s\n", metrics_path_.c_str());
    metrics_path_.clear();
  }
}

}  // namespace stt::cli
