// Workload lint_locked: single-shot lint requests, serial and closed loop.
// Each request reads a locked .bench file and lints it with its defense's
// annotations — parse, structural lint, security audit and key-dependency
// analysis, no SAT solving. The mix is graded by key-cell count.
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "defense/registry.hpp"
#include "io/bench_io.hpp"
#include "runtime/campaign.hpp"
#include "synth/generator.hpp"
#include "tech/tech_library.hpp"
#include "verify/lint.hpp"

namespace sttbench {

namespace {

struct RequestSpec {
  const char* profile;
  const char* defense;
};

// Largest first: b14/xor carries ~770 key cells (the generator's LUT fabric
// plus the key gates), s15850a/xor the xor default of 16.
constexpr RequestSpec kMix[] = {
    {"b14", "xor"},         {"b15", "xor"},    {"b14", "const"},
    {"s38584", "dependent"}, {"s38584", "xor"}, {"s15850a", "xor"},
};
constexpr const char* kWorkload = "lint_locked";

struct Request {
  std::string item;  ///< "<profile>/<defense>"
  std::string path;  ///< locked .bench file
  stt::LintOptions options;
  int defense_key_bits = 0;
  bool const_lock = false;
  std::size_t cells = 0;
  std::uintmax_t bytes = 0;
};

/// Generate, lock and write every request's input; returns the requests.
std::vector<Request> build_inputs(std::uint64_t variant,
                                  const std::string& work_dir) {
  std::filesystem::create_directories(work_dir);
  const stt::TechLibrary lib = stt::TechLibrary::cmos90_stt();
  std::vector<Request> requests;
  std::string last_profile;
  stt::Netlist circuit;
  for (const RequestSpec& spec : kMix) {
    if (spec.profile != last_profile) {
      last_profile = spec.profile;
      circuit = stt::generate_circuit(
          *stt::find_profile(spec.profile),
          variant_seed(variant, std::string(kWorkload) + "/" + spec.profile));
    }
    Request q;
    q.item = std::string(spec.profile) + "/" + spec.defense;
    stt::defense::DefenseResult d;
    // The campaign's retry policy: a defense that cannot lock this circuit
    // with one seed is retried with the next.
    const stt::RetryOutcome outcome = stt::run_with_seed_backoff(
        3,
        [&](int attempt) {
          return variant_seed(variant, std::string(kWorkload) + "/" + q.item +
                                           "#" + std::to_string(attempt));
        },
        [&](std::uint64_t seed, int) {
          d = stt::defense::registry().apply(spec.defense, circuit, lib,
                                             {seed, 0.05, 0.10}, {});
        });
    if (!outcome.ok) {
      throw std::runtime_error("lint_locked: cannot lock " + q.item + ": " +
                               outcome.error);
    }
    std::string stem = q.item;
    stem[stem.find('/')] = '_';
    q.path = work_dir + "/" + stem + ".bench";
    stt::write_bench_file(d.locked, q.path);
    const std::string ann_path = work_dir + "/" + stem + ".ann";
    std::ofstream(ann_path) << stt::annotations_to_string(d.annotations);
    std::ifstream ann_in(ann_path);
    std::stringstream ann_text;
    ann_text << ann_in.rdbuf();
    q.options.defense = stt::annotations_from_string(ann_text.str());
    q.defense_key_bits = d.key_bits;
    q.const_lock = std::string(spec.defense) == "const";
    q.cells = d.locked.size();
    q.bytes = std::filesystem::file_size(q.path);
    requests.push_back(std::move(q));
  }
  return requests;
}

int count_luts(const stt::Netlist& nl) {
  int n = 0;
  for (stt::CellId id = 0; id < nl.size(); ++id) {
    if (nl.cell(id).kind == stt::CellKind::kLut) ++n;
  }
  return n;
}

/// The deterministic columns of one lint request.
std::string lint_record(const stt::Netlist& nl, const stt::LintReport& rep) {
  std::ostringstream o;
  o << "lint=" << rep.verdict() << " errors=" << rep.counts.errors
    << " warnings=" << rep.counts.warnings << " infos=" << rep.counts.infos
    << " luts=" << count_luts(nl);
  if (rep.keydep_ran) {
    o << " key_cells=" << rep.keydep.key_cells
      << " eff_key_bits=" << rep.keydep.eff_key_bits
      << " key_bits_static=" << rep.keydep.key_bits_static
      << " analyze=" << rep.keydep.verdict();
  }
  return o.str();
}

struct Outcome {
  std::string record;
  int const_static_bits = 0;
};

/// Key bits that keydep recovered statically on the cells the defense
/// declared as locked constants; -1 when keydep did not run. The design's
/// whole key_bits_static also counts the generator's LUT fabric, which is
/// pinned by the known answers instead.
int const_static_bits(const stt::LintReport& rep,
                      const stt::DefenseAnnotations& defense) {
  if (!rep.keydep_ran) return -1;
  int bits = 0;
  for (const stt::KeyCellReport& c : rep.keydep.cells) {
    if (defense.locked_constants.count(c.name) != 0 &&
        (c.verdict == stt::KeyVerdict::kConstant ||
         c.verdict == stt::KeyVerdict::kRemovable)) {
      bits += c.nominal_bits;
    }
  }
  return bits;
}

Outcome lint_request(const Request& q) {
  const stt::Netlist nl = stt::read_bench_file(q.path);
  const stt::LintReport rep = stt::run_lint(nl, q.options);
  return {lint_record(nl, rep), const_static_bits(rep, q.options.defense)};
}

void check_outcome(const Request& q, const Outcome& o, const KnownAnswers& a,
                   std::uint64_t variant, RunResult& r) {
  ++r.attempted;
  const std::string mismatch =
      a.check(KnownAnswers::key(kWorkload, variant, q.item), o.record);
  if (!mismatch.empty()) {
    r.op_failed(mismatch);
  } else if (q.const_lock && o.const_static_bits != q.defense_key_bits) {
    r.op_failed(q.item + ": keydep recovered " +
                std::to_string(o.const_static_bits) +
                " key bits statically on the const-lock cells, which hold " +
                std::to_string(q.defense_key_bits));
  }
}

}  // namespace

void time_lint_layers(const stt::Netlist& nl,
                      const stt::DefenseAnnotations& annotations,
                      Ledger& ledger) {
  stt::StructuralLintOptions so;
  so.defense = annotations;
  ledger.time("verify.structural_s",
              [&] { return stt::run_structural_lint(nl, so); }, false);
  stt::StaticAuditOptions ao;
  ao.defense = annotations;
  ledger.time("verify.audit_s", [&] { return stt::run_static_audit(nl, ao); },
              false);
  stt::KeydepOptions ko;
  ko.defense = annotations;
  const stt::KeydepResult kd = ledger.time(
      "verify.keydep_s", [&] { return stt::analyze_keydep(nl, ko); }, false);
  ledger.values["verify.keydep_edges"] += static_cast<double>(kd.edges.size());
  ledger.values["verify.key_cells"] += kd.key_cells;
}

void write_lint_answers(std::ostream& out, std::uint64_t variant,
                        const std::string& work_dir) {
  for (const Request& q : build_inputs(variant, work_dir)) {
    out << kWorkload << " " << variant << " " << q.item << " "
        << lint_request(q).record << "\n";
  }
}

RunResult run_lint_locked(const RunConfig& cfg) {
  RunResult r;
  const std::uint64_t variant = variant_of(cfg.seed);
  const std::string dir = cfg.work_dir + "/lint_locked";
  std::vector<Request> requests;
  KnownAnswers answers;
  r.metrics["setup_s"] = median_setup_seconds([&] {
    requests = build_inputs(variant, dir);
    answers = KnownAnswers::load(cfg.expected_path);
  });
  for (const Request& q : requests) {
    r.note("input: " + q.item + " cells=" + std::to_string(q.cells) +
           " bench_bytes=" + std::to_string(q.bytes) + " defense_key_bits=" +
           std::to_string(q.defense_key_bits));
  }
  r.note("input: requests=" + std::to_string(requests.size()) +
         " per round, serial closed loop, threads=1");

  // Timed phase, untraced: whole rounds of the mix until the time is up.
  std::vector<double> latencies;
  std::vector<Outcome> outcomes;
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  do {
    for (const Request& q : requests) {
      const Clock::time_point q0 = Clock::now();
      outcomes.push_back(lint_request(q));
      latencies.push_back(seconds_since(q0));
    }
  } while (!cfg.trace && seconds_since(t0) < cfg.seconds);
  const double wall = seconds_since(t0);
  const double cpu = process_cpu_seconds() - cpu0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Request& q = requests[i % requests.size()];
    if (i < requests.size()) {
      r.note("request: " + q.item + " " + std::to_string(latencies[i]) + " s " +
             outcomes[i].record);
    }
    check_outcome(q, outcomes[i], answers, variant, r);
  }
  const std::string self = self_test_known_answers(
      answers, KnownAnswers::key(kWorkload, variant, requests[0].item),
      outcomes[0].record, "lint");
  if (!self.empty()) r.check_failed(self);

  if (!cfg.trace) {
    r.metrics["ops_per_s"] = static_cast<double>(latencies.size()) / wall;
    r.metrics["cpu_s_per_op"] = cpu / static_cast<double>(latencies.size());
    r.metrics["op_p50_s"] = median(latencies);
    r.metrics["op_max_s"] = max_of(latencies);
    r.metrics["peak_rss_mb"] = peak_rss_mb();
    r.note("samples: " + std::to_string(latencies.size()) +
           " request latencies, wall " + std::to_string(wall) + " s");
    return r;
  }

  // Traced pass: the same round with every library call timed here.
  Ledger ledger;
  double bytes = 0;
  for (const Request& q : requests) {
    const Clock::time_point q0 = Clock::now();
    const stt::Netlist nl = ledger.time(
        "io.parse_s", [&] { return stt::read_bench_file(q.path); });
    const stt::LintReport rep = ledger.time(
        "verify.lint_s", [&] { return stt::run_lint(nl, q.options); });
    ledger.op_seconds += seconds_since(q0);
    bytes += static_cast<double>(q.bytes);
    check_outcome(q,
                  {lint_record(nl, rep), const_static_bits(rep, q.options.defense)},
                  answers, variant, r);
    time_lint_layers(nl, q.options.defense, ledger);
  }
  auto& v = ledger.values;
  v["io.parse_mb_per_s"] = bytes / (1024.0 * 1024.0) / v["io.parse_s"];
  v["trace.coverage"] = ledger.layer_seconds / ledger.op_seconds;
  double untraced = 0;
  for (const double s : latencies) untraced += s;
  v["trace.overhead_frac"] = ledger.op_seconds / untraced - 1.0;
  r.metrics = ledger.values;
  return r;
}

}  // namespace sttbench
