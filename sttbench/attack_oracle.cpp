// Workload attack_oracle: single-shot oracle attacks, serial, each with an
// explicit work budget — the simulation side of the attack layer (compiled
// batch oracle queries, ternary partial evaluation, power traces) plus the
// SAT solver on unrolled frames.
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "attack/registry.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "defense/registry.hpp"
#include "runtime/campaign.hpp"
#include "sim/compiled.hpp"
#include "synth/generator.hpp"
#include "tech/tech_library.hpp"

namespace sttbench {

namespace {

struct RequestSpec {
  const char* attack;
  const char* profile;
  const char* defense;
  std::uint64_t query_budget;  ///< 0 = the attack's default
  std::int64_t work_budget;    ///< 0 = the attack's default
  stt::attack::Tuning tuning;
};

const std::vector<RequestSpec> kMix = {
    {"bf", "s5378a", "latch", 0, 8'000, {}},
    {"sens", "s5378a", "xor", 400, 0, {}},
    {"ml", "s9234a", "const", 0, 12'000, {}},
    {"dpa", "s9234a", "xor", 0, 0, {{"cycles", "2048"}}},
    {"seq", "s5378a", "latch", 0, 2'000,
     {{"frames", "4"}, {"max_iterations", "2"}}},
};
// Every attack runs on this many lock placements per round: one request's
// cost depends on where the lock landed, and averaging placements keeps a
// run's figures steady across seeds.
constexpr int kPlacements = 3;
constexpr const char* kWorkload = "attack_oracle";

bool uses_scan_oracle(const std::string& attack) {
  return attack == "bf" || attack == "sens" || attack == "ml";
}

struct Request {
  const RequestSpec* spec = nullptr;
  std::string item;  ///< "<attack>:<profile>/<defense>#<placement>"
  std::shared_ptr<const stt::defense::DefenseResult> locked;
  stt::attack::CommonAttackOptions common;
};

std::vector<Request> build_inputs(std::uint64_t variant) {
  const stt::TechLibrary lib = stt::TechLibrary::cmos90_stt();
  std::map<std::string, stt::Netlist> circuits;
  std::map<std::string, std::shared_ptr<const stt::defense::DefenseResult>> locks;
  std::vector<Request> requests;
  for (int placement = 0; placement < kPlacements; ++placement) {
    for (const RequestSpec& spec : kMix) {
      const std::string design = std::string(spec.profile) + "/" + spec.defense +
                                 "#" + std::to_string(placement);
      if (!circuits.count(spec.profile)) {
        circuits.emplace(spec.profile,
                         stt::generate_circuit(
                             *stt::find_profile(spec.profile),
                             variant_seed(variant, std::string(kWorkload) + "/" +
                                                       spec.profile)));
      }
      if (!locks.count(design)) {
        auto d = std::make_shared<stt::defense::DefenseResult>();
        const stt::RetryOutcome outcome = stt::run_with_seed_backoff(
            3,
            [&](int attempt) {
              return variant_seed(variant, std::string(kWorkload) + "/" +
                                               design + "/" +
                                               std::to_string(attempt));
            },
            [&](std::uint64_t seed, int) {
              *d = stt::defense::registry().apply(
                  spec.defense, circuits.at(spec.profile), lib,
                  {seed, 0.05, 0.10}, {});
            });
        if (!outcome.ok) {
          throw std::runtime_error("attack_oracle: cannot lock " + design +
                                   ": " + outcome.error);
        }
        locks.emplace(design, std::move(d));
      }
      Request q;
      q.spec = &spec;
      q.item = std::string(spec.attack) + ":" + design;
      q.locked = locks.at(design);
      q.common.seed =
          variant_seed(variant, std::string(kWorkload) + "/" + q.item);
      q.common.time_limit_s = stt::attack::CommonAttackOptions::kNoTimeLimit;
      q.common.query_budget = spec.query_budget;
      q.common.work_budget = spec.work_budget;
      requests.push_back(std::move(q));
    }
  }
  return requests;
}

/// One request as a user runs it: the attacker's view of the chip, the
/// oracle lowering (scan-oracle attacks), the attack.
stt::attack::UnifiedResult attack_request(const Request& q, Ledger* ledger) {
  const stt::Netlist& chip = q.locked->locked;
  const std::string attack = q.spec->attack;
  const auto step = [ledger](const std::string& layer, auto&& call) {
    return ledger != nullptr ? ledger->time(layer, call) : call();
  };
  const stt::Netlist view =
      step("sim.view_s", [&] { return stt::foundry_view(chip); });
  std::unique_ptr<const stt::CompiledSim> sim;
  if (uses_scan_oracle(attack)) {
    sim = step("sim.lower_s",
               [&] { return std::make_unique<const stt::CompiledSim>(chip); });
  }
  return step("attack." + attack + ".s", [&] {
    return stt::attack::registry().run(attack, view, chip, q.common,
                                       q.spec->tuning, nullptr, sim.get());
  });
}

/// What must repeat exactly when a request is run again.
std::string result_record(const stt::attack::UnifiedResult& res) {
  std::ostringstream o;
  o << stt::attack::outcome_name(res.outcome) << " queries=" << res.queries
    << " iterations=" << res.iterations << " conflicts=" << res.conflicts
    << " key=" << fnv1a(stt::key_to_string(res.key));
  return o.str();
}

}  // namespace

RunResult run_attack_oracle(const RunConfig& cfg) {
  RunResult r;
  const std::uint64_t variant = variant_of(cfg.seed);
  std::vector<Request> requests;
  r.metrics["setup_s"] =
      median_setup_seconds([&] { requests = build_inputs(variant); });
  for (const Request& q : requests) {
    r.note("input: " + q.item + " cells=" +
           std::to_string(q.locked->locked.size()) + " key_cells=" +
           std::to_string(q.locked->key_cells) + " key_bits=" +
           std::to_string(q.locked->key_bits));
  }
  r.note("input: requests=" + std::to_string(requests.size()) +
         " per round, serial closed loop, threads=1");

  // Timed phase, untraced: whole rounds of the mix until the time is up.
  std::vector<double> latencies;
  std::vector<stt::attack::UnifiedResult> results;
  std::vector<std::string> errors;
  std::vector<double> rss;  // process peak after each request
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  do {
    for (const Request& q : requests) {
      const Clock::time_point q0 = Clock::now();
      try {
        results.push_back(attack_request(q, nullptr));
        errors.emplace_back();
      } catch (const std::exception& e) {
        results.emplace_back();
        errors.emplace_back(e.what());
      }
      latencies.push_back(seconds_since(q0));
      rss.push_back(peak_rss_mb());
    }
  } while (!cfg.trace && seconds_since(t0) < cfg.seconds);
  const double wall = seconds_since(t0);
  const double cpu = process_cpu_seconds() - cpu0;

  // Checks, outside the timed window: no request threw, every repetition
  // of a request reproduced the first, and every solved scan-view key is
  // independently proven equivalent to the chip.
  const std::size_t n = requests.size();
  std::vector<std::string> first(n);
  std::size_t keys_checked = 0, keys_equivalent = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Request& q = requests[i % n];
    const stt::attack::UnifiedResult& res = results[i];
    ++r.attempted;
    if (!errors[i].empty()) {
      r.op_failed(q.item + ": threw: " + errors[i]);
      continue;
    }
    const std::string record = result_record(res);
    if (i < n) {
      first[i] = record;
      r.note("request: " + q.item + " " + std::to_string(latencies[i]) +
             " s peak_rss_mb=" + std::to_string(rss[i]) + " " + record + " (" +
             res.detail + ")");
      if (res.success() && uses_scan_oracle(q.spec->attack)) {
        const KeyVerdict v = check_key(q.locked->locked, res.key);
        ++keys_checked;
        if (v == KeyVerdict::kEquivalent) ++keys_equivalent;
        r.note("key check: " + q.item + " " + key_verdict_name(v));
        if (v == KeyVerdict::kWrong) r.op_failed(q.item + ": solved key is wrong");
      }
    } else if (record != first[i % n]) {
      r.op_failed(q.item + ": repetition gave [" + record + "], first run [" +
                  first[i % n] + "]");
    }
  }
  // Checker self-test on the first xor-locked s5378a design (request "sens").
  const std::string self =
      self_test_key_check(requests[1].locked->locked, requests[1].locked->key);
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
  double queries = 0, solved = 0, attack_s = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Request& q = requests[i];
    const Clock::time_point q0 = Clock::now();
    const stt::attack::UnifiedResult res = attack_request(q, &ledger);
    ledger.op_seconds += seconds_since(q0);
    ++r.attempted;
    if (result_record(res) != first[i]) {
      r.op_failed(q.item + ": traced run differs from the untraced one");
    }
    const std::string kind = q.spec->attack;
    queries += static_cast<double>(res.queries);
    if (res.success()) ++solved;
    // Raw counts behind the per-attack rates below.
    if (kind == "seq") ledger.values["seq.sequences"] += res.iterations;
    if (kind == "bf") ledger.values["bf.combos"] += res.iterations;
    if (kind == "sens") ledger.values["sens.queries"] += res.queries;
  }
  auto& v = ledger.values;
  for (const RequestSpec& spec : kMix) {
    attack_s += v["attack." + std::string(spec.attack) + ".s"];
  }
  const auto rate = [&v](const std::string& count, const std::string& secs) {
    return v[secs] > 0 ? v[count] / v[secs] : 0.0;
  };
  v["attack.seq.sequences_per_s"] = rate("seq.sequences", "attack.seq.s");
  v["attack.bf.combos_per_s"] = rate("bf.combos", "attack.bf.s");
  v["attack.sens.queries_per_s"] = rate("sens.queries", "attack.sens.s");
  v["attack.queries_per_s"] = attack_s > 0 ? queries / attack_s : 0;
  v["attack.solved_frac"] = solved / static_cast<double>(n);
  v["attack.keys_checked"] = static_cast<double>(keys_checked);
  v["attack.key_verified_frac"] =
      keys_checked > 0 ? static_cast<double>(keys_equivalent) /
                             static_cast<double>(keys_checked)
                       : 0;
  v["trace.coverage"] = ledger.layer_seconds / ledger.op_seconds;
  double untraced = 0;
  for (std::size_t i = 0; i < n; ++i) untraced += latencies[i];
  v["trace.overhead_frac"] = ledger.op_seconds / untraced - 1.0;
  r.metrics = ledger.values;
  return r;
}

}  // namespace sttbench
