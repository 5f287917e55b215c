#include "attack/sat_attack.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "attack/dip_encode.hpp"
#include "attack/encode.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace stt {

namespace {

obs::Counter& dip_counter() {
  static obs::Counter& c = obs::Metrics::global().counter("sat.dips");
  return c;
}

// Pin an encoded copy's inputs to a concrete pattern and its outputs to the
// oracle's response (legacy full-copy encoding).
void constrain_io(sat::Solver& solver, const EncodedCircuit& enc,
                  const std::vector<bool>& in, const std::vector<bool>& out) {
  for (std::size_t i = 0; i < enc.input_vars.size(); ++i) {
    solver.add_unit(in[i] ? sat::pos(enc.input_vars[i])
                          : sat::neg(enc.input_vars[i]));
  }
  for (std::size_t i = 0; i < enc.output_vars.size(); ++i) {
    solver.add_unit(out[i] ? sat::pos(enc.output_vars[i])
                           : sat::neg(enc.output_vars[i]));
  }
}

double remaining_deadline(const Timer& timer, const SatAttackOptions& opt) {
  return std::max(0.0, opt.time_limit_s - timer.seconds());
}

void extract_key(const sat::Solver& solver,
                 const std::map<std::string, std::vector<sat::Var>>& key_vars,
                 LutKey& key) {
  for (const auto& [name, vars] : key_vars) {
    std::uint64_t mask = 0;
    for (std::size_t row = 0; row < vars.size(); ++row) {
      if (solver.value(vars[row])) mask |= (1ull << row);
    }
    key[name] = mask;
  }
}

// Simulation-guided warm-up: flood the oracle with word-parallel random
// patterns; outputs that fold to single key-row literals become free unit
// constraints, and a bounded number of still-complex patterns are cone-
// encoded to seed the CNF.
void warm_up(DipEncoder& enc, ScanOracle& oracle, const SatAttackOptions& opt,
             SatAttackStats& stats) {
  STTLOCK_SPAN("attack", "sat_warmup");
  const std::size_t W = static_cast<std::size_t>(opt.warmup_words);
  const std::size_t n_in = oracle.num_inputs();
  const std::size_t n_out = oracle.num_outputs();
  Rng rng(opt.seed ^ 0x57a57a11u);
  std::vector<std::uint64_t> stim(n_in * W);
  std::vector<std::uint64_t> resp(n_out * W);
  for (std::uint64_t& w : stim) w = rng();
  oracle.query_batch(W, stim, resp, opt.parallel);

  std::vector<bool> in(n_in);
  std::vector<bool> out(n_out);
  for (std::size_t w = 0; w < W; ++w) {
    for (int b = 0; b < 64; ++b) {
      for (std::size_t i = 0; i < n_in; ++i) {
        in[i] = (stim[i * W + w] >> b) & 1ull;
      }
      for (std::size_t o = 0; o < n_out; ++o) {
        out[o] = (resp[o * W + w] >> b) & 1ull;
      }
      const DipEncodeStats st = enc.add_io_pair(in, out, true);
      stats.key_rows_resolved += st.key_rows_resolved;
      if (st.complex_outputs > 0 &&
          stats.warmup_pairs_encoded < opt.warmup_pair_limit) {
        stats.key_rows_resolved +=
            enc.add_io_pair(in, out, false).key_rows_resolved;
        ++stats.warmup_pairs_encoded;
      }
    }
  }
}

// The DIP loop of both engines: one solver, one miter, one solve per DIP.
// The cone-pruned engine folds every I/O pair into the key cones it leaves
// unresolved (after the optional warm-up); the legacy engine
// (`cone_pruning` off, the benchmark baseline) re-encodes two full
// symbolic copies per pair.
SatAttackResult run_dip_loop(const Netlist& hybrid, ScanOracle& oracle,
                             const SatAttackOptions& opt) {
  SatAttackResult result;
  const Timer timer;
  const std::uint64_t queries_before = oracle.queries();

  sat::Solver solver;
  EncodeOptions symbolic;
  symbolic.symbolic_keys = true;
  const EncodedCircuit copy_a = encode_comb(solver, hybrid, symbolic);
  EncodeOptions opt_b = symbolic;
  opt_b.share_inputs = &copy_a.input_vars;
  // Cone-of-influence sharing: only the key-tainted cone is duplicated in
  // the second copy; key-free logic is encoded once and the miter skips
  // outputs that cannot differ.
  if (opt.cone_pruning) opt_b.share_key_free_cells = &copy_a.cell_var;
  const EncodedCircuit copy_b = encode_comb(solver, hybrid, opt_b);
  const sat::Var miter = add_miter(solver, copy_a, copy_b);
  if (copy_a.key_vars.empty()) {
    throw std::invalid_argument("run_sat_attack: netlist has no LUTs");
  }

  std::optional<DipEncoder> enc;
  if (opt.cone_pruning) {
    enc.emplace(solver, hybrid,
                std::vector<const DipEncoder::KeyVars*>{&copy_a.key_vars,
                                                        &copy_b.key_vars});
    if (opt.warmup_words > 0) warm_up(*enc, oracle, opt, result.stats);
  }
  result.stats.cnf_initial_clauses = solver.clauses_added();

  // Constrain both key sets with one observed (input, response) pair.
  const auto add_pair = [&](const std::vector<bool>& in,
                            const std::vector<bool>& out) {
    if (enc) {
      result.stats.key_rows_resolved +=
          enc->add_io_pair(in, out, false).key_rows_resolved;
      return;
    }
    for (const auto* keys : {&copy_a.key_vars, &copy_b.key_vars}) {
      EncodeOptions io;
      io.symbolic_keys = true;
      io.share_keys = keys;
      constrain_io(solver, encode_comb(solver, hybrid, io), in, out);
    }
  };
  const auto note_unknown = [&]() {
    result.outcome = solver.last_stop() == sat::StopCause::kDeadline
                         ? attack::Outcome::kTimedOut
                         : attack::Outcome::kBudgetExhausted;
  };

  const sat::Lit assume_diff[] = {sat::pos(miter)};
  while (true) {
    if (timer.seconds() > opt.time_limit_s) {
      result.outcome = attack::Outcome::kTimedOut;
      break;
    }
    if (result.iterations >= opt.max_iterations) {
      result.outcome = attack::Outcome::kBudgetExhausted;
      break;
    }
    STTLOCK_SPAN("sat-dip", "dip");
    sat::Result r;
    {
      STTLOCK_SPAN("sat-dip", "solve");
      solver.set_conflict_budget(opt.work_budget);
      solver.set_deadline(remaining_deadline(timer, opt));
      r = solver.solve(assume_diff);
    }
    if (r == sat::Result::kUnknown) {
      note_unknown();
      break;
    }
    if (r == sat::Result::kUnsat) {
      // No distinguishing input remains: any key consistent with the
      // observed pairs is correct. Read one from the same solver, capped by
      // the conflict budget only.
      solver.set_deadline(-1.0);
      const sat::Result final_r = solver.solve();
      if (final_r != sat::Result::kSat) {
        if (final_r == sat::Result::kUnknown) note_unknown();
        break;
      }
      extract_key(solver, copy_a.key_vars, result.key);
      result.outcome = attack::Outcome::kSolved;
      break;
    }

    // SAT: read the DIP, query the chip, constrain both key sets.
    ++result.iterations;
    dip_counter().add(1);
    std::vector<bool> dip(copy_a.input_vars.size());
    for (std::size_t i = 0; i < dip.size(); ++i) {
      dip[i] = solver.value(copy_a.input_vars[i]);
    }
    const std::vector<bool> response = oracle.query(dip);
    STTLOCK_SPAN("sat-dip", "encode");
    add_pair(dip, response);
  }

  result.queries = oracle.queries() - queries_before;
  result.conflicts = solver.conflicts();
  result.stats.decisions = solver.decisions();
  result.stats.propagations = solver.propagations();
  result.stats.learned = solver.learned();
  result.stats.peak_clauses = solver.peak_clauses();
  result.stats.cnf_dip_clauses =
      solver.clauses_added() - result.stats.cnf_initial_clauses;
  result.stats.cnf_clauses_per_iter =
      result.iterations > 0 ? static_cast<double>(result.stats.cnf_dip_clauses) /
                                  result.iterations
                            : 0.0;
  result.elapsed_s = timer.seconds();
  return result;
}

}  // namespace

SatAttackResult run_sat_attack(const Netlist& hybrid, ScanOracle& oracle,
                               const SatAttackOptions& opt) {
  std::optional<obs::Span> root;
  if (opt.trace) root.emplace("attack", "sat");
  SatAttackResult result = run_dip_loop(hybrid, oracle, opt);
  result.span_id = root ? root->id() : 0;
  return result;
}

SatAttackResult run_sat_attack(const Netlist& hybrid,
                               const Netlist& configured,
                               const SatAttackOptions& opt) {
  ScanOracle oracle(configured);
  return run_sat_attack(hybrid, oracle, opt);
}

}  // namespace stt
