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

// The two key-differentiated copies of the attacker's view, unrolled over
// the loop's frames, and one miter per frame.
struct Miter {
  std::vector<sat::Var> inputs;  ///< attacker-chosen bits, in pair layout
  DipEncoder::KeyVars key_a;
  DipEncoder::KeyVars key_b;
  std::vector<sat::Var> diffs;  ///< per frame: diff -> an observed bit differs
};

// Encode both copies frame by frame. A sequence starts from the all-zero
// reset state, frame f's flip-flops read frame f-1's D pins, and only POs
// are observed; the scan pair's one frame takes the flip-flop state as
// chosen inputs and also observes the D pins. Each frame of copy b shares
// copy a's variables for every cell whose value cannot differ between the
// copies: key-free logic whose flip-flop inputs carry no key taint from
// earlier frames (see EncodeOptions).
Miter encode_miter(sat::Solver& solver, const Netlist& nl, int frames) {
  const bool scan = frames == DipEncoder::kScan;
  const std::size_t n_pi = nl.inputs().size();
  const std::size_t n_po = nl.outputs().size();
  Miter m;
  std::vector<sat::Var> state_a;
  std::vector<sat::Var> state_b;
  if (!scan) {
    const sat::Var reset = solver.new_var();
    solver.add_unit(sat::neg(reset));
    state_a.assign(nl.dffs().size(), reset);
    state_b = state_a;
  }
  for (int f = 0; f < std::max(frames, 1); ++f) {
    std::vector<sat::Var> in_a;
    const std::size_t chosen = scan ? n_pi + nl.dffs().size() : n_pi;
    for (std::size_t i = 0; i < chosen; ++i) in_a.push_back(solver.new_var());
    m.inputs.insert(m.inputs.end(), in_a.begin(), in_a.end());
    std::vector<sat::Var> in_b = in_a;
    in_a.insert(in_a.end(), state_a.begin(), state_a.end());
    in_b.insert(in_b.end(), state_b.begin(), state_b.end());

    EncodeOptions opt_a;
    opt_a.symbolic_keys = true;
    opt_a.share_inputs = &in_a;
    if (f > 0) opt_a.share_keys = &m.key_a;
    const EncodedCircuit a = encode_comb(solver, nl, opt_a);
    EncodeOptions opt_b = opt_a;
    opt_b.share_inputs = &in_b;
    opt_b.share_keys = f > 0 ? &m.key_b : nullptr;
    opt_b.share_key_free_cells = &a.cell_var;
    const EncodedCircuit b = encode_comb(solver, nl, opt_b);
    if (f == 0) {
      m.key_a = a.key_vars;
      m.key_b = b.key_vars;
    }

    const std::size_t n_obs = scan ? a.output_vars.size() : n_po;
    m.diffs.push_back(add_miter(
        solver, {a.output_vars.begin(), a.output_vars.begin() + n_obs},
        {b.output_vars.begin(), b.output_vars.begin() + n_obs}));
    state_a.assign(a.output_vars.begin() + n_po, a.output_vars.end());
    state_b.assign(b.output_vars.begin() + n_po, b.output_vars.end());
  }
  return m;
}

}  // namespace

SatAttackResult run_dip_loop(const Netlist& hybrid, int frames,
                             const DipQuery& query,
                             const attack::CommonAttackOptions& opt,
                             int max_iterations, const DipWarmUp& warm_up) {
  SatAttackResult result;
  const Timer timer;

  sat::Solver solver;
  const Miter miter = encode_miter(solver, hybrid, frames);
  if (miter.key_a.empty()) {
    throw std::invalid_argument("SAT attack: netlist has no LUTs");
  }
  DipEncoder enc(solver, hybrid,
                 std::vector<const DipEncoder::KeyVars*>{&miter.key_a,
                                                         &miter.key_b},
                 frames);
  if (warm_up) warm_up(enc, result.stats);
  result.stats.cnf_initial_clauses = solver.clauses_added();

  const auto note_unknown = [&]() {
    result.outcome = solver.last_stop() == sat::StopCause::kDeadline
                         ? attack::Outcome::kTimedOut
                         : attack::Outcome::kBudgetExhausted;
  };

  // Distinguishing inputs are sought frame by frame: once no key pair left
  // can differ in frame f, that frame's outputs are asserted equal and the
  // search moves to frame f + 1. Later pairs only shrink the key space, so
  // the assertion stays implied, and each proof is about one frame given
  // equal earlier frames rather than about all frames at once.
  std::size_t frame = 0;
  while (true) {
    if (timer.seconds() > opt.time_limit_s) {
      result.outcome = attack::Outcome::kTimedOut;
      break;
    }
    if (result.iterations >= max_iterations) {
      result.outcome = attack::Outcome::kBudgetExhausted;
      break;
    }
    STTLOCK_SPAN("sat-dip", "dip");
    sat::Result r;
    {
      STTLOCK_SPAN("sat-dip", "solve");
      solver.set_conflict_budget(opt.work_budget);
      solver.set_deadline(std::max(0.0, opt.time_limit_s - timer.seconds()));
      const sat::Lit assume_diff[] = {sat::pos(miter.diffs[frame])};
      r = solver.solve(assume_diff);
    }
    if (r == sat::Result::kUnknown) {
      note_unknown();
      break;
    }
    if (r == sat::Result::kUnsat && frame + 1 < miter.diffs.size()) {
      solver.add_unit(sat::neg(miter.diffs[frame++]));
      continue;
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
      extract_key(solver, miter.key_a, result.key);
      result.outcome = attack::Outcome::kSolved;
      break;
    }

    // SAT: read the DIP, query the chip, constrain both key sets.
    ++result.iterations;
    dip_counter().add(1);
    std::vector<bool> dip(miter.inputs.size());
    for (std::size_t i = 0; i < dip.size(); ++i) {
      dip[i] = solver.value(miter.inputs[i]);
    }
    const std::vector<bool> response = query(dip);
    STTLOCK_SPAN("sat-dip", "encode");
    result.stats.key_rows_resolved +=
        enc.add_io_pair(dip, response, false).key_rows_resolved;
  }

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

SatAttackResult run_sat_attack(const Netlist& hybrid, ScanOracle& oracle,
                               const SatAttackOptions& opt) {
  std::optional<obs::Span> root;
  if (opt.trace) root.emplace("attack", "sat");
  const std::uint64_t queries_before = oracle.queries();
  SatAttackResult result = run_dip_loop(
      hybrid, DipEncoder::kScan,
      [&](const std::vector<bool>& dip) { return oracle.query(dip); }, opt,
      opt.max_iterations, [&](DipEncoder& enc, SatAttackStats& stats) {
        if (opt.warmup_words > 0) warm_up(enc, oracle, opt, stats);
      });
  result.queries = oracle.queries() - queries_before;
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
