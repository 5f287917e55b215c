#include "attack/seq_attack.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "attack/encode.hpp"
#include "obs/obs.hpp"
#include "util/timer.hpp"

namespace stt {

SequenceOracle::SequenceOracle(const Netlist& configured)
    : sim_(configured),
      state_(sim_.num_dffs(), 0),
      pi_buf_(sim_.num_inputs(), 0),
      wave_(sim_.wave_size(), 0) {}

std::vector<std::vector<bool>> SequenceOracle::query(
    const std::vector<std::vector<bool>>& pi_seq) {
  std::fill(state_.begin(), state_.end(), 0);
  std::vector<std::vector<bool>> result;
  result.reserve(pi_seq.size());
  const std::size_t n_pi = pi_buf_.size();
  for (const auto& pi : pi_seq) {
    if (pi.size() != n_pi) {
      throw std::invalid_argument("SequenceOracle: PI vector size mismatch");
    }
    for (std::size_t i = 0; i < n_pi; ++i) pi_buf_[i] = pi[i] ? ~0ull : 0ull;
    sim_.step(pi_buf_, state_, wave_);
    const std::span<const CellId> outputs = sim_.output_cells();
    std::vector<bool> bits(outputs.size());
    for (std::size_t o = 0; o < outputs.size(); ++o) {
      bits[o] = wave_[outputs[o]] & 1ull;
    }
    result.push_back(std::move(bits));
    ++cycles_;
  }
  return result;
}

namespace {

struct UnrolledCopy {
  std::vector<std::vector<sat::Var>> pi_vars;  ///< [frame][pi]
  std::vector<std::vector<sat::Var>> po_vars;  ///< [frame][po]
  std::map<std::string, std::vector<sat::Var>> key_vars;
};

// Unroll `frames` copies of the combinational fabric inside the solver.
// Frame 0 starts from the all-zero state; frame f's state variables are
// frame f-1's D-pin variables. All frames share one key-variable set.
UnrolledCopy encode_unrolled(
    sat::Solver& solver, const Netlist& nl, int frames, bool symbolic_keys,
    const std::vector<std::vector<sat::Var>>* share_pis,
    const std::map<std::string, std::vector<sat::Var>>* share_keys) {
  UnrolledCopy copy;
  const std::size_t n_pi = nl.inputs().size();
  const std::size_t n_po = nl.outputs().size();
  const std::size_t n_ff = nl.dffs().size();

  std::vector<sat::Var> state(n_ff);
  for (std::size_t j = 0; j < n_ff; ++j) {
    state[j] = solver.new_var();
    solver.add_unit(sat::neg(state[j]));  // reset state
  }

  for (int f = 0; f < frames; ++f) {
    std::vector<sat::Var> inputs;
    inputs.reserve(n_pi + n_ff);
    std::vector<sat::Var> pis;
    if (share_pis) {
      pis = (*share_pis)[f];
    } else {
      for (std::size_t i = 0; i < n_pi; ++i) pis.push_back(solver.new_var());
    }
    inputs.insert(inputs.end(), pis.begin(), pis.end());
    inputs.insert(inputs.end(), state.begin(), state.end());

    EncodeOptions opt;
    opt.symbolic_keys = symbolic_keys;
    opt.share_inputs = &inputs;
    if (symbolic_keys) {
      if (f == 0) {
        opt.share_keys = share_keys;  // may be null: fresh keys
      } else {
        opt.share_keys = &copy.key_vars;
      }
    }
    const EncodedCircuit enc = encode_comb(solver, nl, opt);
    if (f == 0 && symbolic_keys) copy.key_vars = enc.key_vars;

    copy.pi_vars.push_back(std::move(pis));
    copy.po_vars.emplace_back(enc.output_vars.begin(),
                              enc.output_vars.begin() + n_po);
    state.assign(enc.output_vars.begin() + n_po, enc.output_vars.end());
  }
  return copy;
}

}  // namespace

SeqAttackResult run_sequential_sat_attack(const Netlist& hybrid,
                                          SequenceOracle& oracle,
                                          const SeqAttackOptions& opt) {
  SeqAttackResult result;
  const Timer timer;
  std::optional<obs::Span> root;
  if (opt.trace) root.emplace("attack", "seq_sat");
  result.span_id = root ? root->id() : 0;

  sat::Solver solver;
  const UnrolledCopy a =
      encode_unrolled(solver, hybrid, opt.frames, true, nullptr, nullptr);
  const UnrolledCopy b =
      encode_unrolled(solver, hybrid, opt.frames, true, &a.pi_vars, nullptr);
  if (a.key_vars.empty()) {
    throw std::invalid_argument("run_sequential_sat_attack: no LUTs");
  }

  // Miter over every frame's primary outputs.
  const sat::Var m = solver.new_var();
  std::vector<sat::Lit> any_diff{sat::neg(m)};
  for (int f = 0; f < opt.frames; ++f) {
    for (std::size_t o = 0; o < a.po_vars[f].size(); ++o) {
      const sat::Var d = solver.new_var();
      const sat::Var x = a.po_vars[f][o];
      const sat::Var y = b.po_vars[f][o];
      solver.add_ternary(sat::neg(d), sat::pos(x), sat::pos(y));
      solver.add_ternary(sat::neg(d), sat::neg(x), sat::neg(y));
      solver.add_ternary(sat::pos(d), sat::neg(x), sat::pos(y));
      solver.add_ternary(sat::pos(d), sat::pos(x), sat::neg(y));
      any_diff.push_back(sat::pos(d));
    }
  }
  solver.add_clause(any_diff);

  const sat::Lit assume_diff[] = {sat::pos(m)};
  const std::size_t n_pi = hybrid.inputs().size();

  while (true) {
    if (timer.seconds() > opt.time_limit_s) {
      result.outcome = attack::Outcome::kTimedOut;
      break;
    }
    if (result.iterations >= opt.max_iterations) {
      result.outcome = attack::Outcome::kBudgetExhausted;
      break;
    }
    solver.set_conflict_budget(opt.work_budget);
    const sat::Result r = solver.solve(assume_diff);
    if (r == sat::Result::kUnknown) {
      result.outcome = attack::Outcome::kBudgetExhausted;
      break;
    }
    if (r == sat::Result::kUnsat) {
      solver.set_conflict_budget(opt.work_budget);
      const sat::Result final_r = solver.solve();
      if (final_r != sat::Result::kSat) {
        result.outcome = final_r == sat::Result::kUnknown
                             ? attack::Outcome::kBudgetExhausted
                             : attack::Outcome::kAbandoned;
        break;
      }
      for (const auto& [name, vars] : a.key_vars) {
        std::uint64_t mask = 0;
        for (std::size_t row = 0; row < vars.size(); ++row) {
          if (solver.value(vars[row])) mask |= (1ull << row);
        }
        result.key[name] = mask;
      }
      result.outcome = attack::Outcome::kSolved;
      break;
    }

    // Distinguishing input *sequence*.
    ++result.iterations;
    STTLOCK_SPAN("sat-dip", "seq_dip");
    std::vector<std::vector<bool>> dis(opt.frames,
                                       std::vector<bool>(n_pi, false));
    for (int f = 0; f < opt.frames; ++f) {
      for (std::size_t i = 0; i < n_pi; ++i) {
        dis[f][i] = solver.value(a.pi_vars[f][i]);
      }
    }
    const auto responses = oracle.query(dis);

    // Constrain both key sets with the observed trace.
    for (const auto* copy : {&a, &b}) {
      const UnrolledCopy io = encode_unrolled(solver, hybrid, opt.frames,
                                              true, nullptr, &copy->key_vars);
      for (int f = 0; f < opt.frames; ++f) {
        for (std::size_t i = 0; i < n_pi; ++i) {
          solver.add_unit(dis[f][i] ? sat::pos(io.pi_vars[f][i])
                                    : sat::neg(io.pi_vars[f][i]));
        }
        for (std::size_t o = 0; o < io.po_vars[f].size(); ++o) {
          solver.add_unit(responses[f][o] ? sat::pos(io.po_vars[f][o])
                                          : sat::neg(io.po_vars[f][o]));
        }
      }
    }
  }

  result.queries = oracle.cycles();
  result.elapsed_s = timer.seconds();
  return result;
}

SeqAttackResult run_sequential_sat_attack(const Netlist& hybrid,
                                          const Netlist& configured,
                                          const SeqAttackOptions& opt) {
  SequenceOracle oracle(configured);
  return run_sequential_sat_attack(hybrid, oracle, opt);
}

}  // namespace stt
