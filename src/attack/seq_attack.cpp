#include "attack/seq_attack.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"

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

SeqAttackResult run_sequential_sat_attack(const Netlist& hybrid,
                                          SequenceOracle& oracle,
                                          const SeqAttackOptions& opt) {
  if (opt.frames < 1) {
    throw std::invalid_argument(
        "run_sequential_sat_attack: frames must be >= 1, got " +
        std::to_string(opt.frames));
  }
  std::optional<obs::Span> root;
  if (opt.trace) root.emplace("attack", "seq_sat");
  const std::uint64_t cycles_before = oracle.cycles();
  const std::size_t n_pi = hybrid.inputs().size();
  // A distinguishing sequence arrives as the frames' PI vectors back to
  // back; the response goes back the same way.
  const auto query = [&](const std::vector<bool>& dis) {
    std::vector<std::vector<bool>> pi_seq(opt.frames);
    for (std::size_t f = 0; f < pi_seq.size(); ++f) {
      pi_seq[f].assign(dis.begin() + f * n_pi, dis.begin() + (f + 1) * n_pi);
    }
    std::vector<bool> response;
    for (const std::vector<bool>& po : oracle.query(pi_seq)) {
      response.insert(response.end(), po.begin(), po.end());
    }
    return response;
  };
  SeqAttackResult result =
      run_dip_loop(hybrid, opt.frames, query, opt, opt.max_iterations);
  result.queries = oracle.cycles() - cycles_before;
  result.span_id = root ? root->id() : 0;
  return result;
}

SeqAttackResult run_sequential_sat_attack(const Netlist& hybrid,
                                          const Netlist& configured,
                                          const SeqAttackOptions& opt) {
  SequenceOracle oracle(configured);
  return run_sequential_sat_attack(hybrid, oracle, opt);
}

}  // namespace stt
