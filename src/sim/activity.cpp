#include "sim/activity.hpp"

#include <bit>

#include "sim/compiled.hpp"

namespace stt {

ActivityResult estimate_activity(const Netlist& nl, Rng& rng,
                                 const ActivityOptions& opt) {
  const CompiledSim sim(nl);
  const auto n_pi = nl.inputs().size();

  std::vector<std::uint64_t> pi(n_pi, 0);
  for (auto& w : pi) w = rng();

  std::vector<std::uint64_t> state(nl.dffs().size(), 0);
  std::vector<std::uint64_t> wave(nl.size());
  std::vector<std::uint64_t> prev_wave;
  std::vector<std::uint64_t> toggles(nl.size(), 0);

  const int total = opt.warmup + opt.cycles;
  for (int cycle = 0; cycle < total; ++cycle) {
    // Toggle each PI bit-lane independently with the configured probability.
    for (auto& w : pi) {
      std::uint64_t flip = 0;
      for (int b = 0; b < 64; ++b) {
        if (rng.chance(opt.input_toggle)) flip |= (1ull << b);
      }
      w ^= flip;
    }
    sim.step(pi, state, wave);
    if (cycle >= opt.warmup && !prev_wave.empty()) {
      for (std::size_t id = 0; id < wave.size(); ++id) {
        toggles[id] += std::popcount(wave[id] ^ prev_wave[id]);
      }
    }
    prev_wave.assign(wave.begin(), wave.end());
  }

  ActivityResult result;
  result.alpha.resize(nl.size(), 0.0);
  const double denom = 64.0 * std::max(1, opt.cycles - 1);
  double sum = 0.0;
  std::size_t n_logic = 0;
  for (CellId id = 0; id < nl.size(); ++id) {
    result.alpha[id] = static_cast<double>(toggles[id]) / denom;
    const CellKind kind = nl.cell(id).kind;
    if (is_combinational(kind) && kind != CellKind::kConst0 &&
        kind != CellKind::kConst1) {
      sum += result.alpha[id];
      ++n_logic;
    }
  }
  result.average = n_logic ? sum / static_cast<double>(n_logic) : 0.0;
  return result;
}

}  // namespace stt
