#include "power/trace.hpp"

#include <cmath>

#include "sim/compiled.hpp"

namespace stt {

namespace {

double gaussian(Rng& rng, double sigma) {
  if (sigma <= 0) return 0;
  const double u1 = std::max(rng.uniform(), 1e-12);
  const double u2 = rng.uniform();
  return sigma * std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * M_PI * u2);
}

}  // namespace

PowerTraceResult simulate_power_trace(const Netlist& nl,
                                      const TechLibrary& lib,
                                      const TraceOptions& opt) {
  Rng rng(opt.seed ^ 0x70a3c3a11ull);
  Rng noise_rng = rng.split();  // keep stimulus independent of noise draws
  PowerTraceResult result;
  result.trace_fj.reserve(opt.cycles);
  result.pi_bits.reserve(opt.cycles);
  result.state_bits.reserve(opt.cycles);

  // Precompute per-cell toggle energies.
  std::vector<double> toggle_energy(nl.size(), 0.0);
  std::vector<double> lut_read_energy(nl.size(), 0.0);
  double leak_baseline = 0;
  for (CellId id = 0; id < nl.size(); ++id) {
    const Cell& c = nl.cell(id);
    switch (c.kind) {
      case CellKind::kInput:
      case CellKind::kConst0:
      case CellKind::kConst1:
        break;
      case CellKind::kLut: {
        const LutParams p = lib.lut(c.fanin_count());
        lut_read_energy[id] = p.e_cycle_fj;  // per input-transition event
        leak_baseline += p.leak_nw * 1e-3;
        break;
      }
      case CellKind::kDff: {
        const CmosCellParams p = lib.gate(CellKind::kDff, 1);
        toggle_energy[id] = p.e_active_fj;
        leak_baseline += p.leak_nw * 1e-3;
        break;
      }
      default: {
        const CmosCellParams p = lib.gate(c.kind, c.fanin_count());
        toggle_energy[id] = p.e_active_fj;
        leak_baseline += p.leak_nw * 1e-3;
        break;
      }
    }
  }

  const CompiledSim sim(nl);
  const std::size_t n_pi = nl.inputs().size();
  std::vector<std::uint64_t> pi(n_pi, 0);
  std::vector<std::uint64_t> sim_state(nl.dffs().size(), 0);
  std::vector<std::uint64_t> wave(nl.size());
  std::vector<std::uint64_t> prev_wave;

  for (int cycle = 0; cycle < opt.cycles; ++cycle) {
    // Record state *before* the cycle, then apply a new PI vector.
    std::vector<bool> state(nl.dffs().size());
    for (std::size_t j = 0; j < state.size(); ++j) {
      state[j] = sim_state[j] & 1ull;
    }
    for (auto& w : pi) {
      if (rng.chance(opt.input_toggle)) w ^= 1ull;
    }
    std::vector<bool> pi_vec(n_pi);
    for (std::size_t i = 0; i < n_pi; ++i) pi_vec[i] = pi[i] & 1ull;

    sim.step(pi, sim_state, wave);

    double energy = leak_baseline;
    if (!prev_wave.empty()) {
      for (CellId id = 0; id < nl.size(); ++id) {
        const Cell& c = nl.cell(id);
        const bool now = wave[id] & 1ull;
        const bool before = prev_wave[id] & 1ull;
        if (c.kind == CellKind::kLut) {
          // Read event on any input transition; content-independent.
          bool input_event = false;
          for (const CellId f : c.fanins) {
            if ((wave[f] & 1ull) != (prev_wave[f] & 1ull)) input_event = true;
          }
          if (input_event) energy += lut_read_energy[id];
        } else if (now != before) {
          energy += toggle_energy[id];
        }
        if (c.kind == CellKind::kDff) {
          energy += 0.3 * toggle_energy[id];  // clock pin, every cycle
        }
      }
    }
    energy += gaussian(noise_rng, opt.noise_sigma_fj);

    result.trace_fj.push_back(energy);
    result.pi_bits.push_back(std::move(pi_vec));
    result.state_bits.push_back(std::move(state));
    prev_wave.assign(wave.begin(), wave.end());
  }
  return result;
}

}  // namespace stt
