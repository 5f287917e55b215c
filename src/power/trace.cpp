#include "power/trace.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "obs/obs.hpp"
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
  STTLOCK_SPAN("power", "trace");
  Rng rng(opt.seed ^ 0x70a3c3a11ull);
  Rng noise_rng = rng.split();  // keep stimulus independent of noise draws
  const std::size_t n_cycles =
      static_cast<std::size_t>(std::max(opt.cycles, 0));

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
  const std::size_t n_pi = sim.num_inputs();
  const std::size_t n_ff = sim.num_dffs();
  PowerTraceResult result;
  result.pi = PackedRows(n_pi, n_cycles);
  result.state = PackedRows(n_ff, n_cycles);

  // The stimulus: each cycle toggles each PI with probability
  // input_toggle, drawn cycle by cycle in PI order.
  {
    std::vector<char> level(n_pi, 0);
    for (std::size_t t = 0; t < n_cycles; ++t) {
      for (std::size_t i = 0; i < n_pi; ++i) {
        if (rng.chance(opt.input_toggle)) level[i] ^= 1;
        if (level[i]) result.pi.set(i, t);
      }
    }
  }

  // The state trajectory, one cycle at a time over the D-pin fan-in cone.
  // Lane 0 carries the trajectory; the other lanes are never read.
  {
    const CompiledSim::Cone cone = sim.next_state_cone();
    std::vector<std::uint64_t> pi(n_pi), state(n_ff, 0);
    std::vector<std::uint64_t> wave(sim.wave_size());
    for (std::size_t t = 0; t < n_cycles; ++t) {
      for (std::size_t j = 0; j < n_ff; ++j) {
        if (state[j] & 1ull) result.state.set(j, t);
      }
      for (std::size_t i = 0; i < n_pi; ++i) pi[i] = result.pi.bit(i, t);
      sim.step(cone, pi, state, wave);
    }
  }

  // Every cell over every cycle in one batch, 64 cycles per word. Cycle 0
  // has no predecessor and draws leakage only. Within a cycle, terms are
  // added in ascending cell id, a flip-flop's clock term right after its
  // data toggle, and the noise last.
  const std::size_t W = result.pi.words();
  if (W == 0) return result;
  std::vector<double> energy(n_cycles, leak_baseline);
  std::vector<std::uint64_t> wave(sim.wave_size() * W);
  sim.eval_batch(W, result.pi.data(), result.state.data(), wave);
  const std::uint64_t last_mask =
      n_cycles % 64 == 0 ? ~0ull : (1ull << (n_cycles % 64)) - 1;
  // Bit t of a row's toggle words: the row changed from cycle t-1 to t.
  const auto row_toggles = [&](CellId r, std::uint64_t* out) {
    const std::uint64_t* v = wave.data() + r * W;
    std::uint64_t prev = v[0] & 1ull;
    for (std::size_t w = 0; w < W; ++w) {
      out[w] = v[w] ^ ((v[w] << 1) | prev);
      prev = v[w] >> 63;
    }
    out[W - 1] &= last_mask;
  };
  const auto add = [&](const std::uint64_t* ev, double e) {
    for (std::size_t w = 0; w < W; ++w) {
      for (std::uint64_t bits = ev[w]; bits != 0; bits &= bits - 1) {
        energy[w * 64 + std::countr_zero(bits)] += e;
      }
    }
  };
  std::vector<std::uint64_t> events(W), toggles(W);
  for (CellId id = 0; id < nl.size(); ++id) {
    const Cell& c = nl.cell(id);
    if (c.kind == CellKind::kLut) {
      // Read event on any input transition; content-independent.
      std::fill(events.begin(), events.end(), 0);
      for (const CellId f : c.fanins) {
        row_toggles(f, toggles.data());
        for (std::size_t w = 0; w < W; ++w) events[w] |= toggles[w];
      }
      add(events.data(), lut_read_energy[id]);
    } else if (toggle_energy[id] != 0) {
      row_toggles(id, events.data());
      add(events.data(), toggle_energy[id]);
    }
    if (c.kind == CellKind::kDff) {
      const double clock = 0.3 * toggle_energy[id];  // clock pin
      for (std::size_t t = 1; t < n_cycles; ++t) energy[t] += clock;
    }
  }
  for (double& e : energy) e += gaussian(noise_rng, opt.noise_sigma_fj);
  result.trace_fj = std::move(energy);
  return result;
}

}  // namespace stt
