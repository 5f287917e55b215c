#include "attack/dpa.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "core/similarity.hpp"
#include "obs/obs.hpp"
#include "sim/compiled.hpp"
#include "util/timer.hpp"

namespace stt {

namespace {

double pearson(const std::vector<double>& x, const std::vector<double>& y) {
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0;
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / n;
  const double my = sy / n;
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx <= 0 || syy <= 0) return 0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace

DpaResult run_dpa_attack(const Netlist& nl, CellId target,
                         std::uint64_t truth_mask,
                         const PowerTraceResult& measurement,
                         const DpaOptions& opt) {
  const Cell& tc = nl.cell(target);
  const int k = tc.fanin_count();
  std::vector<std::uint64_t> candidates = opt.candidates;
  if (candidates.empty()) {
    candidates = k >= 2 ? standard_candidate_masks(k)
                        : std::vector<std::uint64_t>{0b10ull, 0b01ull};
  }
  if (measurement.trace_fj.size() < 3) {
    throw std::invalid_argument("run_dpa_attack: trace too short");
  }

  // Measured samples, skipping cycle 0 (no toggle information yet).
  std::vector<double> measured(measurement.trace_fj.begin() + 1,
                               measurement.trace_fj.end());

  DpaResult result;
  const Timer timer;
  std::optional<obs::Span> root;
  if (opt.trace) root.emplace("attack", "dpa");
  result.span_id = root ? root->id() : 0;
  result.best_correlation = -2;
  result.runner_up_correlation = -2;

  // A standard-gate target is remasked through LUT semantics, in a copy;
  // a LUT target is simulated from `nl` itself.
  std::optional<Netlist> remasked;
  if (tc.kind != CellKind::kLut) {
    remasked.emplace(nl);
    remasked->replace_with_lut(target);
  }
  CompiledSim sim(remasked ? *remasked : nl);

  // The recorded stimulus and state are already packed as eval_batch
  // reads them (lane b of word w is cycle w*64+b). One full evaluation
  // fills the wave; a candidate is then an O(1) mask patch plus a
  // re-evaluation of the target's fan-out cone, which leaves the wave what
  // a full evaluation under that candidate would give. The target's row is
  // then walked serially to chain the toggle indicator.
  const std::size_t n_cycles = measurement.pi.patterns();
  const std::size_t W = measurement.pi.words();
  std::vector<std::uint64_t> wave(sim.wave_size() * W);
  sim.eval_batch(W, measurement.pi.data(), measurement.state.data(), wave);
  const CompiledSim::Cone cone = sim.cone_of(target);
  std::vector<double> prediction;
  for (const std::uint64_t candidate : candidates) {
    sim.set_lut_mask(target, candidate & full_mask(k));
    sim.eval_cone(W, cone, wave);

    // Predict the target's output-toggle indicator per cycle from the
    // recorded stimulus and state.
    prediction.clear();
    prediction.reserve(measured.size());
    bool prev_out = false;
    for (std::size_t w = 0; w < W; ++w) {
      const std::uint64_t target_word = wave[target * W + w];
      const std::size_t lanes = std::min<std::size_t>(64, n_cycles - w * 64);
      for (std::size_t b = 0; b < lanes; ++b) {
        const bool out = (target_word >> b) & 1ull;
        if (w * 64 + b >= 1) prediction.push_back(out != prev_out ? 1.0 : 0.0);
        prev_out = out;
      }
    }

    const double corr = pearson(prediction, measured);
    result.ranking.emplace_back(candidate, corr);
  }

  std::sort(result.ranking.begin(), result.ranking.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  result.best_mask = result.ranking.front().first;
  result.best_correlation = result.ranking.front().second;
  const std::uint64_t complement = (~result.best_mask) & full_mask(k);
  result.runner_up_correlation = result.best_correlation;
  for (const auto& [mask, corr] : result.ranking) {
    if (mask != result.best_mask && mask != complement) {
      result.runner_up_correlation = corr;
      break;
    }
  }
  const std::uint64_t truth = truth_mask & full_mask(k);
  result.identified_true_mask = (result.best_mask == truth);
  result.identified_up_to_complement =
      result.identified_true_mask || (complement == truth);
  result.outcome = result.identified_true_mask ? attack::Outcome::kSolved
                                               : attack::Outcome::kAbandoned;
  result.key[std::string(tc.name)] = result.best_mask;
  result.queries = measurement.trace_fj.size();  // measured cycles consumed
  result.elapsed_s = timer.seconds();
  return result;
}

}  // namespace stt
