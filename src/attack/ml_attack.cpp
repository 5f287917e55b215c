#include "attack/ml_attack.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <span>
#include <vector>

#include "core/similarity.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace stt {

MlAttackResult run_ml_attack(const Netlist& hybrid, ScanOracle& oracle,
                             const MlAttackOptions& opt) {
  MlAttackResult result;
  const Timer timer;
  std::optional<obs::Span> root;
  if (opt.trace) root.emplace("attack", "ml");
  result.span_id = root ? root->id() : 0;
  Rng rng(opt.seed);

  std::vector<CellId> luts;
  std::vector<std::vector<std::uint64_t>> candidates;
  for (CellId id = 0; id < hybrid.size(); ++id) {
    const Cell& c = hybrid.cell(id);
    if (c.kind != CellKind::kLut) continue;
    luts.push_back(id);
    if (opt.standard_candidates_only && c.fanin_count() >= 2) {
      candidates.push_back(standard_candidate_masks(c.fanin_count()));
    } else if (opt.standard_candidates_only) {
      candidates.push_back({0b10ull, 0b01ull});
    } else {
      candidates.push_back({});  // bit-flip moves instead
    }
  }
  if (luts.empty()) {
    result.outcome = attack::Outcome::kSolved;
    result.elapsed_s = timer.seconds();
    return result;
  }

  // Training signature: random scan patterns and oracle responses, 64 per
  // word, kept in the engine's blocked layout (W words per row). Response
  // column r is output r, then next state r - num_outputs, as the oracle
  // returns them and as CompiledSim::Cone::Response numbers them.
  const std::size_t n_pi = hybrid.inputs().size();
  const std::size_t n_ff = hybrid.dffs().size();
  const std::size_t n_out = oracle.num_outputs();
  const int n_words = (opt.training_patterns + 63) / 64;
  const auto W = static_cast<std::size_t>(std::max(0, n_words));
  std::vector<std::uint64_t> pi_blk(n_pi * W), ff_blk(n_ff * W);
  std::vector<std::uint64_t> expected(n_out * W);
  // One word-batched oracle call per 64 training patterns (bit draw order
  // matches the seed's pattern-at-a-time loop for reproducibility).
  const std::uint64_t start_queries = oracle.queries();
  std::vector<std::uint64_t> scan_in(n_pi + n_ff), response(n_out);
  for (std::size_t w = 0; w < W; ++w) {
    for (auto& word : scan_in) word = 0;
    for (int b = 0; b < 64; ++b) {
      for (std::size_t i = 0; i < scan_in.size(); ++i) {
        if (rng.chance(0.5)) scan_in[i] |= (1ull << b);
      }
    }
    for (std::size_t i = 0; i < n_pi; ++i) pi_blk[i * W + w] = scan_in[i];
    for (std::size_t j = 0; j < n_ff; ++j) {
      ff_blk[j * W + w] = scan_in[n_pi + j];
    }
    oracle.query_word(scan_in, response);
    for (std::size_t r = 0; r < n_out; ++r) expected[r * W + w] = response[r];
  }

  // Scoring runs on the compiled engine with in-place mask patches. The
  // wave always holds the full evaluation of the training signature under
  // the current configuration: a move patches one LUT, so only that LUT's
  // fan-out cone is re-run (eval_cone), and only the responses inside the
  // cone can change their mismatch count. A rejected move restores the
  // cone's saved rows. Each step still counts one W-word batch in
  // sim.words, and the score is exactly the whole-signature mismatch
  // count under every ISA.
  using Response = CompiledSim::Cone::Response;
  CompiledSim sim(hybrid);
  std::vector<std::uint64_t> wave(sim.wave_size() * W);
  const auto mismatches = [&](std::span<const Response> responses) {
    long long n = 0;
    for (const Response& r : responses) {
      const std::uint64_t* got = wave.data() + r.row * W;
      const std::uint64_t* want = expected.data() + r.column * W;
      for (std::size_t w = 0; w < W; ++w) n += std::popcount(got[w] ^ want[w]);
    }
    return n;
  };
  const std::vector<Response> all_responses = sim.responses();
  std::vector<CompiledSim::Cone> cones;
  cones.reserve(luts.size());
  std::size_t max_cone = 0;
  for (const CellId id : luts) {
    cones.push_back(sim.cone_of(id));
    max_cone = std::max(max_cone, cones.back().cells().size());
  }
  std::vector<std::uint64_t> saved(max_cone * W);

  std::vector<std::uint64_t> masks(luts.size());
  const auto set_mask = [&](std::size_t i, std::uint64_t mask) {
    masks[i] = mask;
    sim.set_lut_mask(luts[i], mask);
  };
  const auto total_bits =
      static_cast<double>(W) * 64.0 * static_cast<double>(n_out);

  // Random initial guess.
  for (std::size_t i = 0; i < luts.size(); ++i) {
    if (!candidates[i].empty()) {
      set_mask(i, rng.pick(candidates[i]));
    } else {
      set_mask(i, rng() & full_mask(hybrid.cell(luts[i]).fanin_count()));
    }
  }

  sim.eval_batch(W, pi_blk, ff_blk, wave);
  long long current = mismatches(all_responses);
  long long best = current;
  std::vector<std::uint64_t> best_masks = masks;
  double temperature = opt.initial_temperature;

  bool hit_time_limit = false;
  for (std::int64_t step = 0; step < opt.work_budget && best > 0; ++step) {
    if ((step & 255) == 0 && timer.seconds() >= opt.time_limit_s) {
      hit_time_limit = true;
      break;
    }
    ++result.steps;
    const std::size_t pick = rng.below(luts.size());
    const std::uint64_t old_mask = masks[pick];
    if (!candidates[pick].empty()) {
      set_mask(pick, rng.pick(candidates[pick]));
    } else {
      const int k = hybrid.cell(luts[pick]).fanin_count();
      set_mask(pick, old_mask ^ (1ull << rng.below(num_rows(k))));
    }
    const CompiledSim::Cone& cone = cones[pick];
    const auto cells = cone.cells();
    for (std::size_t c = 0; c < cells.size(); ++c) {
      std::copy_n(wave.data() + cells[c] * W, W, saved.data() + c * W);
    }
    const long long before = mismatches(cone.responses());
    sim.eval_cone(W, cone, wave);
    const long long trial = current - before + mismatches(cone.responses());
    const long long delta = trial - current;
    if (delta <= 0 ||
        rng.uniform() < std::exp(-static_cast<double>(delta) /
                                 std::max(1e-9, temperature))) {
      current = trial;
      if (current < best) {
        best = current;
        best_masks = masks;
      }
    } else {
      set_mask(pick, old_mask);  // reject
      for (std::size_t c = 0; c < cells.size(); ++c) {
        std::copy_n(saved.data() + c * W, W, wave.data() + cells[c] * W);
      }
    }
    temperature *= opt.cooling;
  }

  for (std::size_t i = 0; i < luts.size(); ++i) {
    result.key[std::string(hybrid.cell(luts[i]).name)] = best_masks[i];
  }
  result.final_accuracy = 1.0 - static_cast<double>(best) / total_bits;
  if (best == 0) {
    result.outcome = attack::Outcome::kSolved;
  } else if (hit_time_limit) {
    result.outcome = attack::Outcome::kTimedOut;
  } else {
    result.outcome = attack::Outcome::kBudgetExhausted;  // steps exhausted
  }
  result.queries = oracle.queries() - start_queries;
  result.elapsed_s = timer.seconds();
  return result;
}

}  // namespace stt
