#include "attack/ml_attack.hpp"

#include <bit>
#include <cmath>
#include <optional>

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

  Netlist work = hybrid;
  std::vector<CellId> luts;
  std::vector<std::vector<std::uint64_t>> candidates;
  for (CellId id = 0; id < work.size(); ++id) {
    const Cell& c = work.cell(id);
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

  // Training signature: random scan patterns and oracle responses, packed
  // 64 per word.
  const std::size_t n_pi = work.inputs().size();
  const std::size_t n_ff = work.dffs().size();
  const int n_words = (opt.training_patterns + 63) / 64;
  std::vector<std::vector<std::uint64_t>> pi_words(
      n_words, std::vector<std::uint64_t>(n_pi, 0));
  std::vector<std::vector<std::uint64_t>> ff_words(
      n_words, std::vector<std::uint64_t>(n_ff, 0));
  const std::size_t n_out = oracle.num_outputs();
  std::vector<std::vector<std::uint64_t>> expected(
      n_words, std::vector<std::uint64_t>(n_out, 0));
  // One word-batched oracle call per 64 training patterns (bit draw order
  // matches the seed's pattern-at-a-time loop for reproducibility).
  const std::uint64_t start_queries = oracle.queries();
  std::vector<std::uint64_t> scan_in(n_pi + n_ff);
  for (int w = 0; w < n_words; ++w) {
    for (auto& word : scan_in) word = 0;
    for (int b = 0; b < 64; ++b) {
      for (std::size_t i = 0; i < scan_in.size(); ++i) {
        if (rng.chance(0.5)) scan_in[i] |= (1ull << b);
      }
    }
    for (std::size_t i = 0; i < n_pi; ++i) pi_words[w][i] = scan_in[i];
    for (std::size_t j = 0; j < n_ff; ++j) {
      ff_words[w][j] = scan_in[n_pi + j];
    }
    oracle.query_word(scan_in, expected[w]);
  }

  // Scoring runs on the compiled engine with in-place mask patches and a
  // reused scratch wave: zero allocations per annealing step. The whole
  // training signature is scored in one eval_batch over the blocked
  // layout; the engine runs whole SIMD lanes and finishes any misaligned
  // tail with the scalar kernel, so the score — and the sim.words
  // accounting — stay identical to the seed's word-at-a-time loop under
  // every ISA.
  CompiledSim sim(work);
  const std::size_t n_w = static_cast<std::size_t>(n_words);
  const std::size_t W = n_w;
  std::vector<std::uint64_t> pi_blk(n_pi * W), ff_blk(n_ff * W);
  for (std::size_t w = 0; w < W; ++w) {
    for (std::size_t i = 0; i < n_pi; ++i) pi_blk[i * W + w] = pi_words[w][i];
    for (std::size_t j = 0; j < n_ff; ++j) ff_blk[j * W + w] = ff_words[w][j];
  }
  std::vector<std::uint64_t> wave(sim.wave_size() * W);
  const auto po_cells = sim.output_cells();
  const auto ns_cells = sim.next_state_cells();
  const auto set_mask = [&](CellId id, std::uint64_t mask) {
    work.cell(id).lut_mask = mask;
    sim.set_lut_mask(id, mask);
  };
  const auto total_bits =
      static_cast<double>(n_words) * 64.0 * static_cast<double>(n_out);
  auto score = [&]() -> long long {
    if (W == 0) return 0;
    sim.eval_batch(W, pi_blk, ff_blk, wave);
    long long mismatches = 0;
    for (std::size_t w = 0; w < n_w; ++w) {
      for (std::size_t o = 0; o < po_cells.size(); ++o) {
        mismatches += std::popcount(wave[po_cells[o] * W + w] ^ expected[w][o]);
      }
      for (std::size_t j = 0; j < ns_cells.size(); ++j) {
        mismatches += std::popcount(wave[ns_cells[j] * W + w] ^
                                    expected[w][po_cells.size() + j]);
      }
    }
    return mismatches;
  };

  // Random initial guess.
  for (std::size_t i = 0; i < luts.size(); ++i) {
    const int k = work.cell(luts[i]).fanin_count();
    if (!candidates[i].empty()) {
      set_mask(luts[i], rng.pick(candidates[i]));
    } else {
      set_mask(luts[i], rng() & full_mask(k));
    }
  }

  long long current = score();
  long long best = current;
  LutKey best_key = extract_key(work);
  double temperature = opt.initial_temperature;

  bool hit_time_limit = false;
  for (std::int64_t step = 0; step < opt.work_budget && best > 0; ++step) {
    if ((step & 255) == 0 && timer.seconds() >= opt.time_limit_s) {
      hit_time_limit = true;
      break;
    }
    ++result.steps;
    const std::size_t pick = rng.below(luts.size());
    const Cell& c = work.cell(luts[pick]);
    const std::uint64_t old_mask = c.lut_mask;
    if (!candidates[pick].empty()) {
      set_mask(luts[pick], rng.pick(candidates[pick]));
    } else {
      set_mask(luts[pick],
               old_mask ^ (1ull << rng.below(num_rows(c.fanin_count()))));
    }
    const long long trial = score();
    const long long delta = trial - current;
    if (delta <= 0 ||
        rng.uniform() < std::exp(-static_cast<double>(delta) /
                                 std::max(1e-9, temperature))) {
      current = trial;
      if (current < best) {
        best = current;
        best_key = extract_key(work);
      }
    } else {
      set_mask(luts[pick], old_mask);  // reject
    }
    temperature *= opt.cooling;
  }

  result.key = std::move(best_key);
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
