#include "attack/brute_force.hpp"

#include <optional>
#include <span>
#include <stdexcept>

#include "core/similarity.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace stt {

BruteForceResult run_brute_force(const Netlist& hybrid, ScanOracle& oracle,
                                 const BruteForceOptions& opt) {
  BruteForceResult result;
  const Timer timer;
  std::optional<obs::Span> root;
  if (opt.trace) root.emplace("attack", "brute_force");
  result.span_id = root ? root->id() : 0;
  Rng rng(opt.seed);

  Netlist work = hybrid;
  std::vector<CellId> lut_ids;
  std::vector<std::vector<std::uint64_t>> candidates;
  result.search_space = BigNum::from_double(1.0);
  for (CellId id = 0; id < work.size(); ++id) {
    const Cell& c = work.cell(id);
    if (c.kind != CellKind::kLut) continue;
    lut_ids.push_back(id);
    std::vector<std::uint64_t> cand;
    const int k = c.fanin_count();
    if (k == 2 && opt.candidates_2in) {
      cand = *opt.candidates_2in;
    } else if (!opt.standard_candidates_only) {
      if (k > 4) {
        // 2^32+ candidate functions per LUT: enumeration is meaningless
        // (and 1 << 2^k would overflow). The caller wanted the impossible.
        throw std::invalid_argument(
            "run_brute_force: full function space limited to fan-in <= 4");
      }
      const std::uint64_t n = 1ull << num_rows(k);
      for (std::uint64_t m = 0; m < n; ++m) cand.push_back(m);
    } else if (k == 1) {
      cand = {0b10ull /* BUF */, 0b01ull /* NOT */};
    } else {
      cand = standard_candidate_masks(k);
    }
    result.search_space *=
        BigNum::from_double(static_cast<double>(cand.size()));
    candidates.push_back(std::move(cand));
  }
  if (lut_ids.empty()) {
    result.outcome = attack::Outcome::kSolved;
    result.elapsed_s = timer.seconds();
    return result;
  }

  // Screening set: random scan patterns and the chip's responses, packed
  // 64 per word for parallel candidate evaluation.
  const std::size_t n_pi = work.inputs().size();
  const std::size_t n_ff = work.dffs().size();
  const int n_words = (opt.screening_patterns + 63) / 64;
  std::vector<std::vector<std::uint64_t>> pi_words(
      static_cast<std::size_t>(n_words),
      std::vector<std::uint64_t>(n_pi, 0));
  std::vector<std::vector<std::uint64_t>> ff_words(
      static_cast<std::size_t>(n_words),
      std::vector<std::uint64_t>(n_ff, 0));
  const std::size_t n_out = oracle.num_outputs();
  std::vector<std::vector<std::uint64_t>> expected(
      static_cast<std::size_t>(n_words),
      std::vector<std::uint64_t>(n_out, 0));

  // One word-batched oracle call per 64 patterns (bit draw order matches the
  // seed's pattern-at-a-time loop, so results are reproducible across PRs).
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

  // Candidate screening runs on the compiled engine: lower once, patch the
  // candidate masks in place, evaluate into a reused scratch wave. Words
  // are screened one SIMD lane per pass (chunked eval_batch with the
  // blocked layout), so a wrong candidate still fails fast — at lane
  // granularity — while every evaluated lane is full-width. The last
  // chunk keeps its true width (the engine finishes misaligned tails with
  // the scalar kernel), so the verdict and the sim.words accounting are
  // identical to the seed's word-at-a-time loop under every ISA.
  CompiledSim sim(work);
  const std::size_t chunk =
      std::max<std::size_t>(std::size_t{1}, CompiledSim::lane_words());
  const std::size_t n_chunks =
      n_words > 0 ? (static_cast<std::size_t>(n_words) + chunk - 1) / chunk
                  : 0;
  const auto chunk_width = [&](std::size_t c) {
    return std::min(chunk, static_cast<std::size_t>(n_words) - c * chunk);
  };
  std::vector<std::vector<std::uint64_t>> pi_blk(n_chunks);
  std::vector<std::vector<std::uint64_t>> ff_blk(n_chunks);
  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::size_t cw = chunk_width(c);
    pi_blk[c].resize(n_pi * cw);
    ff_blk[c].resize(n_ff * cw);
    for (std::size_t w = 0; w < cw; ++w) {
      const std::size_t src = c * chunk + w;
      for (std::size_t i = 0; i < n_pi; ++i) {
        pi_blk[c][i * cw + w] = pi_words[src][i];
      }
      for (std::size_t j = 0; j < n_ff; ++j) {
        ff_blk[c][j * cw + w] = ff_words[src][j];
      }
    }
  }
  std::vector<std::uint64_t> wave(sim.wave_size() * chunk);
  std::vector<std::size_t> odometer(lut_ids.size(), 0);
  auto install = [&] {
    for (std::size_t i = 0; i < lut_ids.size(); ++i) {
      work.cell(lut_ids[i]).lut_mask = candidates[i][odometer[i]];
      sim.set_lut_mask(lut_ids[i], candidates[i][odometer[i]]);
    }
  };
  const auto po_cells = sim.output_cells();
  const auto ns_cells = sim.next_state_cells();
  auto matches = [&] {
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const std::size_t cw = chunk_width(c);
      sim.eval_batch(cw, pi_blk[c], ff_blk[c],
                     std::span(wave.data(), sim.wave_size() * cw));
      const std::size_t base = c * chunk;
      for (std::size_t w = 0; w < cw; ++w) {
        const auto& exp = expected[base + w];
        for (std::size_t o = 0; o < po_cells.size(); ++o) {
          if (wave[po_cells[o] * cw + w] != exp[o]) return false;
        }
        for (std::size_t j = 0; j < ns_cells.size(); ++j) {
          if (wave[ns_cells[j] * cw + w] != exp[po_cells.size() + j]) {
            return false;
          }
        }
      }
    }
    return true;
  };

  while (true) {
    if (result.combinations_tried >=
        static_cast<std::uint64_t>(opt.work_budget)) {
      result.outcome = attack::Outcome::kBudgetExhausted;
      break;
    }
    // Wall-clock check every 1024 combinations: cheap relative to an
    // evaluation, tight enough that overshoot is bounded.
    if ((result.combinations_tried & 1023u) == 0 &&
        timer.seconds() >= opt.time_limit_s) {
      result.outcome = attack::Outcome::kTimedOut;
      break;
    }
    install();
    ++result.combinations_tried;
    if (matches()) {
      result.outcome = attack::Outcome::kSolved;
      for (const CellId id : lut_ids) {
        result.key[std::string(work.cell(id).name)] = work.cell(id).lut_mask;
      }
      break;
    }
    // Advance the odometer.
    std::size_t pos = 0;
    while (pos < odometer.size()) {
      if (++odometer[pos] < candidates[pos].size()) break;
      odometer[pos] = 0;
      ++pos;
    }
    if (pos == odometer.size()) {
      result.outcome = attack::Outcome::kAbandoned;  // space exhausted
      break;
    }
  }

  result.queries = oracle.queries() - start_queries;
  result.elapsed_s = timer.seconds();
  return result;
}

}  // namespace stt
