#include "attack/brute_force.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

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

  std::vector<CellId> lut_ids;
  std::vector<std::vector<std::uint64_t>> candidates;
  result.search_space = BigNum::from_double(1.0);
  for (CellId id = 0; id < hybrid.size(); ++id) {
    const Cell& c = hybrid.cell(id);
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

  // Screening set: random scan patterns and the chip's responses, 64 per
  // word, split into chunks of one SIMD lane of words so a wrong candidate
  // still fails fast — at lane granularity — while every evaluated lane is
  // full-width. The last chunk keeps its true width (the engine finishes
  // misaligned tails with the scalar kernel). Each chunk holds its words
  // in the engine's blocked layout; response column r is output r, then
  // next state r - num_outputs, as CompiledSim::Cone::Response numbers
  // them.
  struct Chunk {
    std::size_t width = 0;
    std::vector<std::uint64_t> pi, ff, expected, wave;
    std::uint64_t seen = 0;  ///< combination last evaluated under; 0 = never
    std::uint64_t bad = 0;   ///< response words that mismatch in `wave`
  };
  const std::size_t n_pi = hybrid.inputs().size();
  const std::size_t n_ff = hybrid.dffs().size();
  const std::size_t n_out = oracle.num_outputs();
  const auto n_words = static_cast<std::size_t>(
      std::max(0, (opt.screening_patterns + 63) / 64));
  const std::size_t chunk =
      std::max<std::size_t>(std::size_t{1}, CompiledSim::lane_words());
  CompiledSim sim(hybrid);
  std::vector<Chunk> chunks((n_words + chunk - 1) / chunk);
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    Chunk& ch = chunks[c];
    ch.width = std::min(chunk, n_words - c * chunk);
    ch.pi.resize(n_pi * ch.width);
    ch.ff.resize(n_ff * ch.width);
    ch.expected.resize(n_out * ch.width);
    ch.wave.resize(sim.wave_size() * ch.width);
  }

  // One word-batched oracle call per 64 patterns (bit draw order matches the
  // seed's pattern-at-a-time loop, so results are reproducible across PRs).
  const std::uint64_t start_queries = oracle.queries();
  std::vector<std::uint64_t> scan_in(n_pi + n_ff), response(n_out);
  for (std::size_t w = 0; w < n_words; ++w) {
    for (auto& word : scan_in) word = 0;
    for (int b = 0; b < 64; ++b) {
      for (std::size_t i = 0; i < scan_in.size(); ++i) {
        if (rng.chance(0.5)) scan_in[i] |= (1ull << b);
      }
    }
    oracle.query_word(scan_in, response);
    Chunk& ch = chunks[w / chunk];
    const std::size_t cw = ch.width;
    const std::size_t x = w % chunk;
    for (std::size_t i = 0; i < n_pi; ++i) ch.pi[i * cw + x] = scan_in[i];
    for (std::size_t j = 0; j < n_ff; ++j) {
      ch.ff[j * cw + x] = scan_in[n_pi + j];
    }
    for (std::size_t r = 0; r < n_out; ++r) {
      ch.expected[r * cw + x] = response[r];
    }
  }

  using Response = CompiledSim::Cone::Response;
  const std::vector<Response> all_responses = sim.responses();
  const auto mismatches = [](const Chunk& ch,
                             std::span<const Response> responses) {
    std::uint64_t n = 0;
    for (const Response& r : responses) {
      const std::uint64_t* got = ch.wave.data() + r.row * ch.width;
      const std::uint64_t* want = ch.expected.data() + r.column * ch.width;
      for (std::size_t w = 0; w < ch.width; ++w) n += got[w] != want[w];
    }
    return n;
  };

  // The odometer enumerates joint assignments, position 0 fastest; an
  // advance re-installs positions 0..pos. `changed_at[p]` is the
  // combination at which position p was last installed, so it never
  // increases with p and the LUTs installed since any earlier combination
  // are a prefix of `lut_ids`. A chunk's first visit runs a full
  // eval_batch; a later visit re-runs only the fan-out cone of the prefix
  // installed since its last visit (built on first use) and updates its
  // mismatch count from the responses inside that cone. Every visit counts
  // the chunk's words in sim.words, so the verdicts and the word counts
  // are those of a whole-circuit evaluation per visit, under every ISA.
  std::vector<std::size_t> odometer(lut_ids.size(), 0);
  std::vector<std::uint64_t> changed_at(lut_ids.size(), 1);
  std::vector<std::optional<CompiledSim::Cone>> prefix_cones(lut_ids.size());
  for (std::size_t i = 0; i < lut_ids.size(); ++i) {
    sim.set_lut_mask(lut_ids[i], candidates[i][0]);
  }
  const auto matches = [&](std::uint64_t combination) {
    for (Chunk& ch : chunks) {
      if (ch.seen == 0) {
        sim.eval_batch(ch.width, ch.pi, ch.ff, ch.wave);
        ch.bad = mismatches(ch, all_responses);
      } else {
        std::size_t n = 0;
        while (n < changed_at.size() && changed_at[n] > ch.seen) ++n;
        std::optional<CompiledSim::Cone>& cone = prefix_cones[n - 1];
        if (!cone) cone = sim.cone_of(std::span(lut_ids.data(), n));
        ch.bad -= mismatches(ch, cone->responses());
        sim.eval_cone(ch.width, *cone, ch.wave);
        ch.bad += mismatches(ch, cone->responses());
      }
      ch.seen = combination;
      if (ch.bad != 0) return false;
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
    ++result.combinations_tried;
    if (matches(result.combinations_tried)) {
      result.outcome = attack::Outcome::kSolved;
      for (std::size_t i = 0; i < lut_ids.size(); ++i) {
        result.key[std::string(hybrid.cell(lut_ids[i]).name)] =
            candidates[i][odometer[i]];
      }
      break;
    }
    // Advance the odometer and install the positions it moved.
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
    for (std::size_t p = 0; p <= pos; ++p) {
      sim.set_lut_mask(lut_ids[p], candidates[p][odometer[p]]);
      changed_at[p] = result.combinations_tried + 1;
    }
  }

  result.queries = oracle.queries() - start_queries;
  result.elapsed_s = timer.seconds();
  return result;
}

}  // namespace stt
