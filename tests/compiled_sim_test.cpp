// Compiled batch simulation engine: equivalence against an independent
// reference evaluator on randomly generated netlists, every gate kind and
// LUT width over all its truth-table rows, bit-identical results across
// batch widths and thread counts, in-place mask patching, fan-out-cone
// re-evaluation, the word-batched oracle's query accounting, and the
// lowered stream's order and cones on fuzzed netlists.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "attack/oracle.hpp"
#include "obs/obs.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/compiled.hpp"
#include "sim/isa.hpp"
#include "synth/generator.hpp"
#include "util/rng.hpp"

namespace stt {

// The engine's two instruction orders, as output rows: the grouped stream
// and the netlist's topological order that wide batches walk.
struct CompiledSimOrders {
  static std::vector<CellId> rows(const CompiledSim& sim,
                                  std::span<const std::uint32_t> order) {
    std::vector<CellId> cells;
    for (const std::uint32_t i : order) cells.push_back(sim.instrs_[i].out);
    return cells;
  }
  static std::vector<CellId> grouped(const CompiledSim& sim) {
    std::vector<CellId> cells;
    for (const simk::Instr& ins : sim.instrs_) cells.push_back(ins.out);
    return cells;
  }
  static std::vector<CellId> local(const CompiledSim& sim) {
    return rows(sim, sim.local_order_);
  }
};

namespace {

// Independent reference: per-lane naive evaluation via eval_gate / direct
// truth-table row lookup — shares no code with the compiled kernels (in
// particular not their specialized LUT paths).
std::vector<std::uint64_t> ref_eval(const Netlist& nl,
                                    std::span<const std::uint64_t> pi,
                                    std::span<const std::uint64_t> ff) {
  std::vector<std::uint64_t> wave(nl.size(), 0);
  for (std::size_t i = 0; i < pi.size(); ++i) wave[nl.inputs()[i]] = pi[i];
  for (std::size_t j = 0; j < ff.size(); ++j) wave[nl.dffs()[j]] = ff[j];
  for (const CellId id : nl.topo_order()) {
    const Cell& c = nl.cell(id);
    if (c.kind == CellKind::kInput || c.kind == CellKind::kDff) continue;
    std::uint64_t out = 0;
    for (int lane = 0; lane < 64; ++lane) {
      std::uint32_t assignment = 0;
      for (int i = 0; i < c.fanin_count(); ++i) {
        if ((wave[c.fanins[i]] >> lane) & 1ull) assignment |= (1u << i);
      }
      bool bit = false;
      switch (c.kind) {
        case CellKind::kConst0:
          bit = false;
          break;
        case CellKind::kConst1:
          bit = true;
          break;
        case CellKind::kLut:
          bit = (c.lut_mask >> assignment) & 1ull;
          break;
        default:
          bit = eval_gate(c.kind, assignment, c.fanin_count());
          break;
      }
      if (bit) out |= (1ull << lane);
    }
    wave[id] = out;
  }
  return wave;
}

// A generated circuit with a random subset of gates converted to LUTs with
// random masks (dense masks included, to exercise the complement path).
Netlist locked_circuit(int seed, int gates = 120) {
  CircuitProfile profile{"cs", 8, 6, 5, gates, 7};
  Netlist nl = generate_circuit(profile, static_cast<std::uint64_t>(seed));
  Rng rng(seed * 31 + 7);
  for (CellId id = 0; id < nl.size(); ++id) {
    const Cell& c = nl.cell(id);
    if (!is_replaceable_gate(c.kind) || c.fanin_count() > kMaxLutInputs) {
      continue;
    }
    if (!rng.chance(0.3)) continue;
    nl.replace_with_lut(id, rng() & full_mask(c.fanin_count()));
  }
  return nl;
}

void random_stimulus(Rng& rng, const Netlist& nl,
                     std::vector<std::uint64_t>& pi,
                     std::vector<std::uint64_t>& ff) {
  pi.resize(nl.inputs().size());
  ff.resize(nl.dffs().size());
  for (auto& w : pi) w = rng();
  for (auto& w : ff) w = rng();
}

class CompiledVsReference : public ::testing::TestWithParam<int> {};

TEST_P(CompiledVsReference, RandomNetlistsMatch) {
  const int seed = GetParam();
  const Netlist nl = locked_circuit(seed);
  const CompiledSim csim(nl);
  Rng rng(seed * 977);
  std::vector<std::uint64_t> pi, ff;
  std::vector<std::uint64_t> wave(csim.wave_size());
  for (int trial = 0; trial < 8; ++trial) {
    random_stimulus(rng, nl, pi, ff);
    const auto expect = ref_eval(nl, pi, ff);
    csim.eval_word(pi, ff, wave);
    ASSERT_EQ(wave.size(), expect.size());
    for (std::size_t id = 0; id < wave.size(); ++id) {
      ASSERT_EQ(wave[id], expect[id]) << "seed " << seed << " cell " << id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledVsReference, ::testing::Range(1, 9));

TEST(CompiledSim, BatchWidthAndThreadCountInvariance) {
  const Netlist nl = locked_circuit(3, 150);
  const CompiledSim csim(nl);
  Rng rng(555);
  constexpr std::size_t kWords = 21;  // not a multiple of the block size
  const std::size_t n_pi = csim.num_inputs();
  const std::size_t n_ff = csim.num_dffs();
  std::vector<std::uint64_t> pi(n_pi * kWords), ff(n_ff * kWords);
  for (auto& w : pi) w = rng();
  for (auto& w : ff) w = rng();

  // Reference: word-at-a-time over the same lanes.
  std::vector<std::uint64_t> expect(csim.wave_size() * kWords);
  {
    std::vector<std::uint64_t> pw(n_pi), fw(n_ff),
        wave(csim.wave_size());
    for (std::size_t w = 0; w < kWords; ++w) {
      for (std::size_t i = 0; i < n_pi; ++i) pw[i] = pi[i * kWords + w];
      for (std::size_t j = 0; j < n_ff; ++j) fw[j] = ff[j * kWords + w];
      csim.eval_word(pw, fw, wave);
      for (std::size_t r = 0; r < csim.wave_size(); ++r) {
        expect[r * kWords + w] = wave[r];
      }
    }
  }

  std::vector<std::uint64_t> wave(csim.wave_size() * kWords);
  csim.eval_batch(kWords, pi, ff, wave);
  EXPECT_EQ(wave, expect) << "serial batch differs from word-at-a-time";

  for (const unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    ThreadPoolParallelFor par(pool);
    std::vector<std::uint64_t> tw(csim.wave_size() * kWords, 0);
    csim.eval_batch(kWords, pi, ff, tw, &par);
    EXPECT_EQ(tw, expect) << threads << " threads";
  }

  // Smaller widths over the leading lanes agree with the wide batch.
  for (const std::size_t W : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    std::vector<std::uint64_t> spi(n_pi * W), sff(n_ff * W),
        sw(csim.wave_size() * W);
    for (std::size_t i = 0; i < n_pi; ++i) {
      for (std::size_t w = 0; w < W; ++w) spi[i * W + w] = pi[i * kWords + w];
    }
    for (std::size_t j = 0; j < n_ff; ++j) {
      for (std::size_t w = 0; w < W; ++w) sff[j * W + w] = ff[j * kWords + w];
    }
    csim.eval_batch(W, spi, sff, sw);
    for (std::size_t r = 0; r < csim.wave_size(); ++r) {
      for (std::size_t w = 0; w < W; ++w) {
        ASSERT_EQ(sw[r * W + w], expect[r * kWords + w]) << "W=" << W;
      }
    }
  }
}

TEST(CompiledSim, SetLutMaskMatchesRecompile) {
  Netlist nl = locked_circuit(5);
  CompiledSim csim(nl);
  Rng rng(99);
  std::vector<CellId> luts;
  for (CellId id = 0; id < nl.size(); ++id) {
    if (nl.cell(id).kind == CellKind::kLut) luts.push_back(id);
  }
  ASSERT_FALSE(luts.empty());
  std::vector<std::uint64_t> pi, ff;
  random_stimulus(rng, nl, pi, ff);
  for (int trial = 0; trial < 6; ++trial) {
    const CellId id = rng.pick(luts);
    const std::uint64_t mask = rng() & full_mask(nl.cell(id).fanin_count());
    csim.set_lut_mask(id, mask);
    nl.cell(id).lut_mask = mask;
    EXPECT_EQ(csim.lut_mask(id), mask);
    const CompiledSim fresh(nl);
    std::vector<std::uint64_t> a(csim.wave_size()), b(csim.wave_size());
    csim.eval_word(pi, ff, a);
    fresh.eval_word(pi, ff, b);
    EXPECT_EQ(a, b) << "patched engine differs from recompiled engine";
  }
  EXPECT_THROW(csim.set_lut_mask(nl.inputs()[0], 1), std::invalid_argument);
}

TEST(ScanOracle, QueryWordMatches64SingleQueries) {
  const Netlist nl = locked_circuit(13);
  ScanOracle word_oracle(nl);
  ScanOracle single_oracle(nl);
  Rng rng(71);
  const std::size_t n_in = word_oracle.num_inputs();
  const std::size_t n_out = word_oracle.num_outputs();
  std::vector<std::uint64_t> in(n_in), out(n_out);
  for (auto& w : in) w = rng();
  word_oracle.query_word(in, out);
  for (int b = 0; b < 64; b += 7) {
    std::vector<bool> pattern(n_in);
    for (std::size_t i = 0; i < n_in; ++i) pattern[i] = (in[i] >> b) & 1ull;
    const auto response = single_oracle.query(pattern);
    for (std::size_t o = 0; o < n_out; ++o) {
      EXPECT_EQ(response[o], static_cast<bool>((out[o] >> b) & 1ull))
          << "lane " << b << " output " << o;
    }
  }
}

TEST(ScanOracle, QueryAccountingStaysHonestAcrossGranularities) {
  const Netlist nl = locked_circuit(17);
  ScanOracle oracle(nl);
  const std::size_t n_in = oracle.num_inputs();
  const std::size_t n_out = oracle.num_outputs();
  EXPECT_EQ(oracle.queries(), 0u);

  oracle.query(std::vector<bool>(n_in, false));
  EXPECT_EQ(oracle.queries(), 1u);

  std::vector<std::uint64_t> in(n_in, 5), out(n_out);
  oracle.query_word(in, out);
  EXPECT_EQ(oracle.queries(), 1u + 64u);

  // 64 queries per word, for every batch width and thread count.
  for (const std::size_t W : {std::size_t{1}, std::size_t{3}}) {
    const std::uint64_t before = oracle.queries();
    std::vector<std::uint64_t> bin(n_in * W, 9), bout(n_out * W);
    oracle.query_batch(W, bin, bout);
    EXPECT_EQ(oracle.queries(), before + 64 * W);
  }
  ThreadPool pool(2);
  ThreadPoolParallelFor par(pool);
  const std::uint64_t before = oracle.queries();
  std::vector<std::uint64_t> bin(n_in * 4, 3), bout(n_out * 4);
  oracle.query_batch(4, bin, bout, &par);
  EXPECT_EQ(oracle.queries(), before + 64 * 4);
}

TEST(ScanOracle, BatchMatchesWordQueries) {
  const Netlist nl = locked_circuit(19);
  ScanOracle batch_oracle(nl);
  ScanOracle word_oracle(nl);
  Rng rng(41);
  constexpr std::size_t kWords = 11;
  const std::size_t n_in = batch_oracle.num_inputs();
  const std::size_t n_out = batch_oracle.num_outputs();
  std::vector<std::uint64_t> in(n_in * kWords), out(n_out * kWords);
  for (auto& w : in) w = rng();

  ThreadPool pool(3);
  ThreadPoolParallelFor par(pool);
  batch_oracle.query_batch(kWords, in, out, &par);

  std::vector<std::uint64_t> win(n_in), wout(n_out);
  for (std::size_t w = 0; w < kWords; ++w) {
    for (std::size_t i = 0; i < n_in; ++i) win[i] = in[i * kWords + w];
    word_oracle.query_word(win, wout);
    for (std::size_t o = 0; o < n_out; ++o) {
      EXPECT_EQ(wout[o], out[o * kWords + w]) << "word " << w;
    }
  }
}

std::vector<SimIsa> supported_isas() {
  std::vector<SimIsa> isas;
  for (const SimIsa isa : {SimIsa::kScalar, SimIsa::kAvx2, SimIsa::kAvx512}) {
    if (sim_isa_supported(isa)) isas.push_back(isa);
  }
  return isas;
}

TEST(SimIsa, NamesParseAndLaneWidthsAreCanonical) {
  for (const SimIsa isa :
       {SimIsa::kScalar, SimIsa::kAvx2, SimIsa::kAvx512}) {
    const auto parsed = parse_sim_isa(sim_isa_name(isa));
    ASSERT_TRUE(parsed.has_value()) << sim_isa_name(isa);
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_EQ(sim_lane_words(SimIsa::kScalar), 1u);
  EXPECT_EQ(sim_lane_words(SimIsa::kAvx2), 4u);
  EXPECT_EQ(sim_lane_words(SimIsa::kAvx512), 8u);
  EXPECT_FALSE(parse_sim_isa("sse2").has_value());
  EXPECT_FALSE(parse_sim_isa("AVX2").has_value());  // names are lowercase
  EXPECT_FALSE(parse_sim_isa("").has_value());
  EXPECT_TRUE(sim_isa_supported(SimIsa::kScalar));
  EXPECT_THROW(set_sim_isa("notanisa"), std::runtime_error);
}

TEST(SimIsa, PaddedWordsRoundsUpToWholeLanes) {
  for (const SimIsa isa : supported_isas()) {
    ScopedSimIsa forced(isa);
    const std::size_t lane = sim_lane_words(isa);
    EXPECT_EQ(CompiledSim::lane_words(), lane);
    EXPECT_EQ(CompiledSim::padded_words(0), 0u);
    EXPECT_EQ(CompiledSim::padded_words(1), lane);
    EXPECT_EQ(CompiledSim::padded_words(lane), lane);
    EXPECT_EQ(CompiledSim::padded_words(lane + 1), 2 * lane);
  }
}

// Every supported kernel must produce bit-identical waves for every batch
// width — including widths that are not a multiple of the lane width, which
// exercise the scalar tail after the lane main loop.
TEST(SimIsaMatrix, ForcedIsasAreBitIdenticalAcrossMisalignedWidths) {
  const Netlist nl = locked_circuit(23, 160);
  const CompiledSim csim(nl);
  const std::size_t n_pi = csim.num_inputs();
  const std::size_t n_ff = csim.num_dffs();
  Rng rng(2023);
  for (const std::size_t W :
       {std::size_t{1}, std::size_t{3}, std::size_t{7}, std::size_t{8},
        std::size_t{13}, std::size_t{32}}) {
    std::vector<std::uint64_t> pi(n_pi * W), ff(n_ff * W);
    for (auto& w : pi) w = rng();
    for (auto& w : ff) w = rng();
    std::vector<std::uint64_t> expect(csim.wave_size() * W);
    {
      ScopedSimIsa forced(SimIsa::kScalar);
      csim.eval_batch(W, pi, ff, expect);
    }
    for (const SimIsa isa : supported_isas()) {
      ScopedSimIsa forced(isa);
      std::vector<std::uint64_t> wave(csim.wave_size() * W, ~0ull);
      csim.eval_batch(W, pi, ff, wave);
      EXPECT_EQ(wave, expect) << sim_isa_name(isa) << " W=" << W;
      ThreadPool pool(2);
      ThreadPoolParallelFor par(pool);
      std::vector<std::uint64_t> tw(csim.wave_size() * W, ~0ull);
      csim.eval_batch(W, pi, ff, tw, &par);
      EXPECT_EQ(tw, expect) << sim_isa_name(isa) << " threaded W=" << W;
    }
  }
}

// Live mask patches and whole-netlist resyncs must be visible to the very
// next evaluation under every kernel, exactly as under the scalar one.
TEST(SimIsaMatrix, LiveMaskEditsLandUnderWideLanes) {
  for (const SimIsa isa : supported_isas()) {
    ScopedSimIsa forced(isa);
    Netlist nl = locked_circuit(29);
    CompiledSim csim(nl);
    Rng rng(507);
    std::vector<CellId> luts;
    for (CellId id = 0; id < nl.size(); ++id) {
      if (nl.cell(id).kind == CellKind::kLut) luts.push_back(id);
    }
    ASSERT_FALSE(luts.empty());
    const std::size_t W = sim_lane_words(isa) * 2 + 1;  // forces a tail
    const std::size_t n_pi = csim.num_inputs();
    const std::size_t n_ff = csim.num_dffs();
    std::vector<std::uint64_t> pi(n_pi * W), ff(n_ff * W);
    for (auto& w : pi) w = rng();
    for (auto& w : ff) w = rng();
    for (int trial = 0; trial < 4; ++trial) {
      const CellId id = rng.pick(luts);
      const std::uint64_t mask = rng() & full_mask(nl.cell(id).fanin_count());
      csim.set_lut_mask(id, mask);
      nl.cell(id).lut_mask = mask;
      const CompiledSim fresh(nl);
      std::vector<std::uint64_t> a(csim.wave_size() * W);
      std::vector<std::uint64_t> b(csim.wave_size() * W);
      csim.eval_batch(W, pi, ff, a);
      fresh.eval_batch(W, pi, ff, b);
      EXPECT_EQ(a, b) << sim_isa_name(isa) << " trial " << trial;
    }
  }
}

// Re-running the cone of the patched LUTs over a wave that holds the
// previous full evaluation must give exactly the wave a fresh eval_batch
// gives under the new masks: one-LUT and several-LUT dirty sets, widths
// that leave a scalar tail after the lane main loop, every compiled-in ISA.
TEST(SimIsaMatrix, ConeReevaluationMatchesFullBatch) {
  for (const SimIsa isa : supported_isas()) {
    ScopedSimIsa forced(isa);
    for (const int seed : {41, 43, 47}) {
      const Netlist nl = locked_circuit(seed, 160);
      CompiledSim csim(nl);
      std::vector<CellId> luts;
      for (CellId id = 0; id < nl.size(); ++id) {
        if (nl.cell(id).kind == CellKind::kLut) luts.push_back(id);
      }
      ASSERT_FALSE(luts.empty());
      Rng rng(static_cast<std::uint64_t>(seed) * 13 +
              static_cast<std::uint64_t>(isa));
      for (const std::size_t W :
           {std::size_t{1}, std::size_t{3}, std::size_t{8}, std::size_t{9},
            std::size_t{17}}) {
        std::vector<std::uint64_t> pi(csim.num_inputs() * W);
        std::vector<std::uint64_t> ff(csim.num_dffs() * W);
        for (auto& w : pi) w = rng();
        for (auto& w : ff) w = rng();
        std::vector<std::uint64_t> wave(csim.wave_size() * W);
        std::vector<std::uint64_t> full(csim.wave_size() * W);
        csim.eval_batch(W, pi, ff, wave);
        for (int trial = 0; trial < 8; ++trial) {
          const std::size_t n_dirty = trial % 2 == 0 ? 1 : 2 + rng.below(3);
          std::vector<CellId> dirty;
          for (std::size_t k = 0; k < n_dirty; ++k) {
            const CellId id = rng.pick(luts);
            dirty.push_back(id);
            csim.set_lut_mask(id,
                              rng() & full_mask(nl.cell(id).fanin_count()));
          }
          csim.eval_cone(W, csim.cone_of(dirty), wave);
          csim.eval_batch(W, pi, ff, full);
          ASSERT_EQ(wave, full) << sim_isa_name(isa) << " seed " << seed
                                << " W=" << W << " trial " << trial;
        }
      }
    }
  }
}

// A cone is the union of its seeds' cones, lists only what a seed can
// reach, and names the scan-response columns it rewrites.
TEST(CompiledSim, ConeIsTheSeedsFanout) {
  const Netlist nl = locked_circuit(53, 160);
  const CompiledSim csim(nl);
  std::vector<CellId> luts;
  for (CellId id = 0; id < nl.size(); ++id) {
    if (nl.cell(id).kind == CellKind::kLut) luts.push_back(id);
  }
  ASSERT_GE(luts.size(), 3u);
  const std::vector<CellId> seeds = {luts[0], luts[luts.size() / 2],
                                     luts.back()};
  std::set<CellId> expect;
  for (const CellId id : seeds) {
    const CompiledSim::Cone one = csim.cone_of(id);
    ASSERT_FALSE(one.cells().empty());
    EXPECT_EQ(one.cells().front(), id) << "a LUT heads its own cone";
    expect.insert(one.cells().begin(), one.cells().end());
  }
  const CompiledSim::Cone cone = csim.cone_of(seeds);
  const std::set<CellId> got(cone.cells().begin(), cone.cells().end());
  EXPECT_EQ(got, expect);
  EXPECT_EQ(got.size(), cone.cells().size()) << "no row listed twice";
  for (const CellId id : cone.cells()) {
    EXPECT_NE(nl.cell(id).kind, CellKind::kDff);
    EXPECT_NE(nl.cell(id).kind, CellKind::kInput);
  }
  std::vector<CompiledSim::Cone::Response> want;
  for (std::size_t o = 0; o < csim.num_outputs(); ++o) {
    if (got.count(csim.output_cells()[o])) {
      want.push_back({csim.output_cells()[o], static_cast<std::uint32_t>(o)});
    }
  }
  for (std::size_t j = 0; j < csim.num_dffs(); ++j) {
    if (got.count(csim.next_state_cells()[j])) {
      want.push_back({csim.next_state_cells()[j],
                      static_cast<std::uint32_t>(csim.num_outputs() + j)});
    }
  }
  ASSERT_EQ(cone.responses().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(cone.responses()[i].row, want[i].row);
    EXPECT_EQ(cone.responses()[i].column, want[i].column);
  }

  EXPECT_THROW((void)csim.cone_of(nl.inputs()[0]), std::invalid_argument);
  const CompiledSim other(nl);
  std::vector<std::uint64_t> wave(csim.wave_size());
  EXPECT_THROW(other.eval_cone(1, cone, wave), std::invalid_argument);
  EXPECT_THROW(csim.eval_cone(2, cone, wave), std::invalid_argument);
}

// A LUT that only feeds a flip-flop's D pin (through an XOR, as a
// constant-lock key gate does) has a two-cell cone: the flip-flop and the
// logic behind it are never re-run, and the only response rewritten is
// that flip-flop's next state.
TEST(CompiledSim, ConeStopsAtFlipFlops) {
  Netlist nl;
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId q = nl.add_dff("q");
  const CellId lut = nl.add_lut("k", {a, b}, 0b0110);
  const CellId x = nl.add_gate(CellKind::kXor, "x", {lut, b});
  nl.connect(q, {x});
  const CellId g = nl.add_gate(CellKind::kAnd, "g", {q, a});
  nl.mark_output(g);
  nl.finalize();
  const CompiledSim csim(nl);
  const CompiledSim::Cone cone = csim.cone_of(lut);
  EXPECT_EQ(std::vector<CellId>(cone.cells().begin(), cone.cells().end()),
            (std::vector<CellId>{lut, x}));
  ASSERT_EQ(cone.responses().size(), 1u);
  EXPECT_EQ(cone.responses()[0].row, x);
  EXPECT_EQ(cone.responses()[0].column, 1u);  // after the one output

#if !defined(STTLOCK_OBS_DISABLED)
  // A cone run counts its W words like the eval_batch it stands in for.
  constexpr std::size_t kW = 3;
  std::vector<std::uint64_t> wave(csim.wave_size() * kW);
  const auto words = [] {
    return obs::Metrics::global().counter_value("sim.words");
  };
  const std::uint64_t before = words();
  csim.eval_cone(kW, cone, wave);
  EXPECT_EQ(words() - before, kW);
#endif
}

// Regression: the oracle sizes its scratch wave from the active lane width.
// A scalar-sized scratch (wave_size() words) under a wide kernel would let
// the lane main loop write past the buffer; single-pattern and word queries
// must work under the widest ISA, including interleaved with wide batches.
TEST(ScanOracle, ScalarQueriesSizeScratchForActiveLaneWidth) {
  const Netlist nl = locked_circuit(37);
  std::vector<std::vector<std::uint64_t>> word_responses;
  std::vector<std::vector<bool>> single_responses;
  for (const SimIsa isa : supported_isas()) {
    ScopedSimIsa forced(isa);
    ScanOracle oracle(nl);  // scratch starts at one lane of W=1
    Rng rng(86);
    const std::size_t n_in = oracle.num_inputs();
    const std::size_t n_out = oracle.num_outputs();
    std::vector<std::uint64_t> in(n_in), out(n_out);
    for (auto& w : in) w = rng();
    oracle.query_word(in, out);
    word_responses.push_back(out);
    std::vector<bool> pattern(n_in);
    for (std::size_t i = 0; i < n_in; ++i) pattern[i] = (in[i] >> 17) & 1ull;
    single_responses.push_back(oracle.query(pattern));
    // A wide batch grows the scratch; scalar queries after it still agree.
    constexpr std::size_t kWords = 9;
    std::vector<std::uint64_t> bin(n_in * kWords), bout(n_out * kWords);
    for (auto& w : bin) w = rng();
    oracle.query_batch(kWords, bin, bout);
    oracle.query_word(in, out);
    EXPECT_EQ(out, word_responses.back()) << sim_isa_name(isa);
    EXPECT_EQ(oracle.queries(), 64u + 1u + 64u * kWords + 64u);
  }
  for (std::size_t i = 1; i < word_responses.size(); ++i) {
    EXPECT_EQ(word_responses[i], word_responses[0]) << "ISA row " << i;
    EXPECT_EQ(single_responses[i], single_responses[0]) << "ISA row " << i;
  }
}

// One cell of `kind` over `fanin` primary inputs, evaluated by the compiled
// engine with every truth-table row packed into its own word lane: lane r
// carries input assignment r, so bit r of the result is row r's output.
std::uint64_t all_rows_word(CellKind kind, int fanin,
                            std::uint64_t mask = 0) {
  Netlist nl("cell");
  std::vector<CellId> ins;
  for (int i = 0; i < fanin; ++i) {
    ins.push_back(nl.add_input("i" + std::to_string(i)));
  }
  const CellId y = kind == CellKind::kLut ? nl.add_lut("y", ins, mask)
                                          : nl.add_gate(kind, "y", ins);
  nl.mark_output(y);
  nl.finalize();
  std::vector<std::uint64_t> words(fanin, 0);
  for (int i = 0; i < fanin; ++i) {
    for (std::uint32_t row = 0; row < num_rows(fanin); ++row) {
      if (row & (1u << i)) words[i] |= (1ull << row);
    }
  }
  const CompiledSim sim(nl);
  std::vector<std::uint64_t> wave(sim.wave_size());
  sim.eval_word(words, {}, wave);
  return wave[y];
}

// Property: word-parallel cell evaluation agrees with eval_gate on every
// row, for every standard kind and fan-in.
class WordEvalMatchesGate
    : public ::testing::TestWithParam<std::tuple<CellKind, int>> {};

TEST_P(WordEvalMatchesGate, AllRows) {
  const auto [kind, fanin] = GetParam();
  const std::uint64_t out = all_rows_word(kind, fanin);
  for (std::uint32_t row = 0; row < num_rows(fanin); ++row) {
    EXPECT_EQ(((out >> row) & 1ull) != 0, eval_gate(kind, row, fanin))
        << kind_name(kind) << " fanin " << fanin << " row " << row;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Gates, WordEvalMatchesGate,
    ::testing::Combine(::testing::Values(CellKind::kAnd, CellKind::kNand,
                                         CellKind::kOr, CellKind::kNor,
                                         CellKind::kXor, CellKind::kXnor),
                       ::testing::Range(2, kMaxLutInputs + 1)));

TEST(WordEval, LutMatchesItsMask) {
  Rng rng(3);
  for (int k = 1; k <= kMaxLutInputs; ++k) {
    for (int trial = 0; trial < 10; ++trial) {
      const std::uint64_t mask = rng() & full_mask(k);
      EXPECT_EQ(all_rows_word(CellKind::kLut, k, mask) & full_mask(k), mask);
    }
  }
}

TEST(EvalCellWord, DenseLutMasksUseComplementPathCorrectly) {
  Rng rng(8);
  for (int k = 3; k <= kMaxLutInputs; ++k) {
    for (int trial = 0; trial < 20; ++trial) {
      // Bias dense: OR of two draws asserts ~75% of rows on average, which
      // sends the wide-LUT kernel down its complement path.
      const std::uint64_t mask = (rng() | rng()) & full_mask(k);
      EXPECT_EQ(all_rows_word(CellKind::kLut, k, mask) & full_mask(k), mask)
          << "k=" << k;
    }
  }
}

// ---- Stream properties on fuzzed netlists ---------------------------------

// A random sequential netlist over every cell kind: constants, BUF/NOT,
// 2- to 5-input gates, 1- to 6-input LUTs, and flip-flops whose D pins
// close loops through the logic.
Netlist fuzz_netlist(std::uint64_t seed) {
  Rng rng(seed);
  Netlist nl("fuzz");
  std::vector<CellId> pool;
  const int n_pi = 2 + static_cast<int>(rng.below(6));
  const int n_ff = 1 + static_cast<int>(rng.below(6));
  const int n_cells = 30 + static_cast<int>(rng.below(150));
  for (int i = 0; i < n_pi; ++i) {
    pool.push_back(nl.add_input("i" + std::to_string(i)));
  }
  std::vector<CellId> ffs;
  for (int j = 0; j < n_ff; ++j) {
    ffs.push_back(nl.add_dff("q" + std::to_string(j)));
    pool.push_back(ffs.back());
  }
  const CellKind gates[] = {CellKind::kAnd, CellKind::kNand, CellKind::kOr,
                            CellKind::kNor, CellKind::kXor, CellKind::kXnor};
  for (int g = 0; g < n_cells; ++g) {
    const std::string name = "g" + std::to_string(g);
    const std::uint64_t pick = rng.below(10);
    if (pick == 0) {
      pool.push_back(nl.add_const(rng.chance(0.5), name));
      continue;
    }
    const std::size_t n =
        pick <= 2 ? 1
        : pick <= 6
            ? 2 + rng.below(4)
            : 1 + rng.below(static_cast<std::uint64_t>(kMaxLutInputs));
    std::vector<CellId> fanins;
    while (fanins.size() < std::min(n, pool.size())) {
      const CellId f = rng.pick(pool);
      if (std::find(fanins.begin(), fanins.end(), f) == fanins.end()) {
        fanins.push_back(f);
      }
    }
    if (pick <= 2) {
      pool.push_back(nl.add_gate(
          rng.chance(0.5) ? CellKind::kBuf : CellKind::kNot, name, fanins));
    } else if (pick <= 6 && fanins.size() >= 2) {
      pool.push_back(nl.add_gate(gates[rng.below(6)], name, fanins));
    } else {
      const int k = static_cast<int>(fanins.size());
      pool.push_back(nl.add_lut(name, fanins, rng() & full_mask(k)));
    }
  }
  for (const CellId q : ffs) nl.connect(q, {rng.pick(pool)});
  for (int o = 0; o < 3; ++o) nl.mark_output(rng.pick(pool));
  nl.finalize();
  return nl;
}

bool is_source(const Netlist& nl, CellId id) {
  const CellKind k = nl.cell(id).kind;
  return k == CellKind::kInput || k == CellKind::kDff;
}

// The lowered order is a topological order of every combinational cell
// with non-decreasing level (sources are level 0, a cell one above its
// deepest fan-in), and within a level each opcode — kind plus the arity
// class the kernels specialize on — occupies one contiguous run. The order
// wide batches walk is the netlist's topological order of the same cells.
TEST(StreamProperties, OrderIsTopologicalAndGroupedByLevelAndOpcode) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const Netlist nl = fuzz_netlist(seed);
    const CompiledSim csim(nl);
    std::vector<CellId> topo;
    for (const CellId id : nl.topo_order()) {
      if (!is_source(nl, id)) topo.push_back(id);
    }
    EXPECT_EQ(CompiledSimOrders::local(csim), topo) << "seed " << seed;
    const std::vector<CellId> order = CompiledSimOrders::grouped(csim);
    std::vector<int> level(nl.size(), -1);
    std::size_t n_comb = 0;
    for (CellId id = 0; id < nl.size(); ++id) {
      if (is_source(nl, id)) {
        level[id] = 0;
      } else {
        ++n_comb;
      }
    }
    ASSERT_EQ(order.size(), n_comb) << "seed " << seed;
    std::set<std::pair<int, std::pair<CellKind, int>>> seen;
    std::pair<int, std::pair<CellKind, int>> prev{-1, {CellKind::kInput, 0}};
    for (const CellId id : order) {
      const Cell& c = nl.cell(id);
      ASSERT_EQ(level[id], -1) << "seed " << seed << ": cell listed twice";
      int lv = 1;
      for (const CellId f : c.fanins) {
        ASSERT_GE(level[f], 0) << "seed " << seed << ": fan-in after reader";
        lv = std::max(lv, level[f] + 1);
      }
      level[id] = lv;
      const int n = c.fanin_count();
      const int arity = c.kind == CellKind::kLut ? std::min(n, 3)
                        : n == 2                 ? 2
                                                 : 0;
      const std::pair<int, std::pair<CellKind, int>> key{lv, {c.kind, arity}};
      ASSERT_GE(lv, prev.first) << "seed " << seed << ": level decreases";
      if (key != prev) {
        ASSERT_TRUE(seen.insert(key).second)
            << "seed " << seed << ": opcode run of level " << lv
            << " is split";
        prev = key;
      }
    }
  }
}

// Every entry point agrees with the per-cell reference on fuzzed netlists
// under every supported ISA: eval_word, step (whole and next-state cone),
// eval_batch at a width that leaves a scalar tail, and eval_cone after a
// mask patch.
TEST(StreamProperties, EntryPointsMatchReferenceUnderEveryIsa) {
  for (const SimIsa isa : supported_isas()) {
    ScopedSimIsa forced(isa);
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      Netlist nl = fuzz_netlist(seed);
      CompiledSim csim(nl);
      const std::string what =
          std::string(sim_isa_name(isa)) + " seed " + std::to_string(seed);
      Rng rng(seed * 7919);
      std::vector<std::uint64_t> pi, ff;
      std::vector<std::uint64_t> wave(csim.wave_size());
      random_stimulus(rng, nl, pi, ff);
      const std::vector<std::uint64_t> expect = ref_eval(nl, pi, ff);
      csim.eval_word(pi, ff, wave);
      ASSERT_EQ(wave, expect) << what;

      std::vector<std::uint64_t> next(ff.size());
      for (std::size_t j = 0; j < next.size(); ++j) {
        next[j] = expect[nl.cell(nl.dffs()[j]).fanins[0]];
      }
      std::vector<std::uint64_t> state = ff;
      csim.step(pi, state, wave);
      EXPECT_EQ(state, next) << what << " step";
      EXPECT_EQ(wave, expect) << what << " step wave";
      state = ff;
      std::fill(wave.begin(), wave.end(), 0x5a5a5a5a5a5a5a5aull);  // stale
      csim.step(csim.next_state_cone(), pi, state, wave);
      EXPECT_EQ(state, next) << what << " next-state cone step";

      // A narrow width walks the grouped stream, a wide one the netlist's
      // order (serially; split across two workers, per block width); both
      // leave a scalar tail.
      const std::size_t lane = sim_lane_words(isa);
      for (const std::size_t W :
           {2 * lane + 3, CompiledSim::kLocalityWords + 2 * lane + 3}) {
        std::vector<std::uint64_t> bpi(pi.size() * W), bff(ff.size() * W);
        for (auto& w : bpi) w = rng();
        for (auto& w : bff) w = rng();
        std::vector<std::uint64_t> batch(csim.wave_size() * W);
        const auto check_batch = [&](const char* who) {
          for (std::size_t w = 0; w < W; ++w) {
            for (std::size_t i = 0; i < pi.size(); ++i) pi[i] = bpi[i * W + w];
            for (std::size_t j = 0; j < ff.size(); ++j) ff[j] = bff[j * W + w];
            const std::vector<std::uint64_t> ref = ref_eval(nl, pi, ff);
            for (CellId id = 0; id < nl.size(); ++id) {
              ASSERT_EQ(batch[id * W + w], ref[id])
                  << what << " " << who << " word " << w << " cell " << id;
            }
          }
        };
        {
          ThreadPool pool(2);
          ThreadPoolParallelFor par(pool);
          csim.eval_batch(W, bpi, bff, batch, &par);
          check_batch("threaded eval_batch");
        }
        csim.eval_batch(W, bpi, bff, batch);
        check_batch("eval_batch");

        std::vector<CellId> luts;
        for (CellId id = 0; id < nl.size(); ++id) {
          if (nl.cell(id).kind == CellKind::kLut) luts.push_back(id);
        }
        if (luts.empty()) continue;
        const CellId lut = rng.pick(luts);
        const std::uint64_t mask = ~nl.cell(lut).lut_mask &
                                   full_mask(nl.cell(lut).fanin_count());
        csim.set_lut_mask(lut, mask);
        nl.cell(lut).lut_mask = mask;
        csim.eval_cone(W, csim.cone_of(lut), batch);
        check_batch("eval_cone");
      }
    }
  }
}

// step over a cone needs the fan-in-closed next-state cone: a fan-out
// cone from cone_of would latch values computed from stale wave rows.
TEST(StreamProperties, ConeStepRejectsFanoutCones) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const Netlist nl = fuzz_netlist(seed);
    const CompiledSim csim(nl);
    CellId lut = 0;
    while (lut < nl.size() && nl.cell(lut).kind != CellKind::kLut) ++lut;
    if (lut == nl.size()) continue;
    std::vector<std::uint64_t> pi(csim.num_inputs()), state(csim.num_dffs());
    std::vector<std::uint64_t> wave(csim.wave_size());
    EXPECT_THROW(csim.step(csim.cone_of(lut), pi, state, wave),
                 std::invalid_argument)
        << "seed " << seed;
    EXPECT_NO_THROW(csim.step(csim.next_state_cone(), pi, state, wave));
  }
}

// cone_of lists exactly the cells a plain fan-out walk from the LUT
// reaches without passing through a flip-flop; next_state_cone lists
// exactly the combinational cells a fan-in walk from the D pins reaches.
TEST(StreamProperties, ConesMatchPlainGraphWalks) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const Netlist nl = fuzz_netlist(seed);
    const CompiledSim csim(nl);
    for (CellId lut = 0; lut < nl.size(); ++lut) {
      if (nl.cell(lut).kind != CellKind::kLut) continue;
      std::set<CellId> expect{lut};
      std::vector<CellId> todo{lut};
      while (!todo.empty()) {
        const CellId id = todo.back();
        todo.pop_back();
        for (const CellId r : nl.cell(id).fanouts) {
          if (nl.cell(r).kind == CellKind::kDff) continue;
          if (expect.insert(r).second) todo.push_back(r);
        }
      }
      const CompiledSim::Cone cone = csim.cone_of(lut);
      EXPECT_EQ(std::set<CellId>(cone.cells().begin(), cone.cells().end()),
                expect)
          << "seed " << seed << " lut " << lut;
      EXPECT_EQ(cone.cells().size(), expect.size());
    }
    std::set<CellId> expect;
    std::vector<CellId> todo;
    for (const CellId q : nl.dffs()) todo.push_back(nl.cell(q).fanins[0]);
    while (!todo.empty()) {
      const CellId id = todo.back();
      todo.pop_back();
      if (is_source(nl, id) || !expect.insert(id).second) continue;
      for (const CellId f : nl.cell(id).fanins) todo.push_back(f);
    }
    const CompiledSim::Cone ns = csim.next_state_cone();
    EXPECT_EQ(std::set<CellId>(ns.cells().begin(), ns.cells().end()), expect)
        << "seed " << seed;
    EXPECT_EQ(ns.cells().size(), expect.size());
  }
}

}  // namespace
}  // namespace stt
