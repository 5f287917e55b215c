#include <gtest/gtest.h>

#include <bit>

#include "attack/dpa.hpp"
#include "defense/registry.hpp"
#include "synth/generator.hpp"

namespace stt {
namespace {

const TechLibrary& lib() {
  static const TechLibrary kLib = TechLibrary::cmos90_stt();
  return kLib;
}

// Test circuit: the secret cell sits in the middle of surrounding logic so
// its contribution is a fraction of the total trace.
Netlist testbed(CellKind secret_kind, bool as_lut, CellId* target) {
  Netlist nl("dpa");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId c = nl.add_input("c");
  const CellId d = nl.add_input("d");
  const CellId g1 = nl.add_gate(CellKind::kNand, "g1", {a, b});
  const CellId secret = nl.add_gate(secret_kind, "secret", {g1, c});
  const CellId g2 = nl.add_gate(CellKind::kOr, "g2", {secret, d});
  const CellId g3 = nl.add_gate(CellKind::kXor, "g3", {g2, a});
  const CellId ff = nl.add_dff("ff", g3);
  const CellId g4 = nl.add_gate(CellKind::kAnd, "g4", {ff, b});
  nl.mark_output(g4);
  nl.mark_output(g2);
  nl.finalize();
  if (as_lut) nl.replace_with_lut(secret);
  *target = secret;
  return nl;
}

TEST(PowerTrace, DeterministicAndShaped) {
  CellId target;
  const Netlist nl = testbed(CellKind::kXor, false, &target);
  TraceOptions opt;
  opt.cycles = 64;
  const auto t1 = simulate_power_trace(nl, lib(), opt);
  const auto t2 = simulate_power_trace(nl, lib(), opt);
  EXPECT_EQ(t1.trace_fj, t2.trace_fj);
  EXPECT_EQ(t1.trace_fj.size(), 64u);
  EXPECT_EQ(t1.pi.patterns(), 64u);
  EXPECT_EQ(t1.state.rows(), nl.dffs().size());
  // Energy is strictly positive from leakage and activity.
  for (const double e : t1.trace_fj) EXPECT_GT(e, 0.0);
}

TEST(PowerTrace, NoiseChangesSamplesOnly) {
  CellId target;
  const Netlist nl = testbed(CellKind::kXor, false, &target);
  TraceOptions clean;
  clean.cycles = 64;
  TraceOptions noisy = clean;
  noisy.noise_sigma_fj = 1.0;
  const auto a = simulate_power_trace(nl, lib(), clean);
  const auto b = simulate_power_trace(nl, lib(), noisy);
  EXPECT_EQ(a.pi, b.pi);  // same stimulus stream
  EXPECT_NE(a.trace_fj, b.trace_fj);
}

TEST(Dpa, CmosGateLeaksItsFunction) {
  CellId target;
  const Netlist nl = testbed(CellKind::kXor, false, &target);
  TraceOptions opt;
  opt.cycles = 512;
  const auto trace = simulate_power_trace(nl, lib(), opt);
  const auto result = run_dpa_attack(
      nl, target, gate_truth_mask(CellKind::kXor, 2), trace);
  // Output-toggle CPA resolves the function up to complement.
  EXPECT_TRUE(result.identified_up_to_complement);
  EXPECT_GT(result.margin(), 0.02);
  EXPECT_GT(result.best_correlation, 0.1);
}

TEST(Dpa, SttLutDoesNotLeakConfiguration) {
  CellId target;
  const Netlist nl = testbed(CellKind::kXor, true, &target);
  TraceOptions opt;
  opt.cycles = 512;
  const auto trace = simulate_power_trace(nl, lib(), opt);
  const auto result = run_dpa_attack(
      nl, target, gate_truth_mask(CellKind::kXor, 2), trace);
  // The LUT read energy is identical for every configuration: the
  // discrimination margin collapses versus the CMOS case.
  CellId cmos_target;
  const Netlist cmos = testbed(CellKind::kXor, false, &cmos_target);
  const auto cmos_trace = simulate_power_trace(cmos, lib(), opt);
  const auto cmos_result = run_dpa_attack(
      cmos, cmos_target, gate_truth_mask(CellKind::kXor, 2), cmos_trace);
  EXPECT_LT(result.margin(), cmos_result.margin());
  EXPECT_LT(result.margin(), 0.05);
}

TEST(Dpa, NoiseDegradesCmosAttackGracefully) {
  CellId target;
  const Netlist nl = testbed(CellKind::kNor, false, &target);
  TraceOptions clean;
  clean.cycles = 512;
  TraceOptions noisy = clean;
  noisy.noise_sigma_fj = 50.0;  // swamp the per-gate energies
  const auto clean_result = run_dpa_attack(
      nl, target, gate_truth_mask(CellKind::kNor, 2),
      simulate_power_trace(nl, lib(), clean));
  const auto noisy_result = run_dpa_attack(
      nl, target, gate_truth_mask(CellKind::kNor, 2),
      simulate_power_trace(nl, lib(), noisy));
  EXPECT_GE(clean_result.best_correlation, noisy_result.best_correlation);
}

TEST(Dpa, RankingCoversAllCandidates) {
  CellId target;
  const Netlist nl = testbed(CellKind::kAnd, false, &target);
  TraceOptions opt;
  opt.cycles = 128;
  const auto trace = simulate_power_trace(nl, lib(), opt);
  const auto result = run_dpa_attack(
      nl, target, gate_truth_mask(CellKind::kAnd, 2), trace);
  EXPECT_EQ(result.ranking.size(), 6u);
  // Sorted descending.
  for (std::size_t i = 1; i < result.ranking.size(); ++i) {
    EXPECT_GE(result.ranking[i - 1].second, result.ranking[i].second);
  }
}

TEST(Dpa, ShortTraceRejected) {
  CellId target;
  const Netlist nl = testbed(CellKind::kAnd, false, &target);
  PowerTraceResult tiny;
  tiny.trace_fj = {1.0, 2.0};
  EXPECT_THROW(run_dpa_attack(nl, target, 0, tiny), std::invalid_argument);
}


// Pinned traces and rankings: an FNV-1a digest of every trace sample's bit
// pattern plus the stimulus and state bits, and of the full DPA ranking
// (candidate masks and correlation bit patterns). The cycle counts leave
// a partial final 64-cycle word. The digests were captured from the
// one-cycle-at-a-time trace generator and the per-candidate whole-circuit
// DPA scoring, so any reordering of the energy sum, the RNG draws or the
// correlation arithmetic shows up here.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void byte(unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
};

std::uint64_t trace_digest(const PowerTraceResult& t, std::size_t n_pi,
                           std::size_t n_ff) {
  Fnv1a f;
  for (const double e : t.trace_fj) f.word(std::bit_cast<std::uint64_t>(e));
  for (std::size_t c = 0; c < t.trace_fj.size(); ++c) {
    for (std::size_t i = 0; i < n_pi; ++i) f.byte(t.pi.bit(i, c));
    for (std::size_t j = 0; j < n_ff; ++j) f.byte(t.state.bit(j, c));
  }
  return f.h;
}

std::uint64_t ranking_digest(const DpaResult& r) {
  Fnv1a f;
  for (const auto& [mask, corr] : r.ranking) {
    f.word(mask);
    f.word(std::bit_cast<std::uint64_t>(corr));
  }
  f.word(std::bit_cast<std::uint64_t>(r.runner_up_correlation));
  return f.h;
}

struct PinCase {
  const char* profile;
  const char* defense;
  double noise_fj;
  int cycles;
  std::uint64_t trace;
  std::uint64_t ranking;
};

// The first LUT with fan-in >= 2, so the six standard candidates differ;
// when the lock has none (xor's key gates are one-input LUTs), the first
// such CMOS gate, which run_dpa_attack remasks through a netlist copy.
CellId pin_target(const Netlist& nl) {
  CellId gate = kNullCell;
  for (CellId id = 0; id < nl.size(); ++id) {
    const Cell& c = nl.cell(id);
    if (c.fanin_count() < 2) continue;
    if (c.kind == CellKind::kLut) return id;
    if (gate == kNullCell && is_replaceable_gate(c.kind)) gate = id;
  }
  return gate;
}

TEST(DpaPin, TraceAndRankingAreBitIdentical) {
  const PinCase cases[] = {
      {"s641", "xor", 0.0, 300,
       0x61a626a19bc19f56ull, 0xafff66af92a37e2aull},
      {"s641", "xor", 5.0, 300,
       0x091b154769d671eaull, 0xfb2b723d5834d35aull},
      {"s641", "dependent", 0.0, 300,
       0xd0d9362d7b49345aull, 0x3e58a86c7ad41482ull},
      {"s641", "dependent", 5.0, 300,
       0x62e36b18bb00488cull, 0x11453dbea18149c3ull},
      {"s9234a", "xor", 0.0, 300,
       0x10973af602500044ull, 0xde1fb6c4cfee8464ull},
      {"s9234a", "xor", 5.0, 300,
       0x8d27b2b5cbcdd609ull, 0xbc99b33945b83db2ull},
      {"s9234a", "dependent", 0.0, 300,
       0x26e5fafaaba8d1e7ull, 0x7c4d89e7fc3d0332ull},
      {"s9234a", "dependent", 5.0, 300,
       0x08870be6868fcd0aull, 0xf01b01049a63d88full},
      // A longer trace: 79 words, the last one partial.
      {"s641", "dependent", 5.0, 5000,
       0xb2d44694fc8b847aull, 0xf997d3ef0ccd03bcull},
  };
  for (const PinCase& p : cases) {
    const std::string what =
        std::string(p.profile) + "/" + p.defense + " noise " +
        std::to_string(p.noise_fj) + " cycles " + std::to_string(p.cycles);
    const Netlist nl =
        defense::registry()
            .apply(p.defense, generate_circuit(*find_profile(p.profile), 11),
                   lib(), {5, 0.05, 0.10})
            .locked;
    const CellId target = pin_target(nl);
    ASSERT_NE(target, kNullCell) << what;
    const Cell& tc = nl.cell(target);
    TraceOptions opt;
    opt.seed = 3;
    opt.cycles = p.cycles;
    opt.noise_sigma_fj = p.noise_fj;
    const PowerTraceResult t = simulate_power_trace(nl, lib(), opt);
    const std::uint64_t truth =
        tc.kind == CellKind::kLut ? tc.lut_mask
                                  : gate_truth_mask(tc.kind, tc.fanin_count());
    const DpaResult r = run_dpa_attack(nl, target, truth, t);
    const std::uint64_t td =
        trace_digest(t, nl.inputs().size(), nl.dffs().size());
    const std::uint64_t rd = ranking_digest(r);
    EXPECT_EQ(td, p.trace) << what;
    EXPECT_EQ(rd, p.ranking) << what;
    EXPECT_EQ(r.ranking.size(), 6u) << what;
  }
}

}  // namespace
}  // namespace stt
