// The incremental force probe (sim/partial_eval's ForceProbe) against the
// full re-evaluation it replaces: forcing one cell and re-evaluating every
// cell in topo order. Both lanes must match that reference on every cell,
// for every LUT of every registered defense, under zero and under partial
// LUT knowledge, and across knowledge refreshes.
#include <gtest/gtest.h>

#include "defense/registry.hpp"
#include "sim/partial_eval.hpp"
#include "synth/generator.hpp"
#include "tech/tech_library.hpp"
#include "util/rng.hpp"

namespace stt {
namespace {

Netlist locked_netlist(const std::string& bench, const std::string& kind) {
  const auto profile = find_profile(bench);
  EXPECT_TRUE(profile.has_value());
  const Netlist original = generate_circuit(*profile, 7);
  const TechLibrary lib = TechLibrary::cmos90_stt();
  defense::DefenseOptions opt;
  opt.seed = 7;
  return defense::registry().apply(kind, original, lib, opt, {}).locked;
}

// Reference: the whole netlist re-evaluated with one cell pinned.
std::vector<Tri> forced_eval(const Netlist& nl, const LutKnowledgeMap& luts,
                             const std::vector<Tri>& inputs, CellId force,
                             Tri value) {
  const PartialEvaluator evaluator(nl, luts);
  std::vector<Tri> wave(nl.size(), Tri::kX);
  std::size_t slot = 0;
  for (const CellId id : nl.inputs()) wave[id] = inputs[slot++];
  for (const CellId id : nl.dffs()) wave[id] = inputs[slot++];
  Tri fin[kMaxGateInputs];
  for (const CellId id : nl.topo_order()) {
    const Cell& c = nl.cell(id);
    if (c.kind == CellKind::kInput || c.kind == CellKind::kDff) continue;
    if (id == force) {
      wave[id] = value;
      continue;
    }
    const int n = c.fanin_count();
    for (int i = 0; i < n; ++i) fin[i] = wave[c.fanins[i]];
    wave[id] = c.kind == CellKind::kLut
                   ? evaluator.eval_partial_lut(id, std::span<const Tri>(fin, n))
                   : eval_cell_tri(c, std::span<const Tri>(fin, n));
  }
  return wave;
}

std::vector<CellId> observation_points(const Netlist& nl) {
  std::vector<CellId> obs(nl.outputs().begin(), nl.outputs().end());
  for (const CellId ff : nl.dffs()) obs.push_back(nl.cell(ff).fanins.at(0));
  return obs;
}

bool reference_masked(const std::vector<CellId>& obs,
                      const std::vector<Tri>& w0, const std::vector<Tri>& w1) {
  for (const CellId p : obs) {
    if (w0[p] == Tri::kX || w0[p] != w1[p]) return false;
  }
  return true;
}

int reference_first_sensitized(const std::vector<CellId>& obs,
                               const std::vector<Tri>& w0,
                               const std::vector<Tri>& w1) {
  for (std::size_t o = 0; o < obs.size(); ++o) {
    const Tri v0 = w0[obs[o]];
    const Tri v1 = w1[obs[o]];
    if (v0 != Tri::kX && v1 != Tri::kX && v0 != v1) return static_cast<int>(o);
  }
  return -1;
}

// Force every LUT in turn and compare both lanes cell by cell. With
// `learn`, each probed LUT then learns one more row of its real mask and
// the probe's base is refreshed, as the sensitization attack does.
void expect_matches_reference(const Netlist& nl, LutKnowledgeMap& luts,
                              const std::vector<Tri>& inputs, bool learn) {
  const PartialEvaluator evaluator(nl, luts);
  ForceProbe probe(evaluator);
  probe.rebase(evaluator.eval(inputs));
  const std::vector<CellId> obs = observation_points(nl);
  ASSERT_EQ(probe.observation_points(), obs);

  std::vector<CellId> lut_ids;
  for (CellId id = 0; id < nl.size(); ++id) {
    if (nl.cell(id).kind == CellKind::kLut) lut_ids.push_back(id);
  }
  ASSERT_FALSE(lut_ids.empty());
  for (const CellId lut : lut_ids) {
    SCOPED_TRACE(std::string(nl.cell(lut).name));
    probe.force(lut);
    const std::vector<Tri> w0 = forced_eval(nl, luts, inputs, lut, Tri::kZero);
    const std::vector<Tri> w1 = forced_eval(nl, luts, inputs, lut, Tri::kOne);
    for (CellId id = 0; id < nl.size(); ++id) {
      ASSERT_EQ(probe.value(0, id), w0[id]) << nl.cell(id).name;
      ASSERT_EQ(probe.value(1, id), w1[id]) << nl.cell(id).name;
    }
    EXPECT_EQ(probe.masked(), reference_masked(obs, w0, w1));
    EXPECT_EQ(probe.first_sensitized(),
              reference_first_sensitized(obs, w0, w1));

    LutKnowledge& st = luts.at(lut);
    if (!learn || st.complete()) continue;
    const std::uint32_t row = static_cast<std::uint32_t>(
        __builtin_ctzll(~st.known_mask));
    st.known_mask |= 1ull << row;
    st.value_mask |= nl.cell(lut).lut_mask & (1ull << row);
    probe.refresh(lut);
  }
  EXPECT_EQ(probe.probes(), lut_ids.size());
}

TEST(ForceProbe, MatchesFullReevaluationUnderZeroKnowledge) {
  for (const std::string& kind : defense::registry().names()) {
    for (const char* bench : {"s641", "s1238", "s5378a", "s9234a"}) {
      SCOPED_TRACE(std::string(bench) + "/" + kind);
      const Netlist nl = locked_netlist(bench, kind);
      LutKnowledgeMap luts = unknown_luts(nl);
      const std::vector<Tri> all_x(nl.inputs().size() + nl.dffs().size(),
                                   Tri::kX);
      expect_matches_reference(nl, luts, all_x, /*learn=*/false);
    }
  }
}

TEST(ForceProbe, MatchesFullReevaluationUnderPartialKnowledge) {
  Rng rng(11);
  for (const std::string& kind : defense::registry().names()) {
    for (const char* bench : {"s641", "s1238", "s5378a", "s9234a"}) {
      SCOPED_TRACE(std::string(bench) + "/" + kind);
      const Netlist nl = locked_netlist(bench, kind);
      // Half the rows of each LUT resolved to their real values; inputs
      // mostly definite, some unknown.
      LutKnowledgeMap luts = unknown_luts(nl);
      for (auto& [id, st] : luts) {
        for (std::uint32_t row = 0; row < st.rows; ++row) {
          if (!rng.chance(0.5)) continue;
          st.known_mask |= 1ull << row;
          st.value_mask |= nl.cell(id).lut_mask & (1ull << row);
        }
      }
      std::vector<Tri> inputs(nl.inputs().size() + nl.dffs().size());
      for (Tri& v : inputs) {
        v = rng.chance(0.2) ? Tri::kX : tri_from_bool(rng.chance(0.5));
      }
      expect_matches_reference(nl, luts, inputs, /*learn=*/true);
    }
  }
}

TEST(ForceProbe, MaskedLutIsBlockedAndObservableLutIsSensitized) {
  Netlist nl("masked");
  const CellId a = nl.add_input("a");
  const CellId c0 = nl.add_gate(CellKind::kConst0, "c0", {});
  const CellId c1 = nl.add_gate(CellKind::kConst1, "c1", {});
  const CellId l = nl.add_lut("l", {a}, 0x2);
  const CellId y = nl.add_gate(CellKind::kAnd, "y", {l, c0});  // always 0
  const CellId d = nl.add_gate(CellKind::kOr, "d", {l, c1});   // always 1
  const CellId ff = nl.add_dff("ff", d);
  const CellId m = nl.add_lut("m", {ff}, 0x1);
  const CellId z = nl.add_gate(CellKind::kBuf, "z", {m});
  nl.mark_output(y);
  nl.mark_output(z);
  // Observation points: y, z, then ff's D pin (d).

  // Unknown input, known state bit.
  const std::vector<Tri> inputs = {Tri::kX, Tri::kZero};
  LutKnowledgeMap luts = unknown_luts(nl);
  {
    const PartialEvaluator evaluator(nl, luts);
    ForceProbe probe(evaluator);
    probe.rebase(evaluator.eval(inputs));

    probe.force(l);
    EXPECT_EQ(probe.value(0, y), Tri::kZero);
    EXPECT_EQ(probe.value(1, y), Tri::kZero);
    EXPECT_EQ(probe.value(0, d), Tri::kOne);
    EXPECT_EQ(probe.value(1, d), Tri::kOne);
    EXPECT_EQ(probe.first_sensitized(), -1);
    // z is X in both lanes, so the masking proof does not go through.
    EXPECT_FALSE(probe.masked());

    probe.force(m);
    EXPECT_EQ(probe.value(0, z), Tri::kZero);
    EXPECT_EQ(probe.value(1, z), Tri::kOne);
    EXPECT_EQ(probe.first_sensitized(), 1);
    EXPECT_FALSE(probe.masked());
  }

  // Once m's reachable row is known, z is a constant and l is masked.
  luts.at(m).known_mask = 0x1;
  luts.at(m).value_mask = 0x1;
  const PartialEvaluator evaluator(nl, luts);
  ForceProbe probe(evaluator);
  probe.rebase(evaluator.eval(inputs));
  probe.force(l);
  EXPECT_TRUE(probe.masked());
  EXPECT_EQ(probe.first_sensitized(), -1);
  EXPECT_EQ(probe.value(0, z), Tri::kOne);
}

TEST(ForceProbe, DffDPinIsASink) {
  Netlist nl("sink");
  const CellId a = nl.add_input("a");
  const CellId n = nl.add_lut("n", {a}, 0x2);
  const CellId g = nl.add_dff("g", n);
  const CellId q = nl.add_gate(CellKind::kBuf, "q", {g});
  nl.mark_output(q);
  // Observation points: q, then g's D pin (n).

  const LutKnowledgeMap luts = unknown_luts(nl);
  const PartialEvaluator evaluator(nl, luts);
  ForceProbe probe(evaluator);
  probe.rebase(evaluator.eval({Tri::kX, Tri::kOne}));
  probe.force(n);
  // The state bit and everything it drives keep their base value...
  for (const int lane : {0, 1}) {
    EXPECT_EQ(probe.value(lane, g), Tri::kOne);
    EXPECT_EQ(probe.value(lane, q), Tri::kOne);
  }
  // ...and the D pin itself is where the forced value is observed.
  EXPECT_EQ(probe.first_sensitized(), 1);
  EXPECT_EQ(probe.cells_evaluated(), 0u);
}

}  // namespace
}  // namespace stt
