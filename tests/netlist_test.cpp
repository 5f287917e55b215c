#include <gtest/gtest.h>

#include "netlist/connlist.hpp"
#include "netlist/netlist.hpp"
#include "sim/compiled.hpp"
#include "synth/generator.hpp"
#include "util/rng.hpp"

namespace stt {
namespace {

// Small helper: a = AND(x, y); po(a); ff = DFF(a).
Netlist tiny() {
  Netlist nl("tiny");
  const CellId x = nl.add_input("x");
  const CellId y = nl.add_input("y");
  const CellId a = nl.add_gate(CellKind::kAnd, "a", {x, y});
  const CellId ff = nl.add_dff("ff", a);
  const CellId o = nl.add_gate(CellKind::kOr, "o", {ff, x});
  nl.mark_output(o);
  nl.finalize();
  return nl;
}

// A pool's chunks grow with it: a few spilled lists cost one 1K-id chunk,
// not a whole 64K-id one; a list longer than the next chunk gets its own,
// and slices already handed out never move.
TEST(ConnPool, ChunksGrowWithThePool) {
  ConnPool pool;
  CellId* first = pool.alloc(5);
  for (CellId i = 0; i < 5; ++i) first[i] = 100 + i;
  EXPECT_EQ(pool.capacity_ids(), 1024u);
  for (int i = 0; i < 300; ++i) pool.alloc(5);  // 1505 ids: a second chunk
  EXPECT_EQ(pool.capacity_ids(), 2048u);
  pool.alloc(100000);
  EXPECT_EQ(pool.capacity_ids(), 2048u + 100000u);
  pool.alloc(1);  // growth is capped at 64K ids per chunk
  EXPECT_EQ(pool.capacity_ids(), 2048u + 100000u + 65536u);
  for (CellId i = 0; i < 5; ++i) EXPECT_EQ(first[i], 100 + i);
}

TEST(Netlist, BasicConstruction) {
  const Netlist nl = tiny();
  EXPECT_EQ(nl.size(), 5u);
  EXPECT_EQ(nl.inputs().size(), 2u);
  EXPECT_EQ(nl.dffs().size(), 1u);
  EXPECT_EQ(nl.outputs().size(), 1u);
  const auto s = nl.stats();
  EXPECT_EQ(s.gates, 2u);
  EXPECT_EQ(s.luts, 0u);
  EXPECT_EQ(s.max_fanin, 2);
}

TEST(Netlist, FindByName) {
  const Netlist nl = tiny();
  EXPECT_NE(nl.find("a"), kNullCell);
  EXPECT_EQ(nl.cell(nl.find("a")).kind, CellKind::kAnd);
  EXPECT_EQ(nl.find("nope"), kNullCell);
}

TEST(Netlist, DuplicateNameThrows) {
  Netlist nl;
  nl.add_input("x");
  EXPECT_THROW(nl.add_input("x"), std::runtime_error);
}

TEST(Netlist, EmptyNameThrows) {
  Netlist nl;
  EXPECT_THROW(nl.add_input(""), std::runtime_error);
}

TEST(Netlist, IllegalFaninCountThrows) {
  Netlist nl;
  const CellId x = nl.add_input("x");
  EXPECT_THROW(nl.add_gate(CellKind::kAnd, "g", {x}), std::runtime_error);
  EXPECT_THROW(nl.add_gate(CellKind::kNot, "n", {x, x}), std::runtime_error);
}

TEST(Netlist, FanoutsMirrorFanins) {
  const Netlist nl = tiny();
  const CellId x = nl.find("x");
  // x drives gate "a" and gate "o".
  EXPECT_EQ(nl.cell(x).fanouts.size(), 2u);
  nl.check();  // must not throw
}

TEST(Netlist, ReplaceFaninKeepsSync) {
  Netlist nl = tiny();
  const CellId y = nl.find("y");
  const CellId o = nl.find("o");
  nl.replace_fanin(o, 1, y);  // o = OR(ff, y) now
  nl.check();
  EXPECT_EQ(nl.cell(o).fanins[1], y);
  EXPECT_EQ(nl.cell(nl.find("x")).fanouts.size(), 1u);
}

TEST(Netlist, CombinationalCycleDetected) {
  Netlist nl;
  const CellId x = nl.add_input("x");
  const CellId a = nl.add_cell(CellKind::kAnd, "a");
  const CellId b = nl.add_cell(CellKind::kOr, "b");
  nl.connect(a, {x, b});
  nl.connect(b, {a, x});
  EXPECT_THROW(nl.finalize(), std::runtime_error);
}

TEST(Netlist, SequentialLoopIsLegal) {
  // ff feeds logic that feeds ff: a legal state machine.
  Netlist nl;
  const CellId x = nl.add_input("x");
  const CellId ff = nl.add_cell(CellKind::kDff, "ff");
  const CellId g = nl.add_gate(CellKind::kXor, "g", {x, ff});
  nl.connect(ff, {g});
  nl.mark_output(g);
  EXPECT_NO_THROW(nl.finalize());
}

TEST(Netlist, TopoOrderRespectsDependencies) {
  const Netlist nl = tiny();
  const auto order = nl.topo_order();
  EXPECT_EQ(order.size(), nl.size());
  std::vector<int> position(nl.size());
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = static_cast<int>(i);
  for (CellId id = 0; id < nl.size(); ++id) {
    const Cell& c = nl.cell(id);
    if (c.kind == CellKind::kDff) continue;  // sequential edge exempt
    for (const CellId f : c.fanins) {
      EXPECT_LT(position[f], position[id]);
    }
  }
}

TEST(Netlist, MarkOutputIdempotent) {
  Netlist nl = tiny();
  const CellId o = nl.find("o");
  nl.mark_output(o);
  EXPECT_EQ(nl.outputs().size(), 1u);
}

TEST(Netlist, ReplaceWithLutPreservesTruthMask) {
  Netlist nl = tiny();
  const CellId a = nl.find("a");
  const std::uint64_t mask = nl.replace_with_lut(a);
  EXPECT_EQ(mask, gate_truth_mask(CellKind::kAnd, 2));
  EXPECT_EQ(nl.cell(a).kind, CellKind::kLut);
  EXPECT_EQ(nl.cell(a).lut_mask, mask);
  EXPECT_EQ(nl.stats().luts, 1u);
}

TEST(Netlist, ReplaceNonGateThrows) {
  Netlist nl = tiny();
  EXPECT_THROW(nl.replace_with_lut(nl.find("x")), std::runtime_error);
  EXPECT_THROW(nl.replace_with_lut(nl.find("ff")), std::runtime_error);
}

TEST(Netlist, StructuralEquality) {
  const Netlist a = tiny();
  Netlist b = tiny();
  EXPECT_TRUE(a.structurally_equal(b));
  b.replace_with_lut(b.find("a"));
  EXPECT_FALSE(a.structurally_equal(b));
}

TEST(Netlist, CopyIsDeep) {
  Netlist a = tiny();
  Netlist b = a;
  b.replace_with_lut(b.find("a"));
  EXPECT_EQ(a.cell(a.find("a")).kind, CellKind::kAnd);
}

// Property: replacing any replaceable gate with a functionality-preserving
// LUT leaves the circuit's observable behaviour unchanged, checked by
// random bit-parallel simulation on generated circuits.
class LutReplacementEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(LutReplacementEquivalence, RandomCircuit) {
  const int seed = GetParam();
  CircuitProfile profile{"prop", 6, 4, 4, 60, 6};
  const Netlist original = generate_circuit(profile, seed);
  Netlist hybrid = original;

  Rng rng(seed * 977 + 5);
  int replaced = 0;
  for (const CellId id : hybrid.logic_cells()) {
    if (is_replaceable_gate(hybrid.cell(id).kind) &&
        hybrid.cell(id).fanin_count() <= kMaxLutInputs && rng.chance(0.4)) {
      hybrid.replace_with_lut(id);
      ++replaced;
    }
  }
  ASSERT_GT(replaced, 0);
  hybrid.check();

  // LUT replacement keeps every cell id, so the two waves line up cell for
  // cell: outputs, next state and every internal net must agree.
  const CompiledSim sim_a(original);
  const CompiledSim sim_b(hybrid);
  std::vector<std::uint64_t> pis(original.inputs().size());
  std::vector<std::uint64_t> ffs(original.dffs().size());
  std::vector<std::uint64_t> wa(sim_a.wave_size()), wb(sim_b.wave_size());
  for (int round = 0; round < 8; ++round) {
    for (auto& w : pis) w = rng();
    for (auto& w : ffs) w = rng();
    sim_a.eval_word(pis, ffs, wa);
    sim_b.eval_word(pis, ffs, wb);
    EXPECT_EQ(wa, wb);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LutReplacementEquivalence,
                         ::testing::Range(1, 13));

}  // namespace
}  // namespace stt
