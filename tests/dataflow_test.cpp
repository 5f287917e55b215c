// The attacker-view dataflow passes (verify/dataflow): their behavior on
// hand-built netlists, the attacker-view ternary wave the analyses start
// from (PartialEvaluator with zero LUT knowledge), and the refinement the
// support pass promises — every ternary fact it does not cut is provable
// there — pinned on real locked benchmarks.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "defense/registry.hpp"
#include "sim/partial_eval.hpp"
#include "synth/generator.hpp"
#include "tech/tech_library.hpp"
#include "util/rng.hpp"
#include "verify/dataflow.hpp"

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

// The attacker-view ternary wave: every PI, state bit and LUT output X.
std::vector<Tri> attacker_wave(const Netlist& nl) {
  const LutKnowledgeMap luts = unknown_luts(nl);
  return PartialEvaluator(nl, luts).eval(
      std::vector<Tri>(nl.inputs().size() + nl.dffs().size(), Tri::kX));
}

// -- forward ternary --------------------------------------------------------

TEST(TernaryDataflow, ConstantsPropagateAndLutOutputsAreUnknown) {
  Netlist nl("tern");
  const CellId a = nl.add_input("a");
  const CellId c0 = nl.add_gate(CellKind::kConst0, "c0", {});
  const CellId y = nl.add_gate(CellKind::kAnd, "y", {a, c0});
  const CellId l = nl.add_lut("l", {a}, 0x2);  // BUF mask — secret to the pass
  const CellId z = nl.add_gate(CellKind::kOr, "z", {l, c0});
  nl.mark_output(y);
  nl.mark_output(z);

  const std::vector<Tri> v = attacker_wave(nl);
  EXPECT_EQ(v[a], Tri::kX);      // primary input
  EXPECT_EQ(v[c0], Tri::kZero);  // constant source
  EXPECT_EQ(v[y], Tri::kZero);   // AND with a controlling 0
  EXPECT_EQ(v[l], Tri::kX);      // LUT mask is secret (attacker view)
  EXPECT_EQ(v[z], Tri::kX);      // OR(X, 0) = X
}

TEST(TernaryDataflow, ForceProbePinsOneCell) {
  Netlist nl("force");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId y = nl.add_gate(CellKind::kAnd, "y", {a, b});
  nl.mark_output(y);

  const LutKnowledgeMap luts = unknown_luts(nl);
  const PartialEvaluator evaluator(nl, luts);
  ForceProbe probe(evaluator);
  probe.rebase(attacker_wave(nl));
  probe.force(a);
  EXPECT_EQ(probe.value(0, a), Tri::kZero);
  EXPECT_EQ(probe.value(0, y), Tri::kZero);  // 0 controls the AND regardless of b
  EXPECT_EQ(probe.value(1, y), Tri::kX);     // AND(1, X) = X
}

TEST(TernaryDataflow, DffOutputsAreUnknownSources) {
  Netlist nl("seq");
  const CellId a = nl.add_input("a");
  const CellId c1 = nl.add_gate(CellKind::kConst1, "c1", {});
  const CellId ff = nl.add_dff("ff", c1);  // driven by a constant...
  const CellId y = nl.add_gate(CellKind::kAnd, "y", {a, ff});
  nl.mark_output(y);

  const std::vector<Tri> v = attacker_wave(nl);
  // ...but the state bit is still a source: the forward edge is cut at the
  // D pin, so the initial-state-unknown semantics hold.
  EXPECT_EQ(v[ff], Tri::kX);
  EXPECT_EQ(v[y], Tri::kX);
}

// -- backward observability -------------------------------------------------

TEST(ObservabilityDataflow, DeadConesAreUnobservable) {
  Netlist nl("obs");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId g1 = nl.add_gate(CellKind::kAnd, "g1", {a, b});
  const CellId g2 = nl.add_gate(CellKind::kOr, "g2", {a, b});  // dangles
  const CellId g3 = nl.add_gate(CellKind::kNot, "g3", {b});
  const CellId ff = nl.add_dff("ff", g3);  // D pin is an observation point
  nl.mark_output(g1);

  const std::vector<char> v = observable_cells(nl, nl.topo_order());
  EXPECT_EQ(v[g1], 1);  // primary output
  EXPECT_EQ(v[g2], 0);  // no path to any observation point
  EXPECT_EQ(v[g3], 1);  // feeds a DFF D pin
  EXPECT_EQ(v[a], 1);   // reaches g1
  EXPECT_EQ(v[ff], 0);  // the state bit itself drives nothing
}

// -- support functions ------------------------------------------------------

TEST(SupportDataflow, RedundantMuxDropsItsSelect) {
  // y = OR(AND(s, a), AND(NOT s, a)) == a: the select is functionally
  // vacuous. Ternary says X for everything; the support pass proves the
  // collapse — the strict refinement it promises over the ternary wave.
  Netlist nl("mux");
  const CellId s = nl.add_input("s");
  const CellId a = nl.add_input("a");
  const CellId n = nl.add_gate(CellKind::kNot, "n", {s});
  const CellId t1 = nl.add_gate(CellKind::kAnd, "t1", {s, a});
  const CellId t2 = nl.add_gate(CellKind::kAnd, "t2", {n, a});
  const CellId y = nl.add_gate(CellKind::kOr, "y", {t1, t2});
  nl.mark_output(y);

  SupportCuts cuts;
  const std::vector<SupportFunction> v =
      support_functions(nl, nl.topo_order(), cuts);

  EXPECT_EQ(attacker_wave(nl)[y], Tri::kX);  // the coarse layer cannot see it

  ASSERT_EQ(v[y].vars.size(), 1u);
  EXPECT_EQ(v[y].vars[0], a);
  EXPECT_TRUE(v[y].depends_on(a));
  EXPECT_FALSE(v[y].depends_on(s));
  EXPECT_EQ(v[y].mask, 0x2u);  // identity in a
}

// -- word-parallel transfer against a per-row reference ---------------------

// The row-at-a-time support pass the word-parallel one replaced, kept as the
// reference: merge the fan-in supports into a sorted vector, evaluate the
// gate on every row of the merged table, then drop vacuous variables one
// projection at a time.
struct RowFunction {
  std::vector<CellId> vars;
  std::uint64_t mask = 0;
};

RowFunction row_variable(CellId id) { return {{id}, 0b10}; }

void row_normalize(RowFunction& f) {
  for (int i = static_cast<int>(f.vars.size()) - 1; i >= 0; --i) {
    const int k = static_cast<int>(f.vars.size());
    bool depends = false;
    for (std::uint32_t row = 0; row < num_rows(k) && !depends; ++row) {
      if (row & (1u << i)) continue;
      const std::uint32_t partner = row | (1u << i);
      depends = ((f.mask >> row) & 1ull) != ((f.mask >> partner) & 1ull);
    }
    if (depends) continue;
    std::uint64_t next = 0;
    std::uint32_t out_row = 0;
    for (std::uint32_t row = 0; row < num_rows(k); ++row) {
      if (row & (1u << i)) continue;
      if ((f.mask >> row) & 1ull) next |= (1ull << out_row);
      ++out_row;
    }
    f.mask = next;
    f.vars.erase(f.vars.begin() + i);
  }
}

RowFunction row_transfer(const Netlist& nl, CellId id,
                         const std::vector<RowFunction>& fn,
                         SupportCuts& cuts) {
  const Cell& c = nl.cell(id);
  if (c.kind == CellKind::kConst0) return {{}, 0};
  if (c.kind == CellKind::kConst1) return {{}, 1};
  const auto cut_here = [&] {
    cuts.cut[id] = 1;
    for (const CellId f : c.fanins) {
      for (const CellId v : fn[f].vars) cuts.absorbed[v] = 1;
    }
    return row_variable(id);
  };
  if (c.kind == CellKind::kLut) return cut_here();

  std::vector<CellId> merged;
  for (const CellId f : c.fanins) {
    for (const CellId v : fn[f].vars) {
      const auto it = std::lower_bound(merged.begin(), merged.end(), v);
      if (it == merged.end() || *it != v) merged.insert(it, v);
    }
  }
  if (static_cast<int>(merged.size()) > kMaxLutInputs) return cut_here();

  const int k = static_cast<int>(merged.size());
  RowFunction out;
  for (std::uint32_t row = 0; row < num_rows(k); ++row) {
    std::uint32_t packed = 0;
    for (std::size_t i = 0; i < c.fanins.size(); ++i) {
      const RowFunction& f = fn[c.fanins[i]];
      std::uint32_t sub_row = 0;
      for (std::size_t j = 0; j < f.vars.size(); ++j) {
        const auto pos = std::lower_bound(merged.begin(), merged.end(),
                                          f.vars[j]) - merged.begin();
        if (row & (1u << pos)) sub_row |= (1u << j);
      }
      if ((f.mask >> sub_row) & 1ull) packed |= (1u << i);
    }
    if (eval_gate(c.kind, packed, c.fanin_count())) out.mask |= (1ull << row);
  }
  out.vars = std::move(merged);
  row_normalize(out);
  return out;
}

// Every cell's function, cut and absorbed flag, word-parallel vs per-row.
// Returns the number of gates cut for width (LUT cuts excluded).
int expect_support_matches_rows(const Netlist& nl) {
  const std::vector<CellId> order = nl.topo_order();
  SupportCuts cuts;
  const std::vector<SupportFunction> fn = support_functions(nl, order, cuts);

  SupportCuts ref_cuts;
  ref_cuts.cut.assign(nl.size(), 0);
  ref_cuts.absorbed.assign(nl.size(), 0);
  std::vector<RowFunction> ref(nl.size());
  for (const CellId id : order) {
    const CellKind kind = nl.cell(id).kind;
    ref[id] = kind == CellKind::kInput || kind == CellKind::kDff
                  ? row_variable(id)
                  : row_transfer(nl, id, ref, ref_cuts);
  }

  int width_cuts = 0;
  for (CellId id = 0; id < nl.size(); ++id) {
    SCOPED_TRACE(std::string(nl.cell(id).name));
    EXPECT_EQ(std::vector<CellId>(fn[id].vars.begin(), fn[id].vars.end()),
              ref[id].vars);
    EXPECT_EQ(fn[id].mask, ref[id].mask);
    EXPECT_EQ(cuts.cut[id], ref_cuts.cut[id]);
    EXPECT_EQ(cuts.absorbed[id], ref_cuts.absorbed[id]);
    if (cuts.cut[id] && nl.cell(id).kind != CellKind::kLut) ++width_cuts;
  }
  return width_cuts;
}

// A random sequential netlist over every cell kind: constants, flip-flops,
// LUTs with random masks, and gates up to kMaxGateInputs wide drawn from a
// small input set, so wide gates both stay within the 6-variable support
// (shared or constant fan-ins) and overflow it.
Netlist fuzz_netlist(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  Netlist nl("fuzz" + std::to_string(seed));
  std::vector<CellId> pool;
  const int inputs = 2 + static_cast<int>(rng.below(7));
  for (int i = 0; i < inputs; ++i) {
    pool.push_back(nl.add_input("i" + std::to_string(i)));
  }
  pool.push_back(nl.add_const(false, "c0"));
  pool.push_back(nl.add_const(true, "c1"));
  std::vector<CellId> dffs;
  for (int i = 0, n = static_cast<int>(rng.below(4)); i < n; ++i) {
    dffs.push_back(nl.add_dff("f" + std::to_string(i)));
    pool.push_back(dffs.back());
  }
  const CellKind kinds[] = {CellKind::kBuf, CellKind::kNot,  CellKind::kAnd,
                            CellKind::kNand, CellKind::kOr,  CellKind::kNor,
                            CellKind::kXor, CellKind::kXnor, CellKind::kLut};
  const int n_kinds = static_cast<int>(std::size(kinds));
  for (int g = 0; g < 80; ++g) {
    const CellKind kind = kinds[g < n_kinds ? g : rng.below(n_kinds)];
    int arity = 1;
    if (kind == CellKind::kLut) {
      arity = 1 + static_cast<int>(rng.below(kMaxLutInputs));
    } else if (kind != CellKind::kBuf && kind != CellKind::kNot) {
      arity = rng.chance(0.25)
                  ? 7 + static_cast<int>(rng.below(kMaxGateInputs - 6))
                  : 2 + static_cast<int>(rng.below(3));
    }
    std::vector<CellId> fanins;
    for (int i = 0; i < arity; ++i) fanins.push_back(rng.pick(pool));
    const std::string name = "g" + std::to_string(g);
    pool.push_back(kind == CellKind::kLut
                       ? nl.add_lut(name, fanins, rng() & full_mask(arity))
                       : nl.add_gate(kind, name, fanins));
  }
  for (const CellId ff : dffs) nl.connect(ff, {rng.pick(pool)});
  for (std::size_t i = pool.size() - 6; i < pool.size(); ++i) {
    nl.mark_output(pool[i]);
  }
  nl.finalize();
  return nl;
}

TEST(SupportDataflow, WordParallelMatchesRowReference) {
  int width_cuts = 0;
  int wide_kept = 0;  // gates wider than 6 pins whose support fits
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    SCOPED_TRACE(seed);
    const Netlist nl = fuzz_netlist(seed);
    width_cuts += expect_support_matches_rows(nl);
    SupportCuts cuts;
    (void)support_functions(nl, nl.topo_order(), cuts);
    for (CellId id = 0; id < nl.size(); ++id) {
      if (nl.cell(id).fanin_count() > kMaxLutInputs && !cuts.cut[id]) {
        ++wide_kept;
      }
    }
  }
  // The fuzz set must exercise both sides of the width bound.
  EXPECT_GT(width_cuts, 0);
  EXPECT_GT(wide_kept, 0);

  for (const char* bench : {"s641", "s1238", "s9234a"}) {
    for (const std::string& kind : defense::registry().names()) {
      SCOPED_TRACE(std::string(bench) + "/" + kind);
      (void)expect_support_matches_rows(locked_netlist(bench, kind));
    }
  }
}

// -- refinement conformance on locked benchmarks ----------------------------

TEST(DataflowConformance, SupportRefinesTernaryOnLockedBenches) {
  for (const char* kind : {"xor", "const", "latch"}) {
    const Netlist nl = locked_netlist("s820", kind);
    const std::vector<Tri> t = attacker_wave(nl);

    SupportCuts cuts;
    const std::vector<SupportFunction> v =
        support_functions(nl, nl.topo_order(), cuts);

    for (CellId id = 0; id < nl.size(); ++id) {
      if (t[id] == Tri::kX || cuts.cut[id]) continue;
      // Every ternary-definite cell the support pass did not cut must be
      // the same constant function.
      ASSERT_TRUE(v[id].is_constant())
          << kind << ": support lost a ternary fact at " << nl.cell(id).name;
      EXPECT_EQ(v[id].constant_value(), t[id] == Tri::kOne);
    }
  }
}

}  // namespace
}  // namespace stt
