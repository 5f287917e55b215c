// Key-dependency analysis (verify/keydep) and the oracle-free "static"
// attack built on it: the defense-kind x benchmark verdict grid, the
// injected-constant recovery guarantee, chain collapse, and the
// deterministic finding order the lint JSON depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "attack/registry.hpp"
#include "core/hybrid.hpp"
#include "defense/registry.hpp"
#include "synth/generator.hpp"
#include "tech/tech_library.hpp"
#include "verify/keydep.hpp"
#include "verify/lint.hpp"

namespace stt {
namespace {

defense::DefenseResult lock(const std::string& bench,
                            const std::string& kind) {
  const auto profile = find_profile(bench);
  EXPECT_TRUE(profile.has_value());
  const Netlist original = generate_circuit(*profile, 7);
  const TechLibrary lib = TechLibrary::cmos90_stt();
  defense::DefenseOptions opt;
  opt.seed = 7;
  return defense::registry().apply(kind, original, lib, opt, {});
}

KeydepResult analyze(const defense::DefenseResult& r) {
  KeydepOptions opt;
  opt.defense = r.annotations;
  return analyze_keydep(r.locked, opt);
}

// 64-bit FNV-1a, for pinning a whole JSON document in one constant.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

int count_rule(const std::vector<LintFinding>& findings, LintRule rule) {
  int n = 0;
  for (const LintFinding& f : findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

// -- the defense x benchmark grid -------------------------------------------

TEST(Keydep, VerdictGridAcrossAllDefensesAndBenches) {
  for (const std::string& kind : defense::registry().names()) {
    for (const char* bench : {"s641", "s820", "s1238"}) {
      const defense::DefenseResult r = lock(bench, kind);
      const KeydepResult k = analyze(r);
      SCOPED_TRACE(std::string(bench) + "/" + kind);

      // The original is pure CMOS, so every LUT is the defense's.
      EXPECT_EQ(k.key_cells, r.key_cells);
      EXPECT_EQ(k.key_bits, r.key_bits);
      // The effective key space never exceeds the nominal one.
      EXPECT_LE(k.eff_key_bits, k.key_bits);
      EXPECT_LE(k.key_bits_static, k.key_bits);

      if (kind == "const") {
        // Generated benches have no constant cells, so every const-defense
        // key cell comes from the injected-constant template — all of them
        // unit-propagate.
        EXPECT_EQ(k.constant_cells, k.key_cells);
        EXPECT_EQ(k.key_bits_static, k.key_bits);
        EXPECT_EQ(k.eff_key_bits, 0);
        EXPECT_EQ(k.verdict(), "broken");
      }
      if (kind == "independent" || kind == "dependent" ||
          kind == "parametric") {
        // The paper's camouflaged-LUT flow leaves nothing statically
        // recoverable.
        EXPECT_EQ(k.constant_cells, 0);
        EXPECT_EQ(k.removable_cells, 0);
        EXPECT_EQ(k.key_bits_static, 0);
      }
    }
  }
}

TEST(Keydep, XorLockedBenchIsDegradedWithInterferenceJustification) {
  const defense::DefenseResult r = lock("s641", "xor");
  const KeydepResult k = analyze(r);
  // Declared XOR key gates hold 1 bit each (BUF or NOT), so the predicted
  // effective key space is below the nominal 2 bits/LUT1...
  EXPECT_LT(k.eff_key_bits, k.key_bits);
  EXPECT_EQ(k.verdict(), "degraded");
  // ...and the verdict is justified by the interference graph: every
  // non-mutable cell's cone meets another key cell's cone.
  EXPECT_FALSE(k.edges.empty());
  for (const KeyCellReport& cell : k.cells) {
    EXPECT_EQ(cell.construct, KeyConstruct::kKeyGate);
    EXPECT_TRUE(cell.verdict == KeyVerdict::kMutable ||
                cell.verdict == KeyVerdict::kPairwiseSecure)
        << cell.name;
    if (cell.verdict == KeyVerdict::kPairwiseSecure) {
      EXPECT_GT(cell.interference_degree, 0) << cell.name;
    }
  }
  EXPECT_EQ(count_rule(k.findings, LintRule::kKeySpace), 1);
}

// The whole `analyze` JSON document, pinned: any change to the support or
// observability passes, the verdicts or the interference graph moves the
// digest.
TEST(Keydep, JsonPinnedOnS820) {
  struct Pin {
    const char* kind;
    std::uint64_t digest;
    int eff_key_bits;
  };
  const Pin pins[] = {
      {"xor", 0x9ea9676e14a9b5abull, 16},
      {"const", 0x16ee7c4bb7d4b85full, 0},
      {"latch", 0xcf3adec17be4fd74ull, 6},
      {"dependent", 0x2b69c4918849f3e7ull, 56},
  };
  for (const Pin& p : pins) {
    SCOPED_TRACE(p.kind);
    const defense::DefenseResult r = lock("s820", p.kind);
    const KeydepResult k = analyze(r);
    EXPECT_EQ(k.eff_key_bits, p.eff_key_bits);
    EXPECT_EQ(fnv1a(keydep_json(r.locked, k)), p.digest);
  }
}

// The rank-ordered first-hit scan against brute force: explicit cone sets,
// their full intersection, and the minimum topo rank inside it.
TEST(Keydep, InterferenceEdgesMatchBruteForceConeIntersection) {
  for (const std::string& kind : defense::registry().names()) {
    for (const char* bench : {"s641", "s820", "s1238"}) {
      SCOPED_TRACE(std::string(bench) + "/" + kind);
      const defense::DefenseResult r = lock(bench, kind);
      const Netlist& nl = r.locked;
      const KeydepResult k = analyze(r);

      const std::vector<CellId> order = nl.topo_order();
      std::vector<std::size_t> rank(nl.size());
      for (std::size_t i = 0; i < order.size(); ++i) rank[order[i]] = i;
      std::vector<CellId> luts;
      std::vector<std::set<CellId>> cones;
      for (CellId id = 0; id < nl.size(); ++id) {
        if (nl.cell(id).kind != CellKind::kLut) continue;
        luts.push_back(id);
        std::set<CellId> cone{id};
        std::vector<CellId> work{id};
        while (!work.empty()) {
          const CellId u = work.back();
          work.pop_back();
          for (const CellId reader : nl.cell(u).fanouts) {
            if (nl.cell(reader).kind == CellKind::kDff) continue;
            if (cone.insert(reader).second) work.push_back(reader);
          }
        }
        cones.push_back(std::move(cone));
      }

      std::vector<KeyInterferenceEdge> expected;
      for (std::size_t i = 0; i < luts.size(); ++i) {
        EXPECT_EQ(k.cells[i].cone_size, static_cast<int>(cones[i].size()));
        for (std::size_t j = i + 1; j < luts.size(); ++j) {
          CellId converge = kNullCell;
          for (const CellId c : cones[i]) {
            if (!cones[j].count(c)) continue;
            if (converge == kNullCell || rank[c] < rank[converge]) converge = c;
          }
          if (converge == kNullCell) continue;
          KeyInterferenceEdge e;
          e.a = luts[i];
          e.b = luts[j];
          e.converge = converge;
          e.series = cones[i].count(luts[j]) || cones[j].count(luts[i]);
          expected.push_back(e);
        }
      }
      ASSERT_EQ(k.edges.size(), expected.size());
      for (std::size_t e = 0; e < expected.size(); ++e) {
        EXPECT_EQ(k.edges[e].a, expected[e].a);
        EXPECT_EQ(k.edges[e].b, expected[e].b);
        EXPECT_EQ(k.edges[e].converge, expected[e].converge);
        EXPECT_EQ(k.edges[e].series, expected[e].series);
      }
    }
  }
}

// -- the oracle-free static attack ------------------------------------------

TEST(StaticAttack, RecoversEveryConstDefenseKeyBitWithZeroQueries) {
  for (const char* bench : {"s641", "s820", "s1238"}) {
    const defense::DefenseResult r = lock(bench, "const");
    const attack::UnifiedResult u = attack::registry().run(
        "static", foundry_view(r.locked), r.locked);
    SCOPED_TRACE(bench);
    EXPECT_EQ(u.outcome, attack::Outcome::kSolved);
    EXPECT_EQ(u.queries, 0u);
    EXPECT_EQ(u.key, r.key);  // bit-exact ground truth, no oracle involved
  }
}

TEST(StaticAttack, AbandonsWhenKeyCellsResistStaticAnalysis) {
  const defense::DefenseResult r = lock("s641", "parametric");
  const attack::UnifiedResult u =
      attack::registry().run("static", foundry_view(r.locked), r.locked);
  EXPECT_EQ(u.outcome, attack::Outcome::kAbandoned);
  EXPECT_EQ(u.queries, 0u);
  EXPECT_TRUE(u.key.empty());
}

TEST(StaticAttack, RejectsUnknownTuning) {
  const defense::DefenseResult r = lock("s641", "const");
  EXPECT_THROW(attack::registry().run("static", foundry_view(r.locked),
                                      r.locked, {}, {{"frames", "3"}}),
               std::invalid_argument);
}

// -- series chains ----------------------------------------------------------

TEST(Keydep, SeriesKeyGateChainCollapsesToOneCompositeBit) {
  // k2(k1(a)) with both declared as key gates: each is BUF or NOT, so the
  // composite is BUF or NOT — one bit for the whole chain, anchored at k1.
  Netlist nl("chain");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId k1 = nl.add_lut("k1", {a}, 0x2);
  const CellId k2 = nl.add_lut("k2", {k1}, 0x2);
  const CellId y = nl.add_gate(CellKind::kOr, "y", {k2, b});
  nl.mark_output(y);

  KeydepOptions opt;
  opt.defense.key_gates = {"k1", "k2"};
  const KeydepResult k = analyze_keydep(nl, opt);

  ASSERT_EQ(k.cells.size(), 2u);
  EXPECT_EQ(k.cells[0].chain, 0);
  EXPECT_EQ(k.cells[1].chain, 0);
  EXPECT_EQ(k.cells[0].effective_bits, 1);  // chain head
  EXPECT_EQ(k.cells[1].effective_bits, 0);  // collapsed member
  EXPECT_EQ(k.key_bits, 4);
  EXPECT_EQ(k.eff_key_bits, 1);
  EXPECT_EQ(k.verdict(), "degraded");

  // The interference edge records the series relation.
  ASSERT_EQ(k.edges.size(), 1u);
  EXPECT_EQ(k.edges[0].a, k1);
  EXPECT_EQ(k.edges[0].b, k2);
  EXPECT_TRUE(k.edges[0].series);

  EXPECT_EQ(count_rule(k.findings, LintRule::kKeyChain), 1);
}

// -- deterministic finding order --------------------------------------------

TEST(Keydep, FindingsAreSortedAndLintJsonIsByteStable) {
  const defense::DefenseResult r = lock("s820", "xor");
  const KeydepResult k = analyze(r);
  const auto key_of = [](const LintFinding& f) {
    return std::make_tuple(f.rule, f.cell_name, f.message);
  };
  EXPECT_TRUE(std::is_sorted(
      k.findings.begin(), k.findings.end(),
      [&](const LintFinding& x, const LintFinding& y) {
        return key_of(x) < key_of(y);
      }));

  // Two independent lock+lint runs must render byte-identical reports —
  // the stability the campaign's CSV/JSON determinism contract builds on.
  LintOptions opt;
  opt.defense = r.annotations;
  const std::string json1 = lint_json(run_lint(r.locked, opt));
  const defense::DefenseResult r2 = lock("s820", "xor");
  LintOptions opt2;
  opt2.defense = r2.annotations;
  const std::string json2 = lint_json(run_lint(r2.locked, opt2));
  EXPECT_EQ(json1, json2);
}

TEST(Keydep, LintSurfacesKeydepBlock) {
  const defense::DefenseResult r = lock("s641", "const");
  LintOptions opt;
  opt.defense = r.annotations;
  const LintReport report = run_lint(r.locked, opt);
  EXPECT_TRUE(report.keydep_ran);
  EXPECT_EQ(report.keydep.verdict(), "broken");
  EXPECT_GT(count_rule(report.findings, LintRule::kKeyConstant), 0);
  // KEY001 is a warning, not an error: annotated defenses still lint clean
  // at the error bar.
  EXPECT_EQ(report.counts.errors, 0);
}

}  // namespace
}  // namespace stt
