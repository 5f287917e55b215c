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
#include "obs/obs.hpp"
#include "synth/generator.hpp"
#include "tech/tech_library.hpp"
#include "verify/keydep.hpp"
#include "verify/lint.hpp"

namespace stt {
namespace {

// Not `lock`: with <mutex> in scope, argument-dependent lookup on the
// std::string arguments would also find std::lock.
defense::DefenseResult lock_bench(const std::string& bench,
                                  const std::string& kind) {
  const auto profile = find_profile(bench);
  EXPECT_TRUE(profile.has_value());
  const Netlist original = generate_circuit(*profile, 7);
  const TechLibrary lib = TechLibrary::cmos90_stt();
  defense::DefenseOptions opt;
  opt.seed = 7;
  return defense::registry().apply(kind, original, lib, opt, {});
}

KeydepResult analyze(
    const defense::DefenseResult& r,
    InterferenceRequest request = InterferenceRequest::kEdges) {
  KeydepOptions opt;
  opt.defense = r.annotations;
  opt.interference = request;
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
      const defense::DefenseResult r = lock_bench(bench, kind);
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
  const defense::DefenseResult r = lock_bench("s641", "xor");
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
    const defense::DefenseResult r = lock_bench("s820", p.kind);
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
      const defense::DefenseResult r = lock_bench(bench, kind);
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

      // Degrees-only: each cell's degree is its count of brute-force edges.
      std::vector<int> degree(luts.size(), 0);
      for (std::size_t i = 0; i < luts.size(); ++i) {
        for (std::size_t j = i + 1; j < luts.size(); ++j) {
          const bool meet = std::any_of(
              cones[i].begin(), cones[i].end(),
              [&](CellId c) { return cones[j].count(c) != 0; });
          degree[i] += meet;
          degree[j] += meet;
        }
      }
      const KeydepResult d = analyze(r, InterferenceRequest::kDegrees);
      ASSERT_EQ(d.cells.size(), luts.size());
      for (std::size_t i = 0; i < luts.size(); ++i) {
        EXPECT_EQ(d.cells[i].interference_degree, degree[i])
            << nl.cell(luts[i]).name;
      }
    }
  }
}

// Degrees-only is the edge-mode result minus the edge list: every cell
// report, counter, finding and verdict is the same, and so are the
// pair-scan counters the run reports.
TEST(Keydep, DegreesOnlyMatchesEdgeMode) {
  std::vector<std::pair<std::string, std::string>> grid;
  for (const std::string& kind : defense::registry().names()) {
    for (const char* bench : {"s641", "s820", "s1238"}) {
      grid.emplace_back(bench, kind);
    }
  }
  grid.emplace_back("b14", "xor");

  obs::Metrics& metrics = obs::Metrics::global();
  obs::Counter& edge_count = metrics.counter("verify.keydep.edges", false);
  obs::Counter& pair_count =
      metrics.counter("verify.keydep.pairs_scanned", false);
  for (const auto& [bench, kind] : grid) {
    SCOPED_TRACE(bench + "/" + kind);
    const defense::DefenseResult r = lock_bench(bench, kind);

    const std::uint64_t edges0 = edge_count.value();
    const std::uint64_t pairs0 = pair_count.value();
    const KeydepResult e = analyze(r, InterferenceRequest::kEdges);
    const std::uint64_t edges1 = edge_count.value();
    const std::uint64_t pairs1 = pair_count.value();
    const KeydepResult d = analyze(r, InterferenceRequest::kDegrees);
    EXPECT_EQ(edge_count.value() - edges1, edges1 - edges0);
    EXPECT_EQ(pair_count.value() - pairs1, pairs1 - pairs0);
    if (obs::kEnabled) {
      EXPECT_EQ(edges1 - edges0, e.edges.size());
    }

    EXPECT_TRUE(d.edges.empty());
    EXPECT_EQ(d.key_cells, e.key_cells);
    EXPECT_EQ(d.key_bits, e.key_bits);
    EXPECT_EQ(d.key_bits_static, e.key_bits_static);
    EXPECT_EQ(d.eff_key_bits, e.eff_key_bits);
    EXPECT_EQ(d.constant_cells, e.constant_cells);
    EXPECT_EQ(d.removable_cells, e.removable_cells);
    EXPECT_EQ(d.mutable_cells, e.mutable_cells);
    EXPECT_EQ(d.pairwise_cells, e.pairwise_cells);
    EXPECT_EQ(d.hard_cells, e.hard_cells);
    EXPECT_EQ(d.verdict(), e.verdict());

    ASSERT_EQ(d.cells.size(), e.cells.size());
    for (std::size_t i = 0; i < e.cells.size(); ++i) {
      const KeyCellReport& x = d.cells[i];
      const KeyCellReport& y = e.cells[i];
      SCOPED_TRACE(y.name);
      EXPECT_EQ(x.cell, y.cell);
      EXPECT_EQ(x.name, y.name);
      EXPECT_EQ(x.fanin, y.fanin);
      EXPECT_EQ(x.nominal_bits, y.nominal_bits);
      EXPECT_EQ(x.reachable_rows, y.reachable_rows);
      EXPECT_EQ(x.reachable_count, y.reachable_count);
      EXPECT_EQ(x.masked, y.masked);
      EXPECT_EQ(x.vacuous, y.vacuous);
      EXPECT_EQ(x.unit_propagated, y.unit_propagated);
      EXPECT_EQ(x.propagated_mask, y.propagated_mask);
      EXPECT_EQ(x.construct, y.construct);
      EXPECT_EQ(x.verdict, y.verdict);
      EXPECT_EQ(x.interference_degree, y.interference_degree);
      EXPECT_EQ(x.cone_size, y.cone_size);
      EXPECT_EQ(x.chain, y.chain);
      EXPECT_EQ(x.effective_bits, y.effective_bits);
    }

    ASSERT_EQ(d.findings.size(), e.findings.size());
    for (std::size_t i = 0; i < e.findings.size(); ++i) {
      EXPECT_EQ(d.findings[i].rule, e.findings[i].rule);
      EXPECT_EQ(d.findings[i].severity, e.findings[i].severity);
      EXPECT_EQ(d.findings[i].cell, e.findings[i].cell);
      EXPECT_EQ(d.findings[i].cell_name, e.findings[i].cell_name);
      EXPECT_EQ(d.findings[i].message, e.findings[i].message);
    }
  }
}

// -- the oracle-free static attack ------------------------------------------

TEST(StaticAttack, RecoversEveryConstDefenseKeyBitWithZeroQueries) {
  for (const char* bench : {"s641", "s820", "s1238"}) {
    const defense::DefenseResult r = lock_bench(bench, "const");
    const attack::UnifiedResult u = attack::registry().run(
        "static", foundry_view(r.locked), r.locked);
    SCOPED_TRACE(bench);
    EXPECT_EQ(u.outcome, attack::Outcome::kSolved);
    EXPECT_EQ(u.queries, 0u);
    EXPECT_EQ(u.key, r.key);  // bit-exact ground truth, no oracle involved
  }
}

TEST(StaticAttack, AbandonsWhenKeyCellsResistStaticAnalysis) {
  const defense::DefenseResult r = lock_bench("s641", "parametric");
  const attack::UnifiedResult u =
      attack::registry().run("static", foundry_view(r.locked), r.locked);
  EXPECT_EQ(u.outcome, attack::Outcome::kAbandoned);
  EXPECT_EQ(u.queries, 0u);
  EXPECT_TRUE(u.key.empty());
}

TEST(StaticAttack, RejectsUnknownTuning) {
  const defense::DefenseResult r = lock_bench("s641", "const");
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
  const defense::DefenseResult r = lock_bench("s820", "xor");
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
  const defense::DefenseResult r2 = lock_bench("s820", "xor");
  LintOptions opt2;
  opt2.defense = r2.annotations;
  const std::string json2 = lint_json(run_lint(r2.locked, opt2));
  EXPECT_EQ(json1, json2);
}

TEST(Keydep, LintSurfacesKeydepBlock) {
  const defense::DefenseResult r = lock_bench("s641", "const");
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
