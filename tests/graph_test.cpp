#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/analysis.hpp"
#include "graph/paths.hpp"
#include "io/bench_io.hpp"
#include "synth/generator.hpp"

namespace stt {
namespace {

// PI -> g1 -> FF1 -> g2 -> FF2 -> g3 -> PO : a clean 2-flip-flop pipeline.
Netlist pipeline() {
  Netlist nl("pipe");
  const CellId x = nl.add_input("x");
  const CellId y = nl.add_input("y");
  const CellId g1 = nl.add_gate(CellKind::kAnd, "g1", {x, y});
  const CellId f1 = nl.add_dff("f1", g1);
  const CellId g2 = nl.add_gate(CellKind::kOr, "g2", {f1, x});
  const CellId f2 = nl.add_dff("f2", g2);
  const CellId g3 = nl.add_gate(CellKind::kXor, "g3", {f2, y});
  nl.mark_output(g3);
  nl.finalize();
  return nl;
}

TEST(SeqDepth, ToPoCountsFlipFlops) {
  const Netlist nl = pipeline();
  const auto d = seq_depth_to_po(nl);
  EXPECT_EQ(d[nl.find("g3")], 0);
  EXPECT_EQ(d[nl.find("f2")], 0);  // f2's *output* reaches PO directly
  EXPECT_EQ(d[nl.find("g2")], 1);  // must cross f2
  EXPECT_EQ(d[nl.find("g1")], 2);  // crosses f1 and f2
  EXPECT_EQ(d[nl.find("x")], 1);   // best route: via g2, crossing f2
  EXPECT_EQ(d[nl.find("y")], 0);   // y feeds g3 directly
}

TEST(SeqDepth, UnreachableIsMarked) {
  Netlist nl;
  const CellId a = nl.add_input("a");
  const CellId g = nl.add_gate(CellKind::kNot, "g", {a});
  (void)g;  // g drives nothing and is not an output
  nl.finalize();
  const auto d = seq_depth_to_po(nl);
  EXPECT_EQ(d[g], kUnreachable);
}

TEST(CircuitSeqDepth, PipelineIsTwo) {
  EXPECT_EQ(circuit_seq_depth(pipeline()), 2);
}

TEST(CircuitSeqDepth, CombinationalIsOne) {
  Netlist nl;
  const CellId a = nl.add_input("a");
  const CellId g = nl.add_gate(CellKind::kNot, "g", {a});
  nl.mark_output(g);
  nl.finalize();
  EXPECT_EQ(circuit_seq_depth(nl), 1);
}

TEST(CircuitSeqDepth, SelfLoopCountsOnce) {
  // An FF in a feedback loop is one SCC: contributes its size once.
  // count2's two flip-flops share one loop.
  const Netlist nl = embedded_netlist("count2");
  EXPECT_EQ(circuit_seq_depth(nl), 2);
}

TEST(CircuitSeqDepth, S27) {
  // s27's three flip-flops form one feedback SCC.
  const Netlist nl = embedded_netlist("s27");
  EXPECT_EQ(circuit_seq_depth(nl), 3);
}

// ---- test-only reference ----------------------------------------------------
// The flip-flop dependency graph: one node per flip-flop plus a source (PIs)
// and a sink (POs), with an edge wherever a node's output combinationally
// reaches a flip-flop's D pin or a PO. D is the heaviest source-to-sink path
// over its SCC condensation.

// Flip-flops (and whether a PI) combinationally reach `start`, walking back.
std::vector<CellId> ref_seq_sources(const Netlist& nl, CellId start,
                                    bool& from_pi, std::vector<int>& mark,
                                    int stamp) {
  std::vector<CellId> result;
  from_pi = false;
  std::vector<CellId> work{start};
  while (!work.empty()) {
    const CellId u = work.back();
    work.pop_back();
    if (mark[u] == stamp) continue;
    mark[u] = stamp;
    const Cell& c = nl.cell(u);
    if (c.kind == CellKind::kDff) {
      result.push_back(u);
      continue;
    }
    if (c.kind == CellKind::kInput) {
      from_pi = true;
      continue;
    }
    for (const CellId f : c.fanins) work.push_back(f);
  }
  return result;
}

int reference_seq_depth(const Netlist& nl) {
  const auto dffs = nl.dffs();
  const auto n_ff = static_cast<std::uint32_t>(dffs.size());
  const std::uint32_t src = n_ff;
  const std::uint32_t snk = n_ff + 1;
  std::vector<std::vector<std::uint32_t>> adj(n_ff + 2);
  std::vector<std::uint32_t> ff_index(nl.size(), 0);
  for (std::uint32_t i = 0; i < n_ff; ++i) ff_index[dffs[i]] = i;
  std::vector<int> mark(nl.size(), -1);
  int stamp = 0;
  const auto connect = [&](CellId start, std::uint32_t to) {
    bool from_pi = false;
    for (const CellId f : ref_seq_sources(nl, start, from_pi, mark, stamp++)) {
      adj[ff_index[f]].push_back(to);
    }
    if (from_pi) adj[src].push_back(to);
  };
  for (std::uint32_t i = 0; i < n_ff; ++i) {
    if (!nl.cell(dffs[i]).fanins.empty()) {
      connect(nl.cell(dffs[i]).fanins[0], i);
    }
  }
  for (const CellId po : nl.outputs()) connect(po, snk);

  int num_comp = 0;
  const std::vector<int> comp = tarjan_scc(adj, num_comp);
  std::vector<int> weight(num_comp, 0);
  for (std::uint32_t i = 0; i < n_ff; ++i) ++weight[comp[i]];
  std::vector<std::vector<int>> cadj(num_comp);
  for (std::uint32_t u = 0; u < adj.size(); ++u) {
    for (const std::uint32_t v : adj[u]) {
      if (comp[u] != comp[v]) cadj[comp[u]].push_back(comp[v]);
    }
  }
  std::vector<long long> best(num_comp, -1);
  best[comp[snk]] = weight[comp[snk]];
  for (int c = 0; c < num_comp; ++c) {
    long long reach = -1;
    for (const int child : cadj[c]) reach = std::max(reach, best[child]);
    if (reach >= 0) best[c] = std::max(best[c], weight[c] + reach);
  }
  const long long d = best[comp[src]];
  return d <= 0 ? 1 : static_cast<int>(d);
}

int depth_of(const char* bench) {
  const Netlist nl = read_bench(bench, "depth");
  const int d = circuit_seq_depth(nl);
  EXPECT_EQ(d, reference_seq_depth(nl)) << bench;
  return d;
}

TEST(CircuitSeqDepth, DffSelfLoopOffThePiPath) {
  // q holds itself (D = Q) and is not fed by any PI, so its loop is not on a
  // PI -> PO path; a -> r -> g -> s -> o crosses two flip-flops.
  EXPECT_EQ(depth_of("INPUT(a)\nOUTPUT(o)\nq = DFF(q)\nr = DFF(a)\n"
                     "g = AND(q, r)\ns = DFF(g)\no = BUF(s)\n"),
            2);
  // Fed by a PI, a one-flip-flop loop weighs one.
  EXPECT_EQ(depth_of("INPUT(a)\nOUTPUT(o)\nq = DFF(g)\ng = XOR(a, q)\n"
                     "o = BUF(q)\n"),
            1);
}

TEST(CircuitSeqDepth, PoInsideSequentialLoop) {
  // g, f1 and f2 form one SCC that contains the PO itself.
  EXPECT_EQ(depth_of("INPUT(a)\nOUTPUT(g)\nf1 = DFF(g)\nf2 = DFF(f1)\n"
                     "g = XOR(a, f2)\n"),
            2);
}

TEST(CircuitSeqDepth, DPinDrivenByPi) {
  EXPECT_EQ(depth_of("INPUT(a)\nINPUT(b)\nOUTPUT(o)\nf1 = DFF(a)\n"
                     "f2 = DFF(a)\ng = AND(f1, b)\nf3 = DFF(g)\n"
                     "o = OR(f3, f2)\n"),
            2);
}

TEST(CircuitSeqDepth, DPinDrivenByDff) {
  EXPECT_EQ(depth_of("INPUT(a)\nOUTPUT(o)\nf1 = DFF(a)\nf2 = DFF(f1)\n"
                     "f3 = DFF(f2)\no = BUF(f3)\n"),
            3);
}

TEST(CircuitSeqDepth, TwoSccsInSeries) {
  // {g1, f1} (one flip-flop) feeds {g2, f2, f3} (two): 1 + 2.
  EXPECT_EQ(depth_of("INPUT(a)\nOUTPUT(o)\nf1 = DFF(g1)\ng1 = XOR(a, f1)\n"
                     "g2 = XOR(f1, f3)\nf2 = DFF(g2)\nf3 = DFF(f2)\n"
                     "o = BUF(f3)\n"),
            3);
}

TEST(CircuitSeqDepth, MatchesFlipFlopGraphReference) {
  std::vector<CircuitProfile> profiles = iscas89_profiles();
  profiles.push_back(*find_profile("b14"));
  profiles.push_back(*find_profile("b15"));
  for (const CircuitProfile& profile : profiles) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const Netlist nl = generate_circuit(profile, seed);
      EXPECT_EQ(circuit_seq_depth(nl), reference_seq_depth(nl))
          << profile.name << " seed " << seed;
    }
  }
  for (const char* name : {"s27", "count2"}) {
    const Netlist nl = embedded_netlist(name);
    EXPECT_EQ(circuit_seq_depth(nl), reference_seq_depth(nl)) << name;
  }
}

TEST(Tarjan, KnownComponents) {
  // 0 -> 1 -> 2 -> 0 (SCC of 3), 3 -> 4, 2 -> 3.
  std::vector<std::vector<std::uint32_t>> adj(5);
  adj[0] = {1};
  adj[1] = {2};
  adj[2] = {0, 3};
  adj[3] = {4};
  int n = 0;
  const auto comp = tarjan_scc(adj, n);
  EXPECT_EQ(n, 3);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_NE(comp[2], comp[3]);
  EXPECT_NE(comp[3], comp[4]);
  // Reverse topological numbering: edges go to lower component ids.
  EXPECT_GT(comp[2], comp[3]);
  EXPECT_GT(comp[3], comp[4]);
}

TEST(Tarjan, EmptyAndSingleton) {
  std::vector<std::vector<std::uint32_t>> adj;
  int n = -1;
  tarjan_scc(adj, n);
  EXPECT_EQ(n, 0);
  adj.resize(1);
  const auto comp = tarjan_scc(adj, n);
  EXPECT_EQ(n, 1);
  EXPECT_EQ(comp[0], 0);
}

TEST(IoPath, SegmentsSplitAtSequentialCells) {
  const Netlist nl = pipeline();
  IoPath path;
  path.cells = {nl.find("x"), nl.find("g1"), nl.find("f1"),
                nl.find("g2"), nl.find("f2"), nl.find("g3")};
  path.ff_count = 2;
  const auto segs = path.segments(nl);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0], std::vector<CellId>{nl.find("g1")});
  EXPECT_EQ(segs[1], std::vector<CellId>{nl.find("g2")});
  EXPECT_EQ(segs[2], std::vector<CellId>{nl.find("g3")});
}

TEST(PathSampling, WalkEndsAtPiAndPo) {
  const Netlist nl = pipeline();
  Rng rng(1);
  const IoPath path = sample_io_path(nl, nl.find("g2"), rng);
  ASSERT_FALSE(path.cells.empty());
  EXPECT_EQ(nl.cell(path.cells.front()).kind, CellKind::kInput);
  EXPECT_TRUE(nl.cell(path.cells.back()).is_output);
  // ff_count matches the DFFs actually on the walk.
  int ffs = 0;
  for (const CellId id : path.cells) {
    ffs += nl.cell(id).kind == CellKind::kDff;
  }
  EXPECT_EQ(ffs, path.ff_count);
}

class PathPoolProperty : public ::testing::TestWithParam<int> {};

TEST_P(PathPoolProperty, PoolInvariantsOnGeneratedCircuits) {
  CircuitProfile profile{"pool", 8, 6, 8, 120, 8};
  const Netlist nl = generate_circuit(profile, GetParam());
  Rng rng(GetParam() * 31);
  PathPoolOptions opt;
  opt.sample_fraction = 0.10;
  const auto pool = build_path_pool(nl, rng, opt);
  ASSERT_FALSE(pool.empty());
  int prev_depth = std::numeric_limits<int>::max();
  std::set<std::vector<CellId>> unique;
  for (const IoPath& p : pool) {
    EXPECT_EQ(nl.cell(p.cells.front()).kind, CellKind::kInput);
    EXPECT_TRUE(nl.cell(p.cells.back()).is_output);
    EXPECT_LE(p.ff_count, prev_depth);  // sorted deepest first
    prev_depth = p.ff_count;
    EXPECT_TRUE(unique.insert(p.cells).second);  // deduplicated
    // Consecutive cells are actually connected.
    for (std::size_t i = 1; i < p.cells.size(); ++i) {
      const auto& fi = nl.cell(p.cells[i]).fanins;
      EXPECT_NE(std::find(fi.begin(), fi.end(), p.cells[i - 1]), fi.end());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathPoolProperty, ::testing::Range(1, 9));

TEST(PathPool, ExcludeFilterApplies) {
  const Netlist nl = pipeline();
  Rng rng(5);
  PathPoolOptions opt;
  opt.min_ffs = 0;
  const auto all = build_path_pool(nl, rng, opt);
  ASSERT_FALSE(all.empty());
  // Excluding everything gives an empty pool.
  const auto none = build_path_pool(nl, rng, opt,
                                    [](const IoPath&) { return true; });
  EXPECT_TRUE(none.empty());
}

}  // namespace
}  // namespace stt
