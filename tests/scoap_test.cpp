#include <gtest/gtest.h>

#include <algorithm>

#include "core/selection.hpp"
#include "sim/scoap.hpp"
#include "synth/generator.hpp"
#include "util/rng.hpp"

namespace stt {
namespace {

// ---- test-only reference --------------------------------------------------
// The textbook full-sweep relaxation: every sweep re-evaluates every cell,
// and every cell minimizes over all 3^k cubes, each checked by a scan over
// the truth-table rows. compute_scoap must reproduce it exactly.

constexpr double kRefInf = 1e17;

double ref_cap(double v) { return std::min(v, kRefInf); }

std::uint64_t ref_func_mask(const Cell& c) {
  switch (c.kind) {
    case CellKind::kConst0:
      return 0;
    case CellKind::kConst1:
      return full_mask(0);
    case CellKind::kLut:
      return c.lut_mask;
    default:
      return gate_truth_mask(c.kind, c.fanin_count());
  }
}

ScoapResult reference_scoap(const Netlist& nl, const ScoapOptions& opt) {
  ScoapResult r;
  r.cc0.assign(nl.size(), kRefInf);
  r.cc1.assign(nl.size(), kRefInf);
  r.co.assign(nl.size(), kRefInf);
  const auto order = nl.topo_order();

  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    ++r.sweeps;
    bool changed = false;
    for (const CellId id : order) {
      const Cell& c = nl.cell(id);
      double new0 = r.cc0[id];
      double new1 = r.cc1[id];
      switch (c.kind) {
        case CellKind::kInput:
          new0 = new1 = 1;
          break;
        case CellKind::kConst0:
          new0 = 0;
          break;
        case CellKind::kConst1:
          new1 = 0;
          break;
        case CellKind::kDff:
          if (!c.fanins.empty()) {
            new0 = ref_cap(r.cc0[c.fanins[0]] + opt.sequential_increment);
            new1 = ref_cap(r.cc1[c.fanins[0]] + opt.sequential_increment);
          }
          break;
        default: {
          if (opt.attacker_view && c.kind == CellKind::kLut) {
            new0 = new1 = opt.unknown_lut_cost;
            break;
          }
          if (c.fanin_count() > kMaxLutInputs) {
            double sum0 = 0, sum1 = 0, min0 = kRefInf, min1 = kRefInf,
                   summin = 0;
            for (const CellId f : c.fanins) {
              sum0 += r.cc0[f];
              sum1 += r.cc1[f];
              min0 = std::min(min0, r.cc0[f]);
              min1 = std::min(min1, r.cc1[f]);
              summin += std::min(r.cc0[f], r.cc1[f]);
            }
            switch (c.kind) {
              case CellKind::kAnd:
                new1 = ref_cap(sum1 + 1);
                new0 = ref_cap(min0 + 1);
                break;
              case CellKind::kNand:
                new0 = ref_cap(sum1 + 1);
                new1 = ref_cap(min0 + 1);
                break;
              case CellKind::kOr:
                new0 = ref_cap(sum0 + 1);
                new1 = ref_cap(min1 + 1);
                break;
              case CellKind::kNor:
                new1 = ref_cap(sum0 + 1);
                new0 = ref_cap(min1 + 1);
                break;
              default:
                new0 = new1 = ref_cap(summin + 1);
                break;
            }
            break;
          }
          const std::uint64_t mask = ref_func_mask(c);
          const int k = c.fanin_count();
          double best0 = kRefInf;
          double best1 = kRefInf;
          std::uint32_t cubes = 1;
          for (int i = 0; i < k; ++i) cubes *= 3;
          for (std::uint32_t code = 0; code < cubes; ++code) {
            std::uint32_t t = code;
            double cost = 1;
            std::uint32_t fixed_mask = 0;
            std::uint32_t fixed_val = 0;
            for (int i = 0; i < k; ++i, t /= 3) {
              if (t % 3 == 0) {
                fixed_mask |= (1u << i);
                cost += r.cc0[c.fanins[i]];
              } else if (t % 3 == 1) {
                fixed_mask |= (1u << i);
                fixed_val |= (1u << i);
                cost += r.cc1[c.fanins[i]];
              }
            }
            cost = ref_cap(cost);
            bool all0 = true;
            bool all1 = true;
            for (std::uint32_t row = 0; row < num_rows(k); ++row) {
              if ((row & fixed_mask) != fixed_val) continue;
              ((mask >> row) & 1ull) ? all0 = false : all1 = false;
            }
            if (all1) best1 = std::min(best1, cost);
            if (all0) best0 = std::min(best0, cost);
          }
          new0 = best0;
          new1 = best1;
          break;
        }
      }
      if (new0 < r.cc0[id] || new1 < r.cc1[id]) {
        r.cc0[id] = std::min(r.cc0[id], new0);
        r.cc1[id] = std::min(r.cc1[id], new1);
        changed = true;
      }
    }
    if (!changed) break;
  }

  for (const CellId id : nl.outputs()) r.co[id] = 0;
  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    ++r.sweeps;
    bool changed = false;
    const auto lower = [&](CellId f, double v) {
      if (v < r.co[f]) {
        r.co[f] = v;
        changed = true;
      }
    };
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const CellId id = *it;
      const Cell& c = nl.cell(id);
      if (c.kind == CellKind::kDff) {
        if (!c.fanins.empty()) {
          lower(c.fanins[0], ref_cap(r.co[id] + opt.sequential_increment));
        }
        continue;
      }
      if (!is_combinational(c.kind) || c.fanins.empty()) continue;
      if (opt.attacker_view && c.kind == CellKind::kLut) {
        for (const CellId f : c.fanins) {
          lower(f, ref_cap(r.co[id] + opt.unknown_lut_cost));
        }
        continue;
      }
      const int k = c.fanin_count();
      if (k > kMaxLutInputs) {
        for (int i = 0; i < k; ++i) {
          double side = 1;
          for (int j = 0; j < k; ++j) {
            if (j == i) continue;
            const CellId f = c.fanins[j];
            switch (c.kind) {
              case CellKind::kAnd:
              case CellKind::kNand:
                side += r.cc1[f];
                break;
              case CellKind::kOr:
              case CellKind::kNor:
                side += r.cc0[f];
                break;
              default:
                side += std::min(r.cc0[f], r.cc1[f]);
                break;
            }
          }
          lower(c.fanins[i], ref_cap(r.co[id] + side));
        }
        continue;
      }
      const std::uint64_t mask = ref_func_mask(c);
      for (int i = 0; i < k; ++i) {
        double best = kRefInf;
        std::uint32_t cubes = 1;
        for (int j = 0; j < k - 1; ++j) cubes *= 3;
        for (std::uint32_t code = 0; code < cubes; ++code) {
          std::uint32_t t = code;
          double cost = 1;
          std::uint32_t fixed_mask = 0;
          std::uint32_t fixed_val = 0;
          for (int j = 0; j < k; ++j) {
            if (j == i) continue;
            const std::uint32_t tv = t % 3;
            t /= 3;
            if (tv == 0) {
              fixed_mask |= (1u << j);
              cost += r.cc0[c.fanins[j]];
            } else if (tv == 1) {
              fixed_mask |= (1u << j);
              fixed_val |= (1u << j);
              cost += r.cc1[c.fanins[j]];
            }
          }
          cost = ref_cap(cost);
          bool sensitive = true;
          for (std::uint32_t row = 0; row < num_rows(k) && sensitive; ++row) {
            if (row & (1u << i)) continue;
            if ((row & fixed_mask) != fixed_val) continue;
            sensitive = ((mask >> row) & 1ull) !=
                        ((mask >> (row | (1u << i))) & 1ull);
          }
          if (sensitive) best = std::min(best, cost);
        }
        lower(c.fanins[i], ref_cap(r.co[id] + best));
      }
    }
    if (!changed) break;
  }
  return r;
}

// A generated circuit with a share of its narrow gates turned into LUTs
// holding random masks, so the cube tables meet many distinct functions.
Netlist with_random_luts(const CircuitProfile& profile, std::uint64_t seed) {
  Netlist nl = generate_circuit(profile, seed);
  Rng rng(seed * 7919 + 1);
  for (CellId id = 0; id < nl.size(); ++id) {
    const Cell& c = nl.cell(id);
    const int k = c.fanin_count();
    if (!is_replaceable_gate(c.kind) || k > kMaxLutInputs) continue;
    if (rng.below(4) != 0) continue;
    nl.replace_with_lut(id, rng() & full_mask(k));
  }
  return nl;
}

void expect_matches_reference(const Netlist& nl, const ScoapOptions& opt,
                              const std::string& label) {
  const ScoapResult got = compute_scoap(nl, opt);
  const ScoapResult want = reference_scoap(nl, opt);
  EXPECT_TRUE(got.cc0 == want.cc0) << label;
  EXPECT_TRUE(got.cc1 == want.cc1) << label;
  EXPECT_TRUE(got.co == want.co) << label;
  EXPECT_EQ(got.sweeps, want.sweeps) << label;
}

TEST(Scoap, PrimaryInputsCostOne) {
  Netlist nl;
  const CellId a = nl.add_input("a");
  const CellId g = nl.add_gate(CellKind::kNot, "g", {a});
  nl.mark_output(g);
  nl.finalize();
  const auto r = compute_scoap(nl);
  EXPECT_DOUBLE_EQ(r.cc0[a], 1.0);
  EXPECT_DOUBLE_EQ(r.cc1[a], 1.0);
  // NOT: CC0(g) = CC1(a)+1 = 2; CC1(g) = CC0(a)+1 = 2.
  EXPECT_DOUBLE_EQ(r.cc0[g], 2.0);
  EXPECT_DOUBLE_EQ(r.cc1[g], 2.0);
  EXPECT_DOUBLE_EQ(r.co[g], 0.0);   // drives a PO
  EXPECT_DOUBLE_EQ(r.co[a], 1.0);   // through the inverter
}

TEST(Scoap, AndGateTextbookValues) {
  Netlist nl;
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId g = nl.add_gate(CellKind::kAnd, "g", {a, b});
  nl.mark_output(g);
  nl.finalize();
  const auto r = compute_scoap(nl);
  // CC1(AND) = CC1(a)+CC1(b)+1 = 3; CC0(AND) = min(CC0(a),CC0(b))+1 = 2.
  EXPECT_DOUBLE_EQ(r.cc1[g], 3.0);
  EXPECT_DOUBLE_EQ(r.cc0[g], 2.0);
  // CO(a) = CO(g) + CC1(b) + 1 = 2.
  EXPECT_DOUBLE_EQ(r.co[a], 2.0);
}

TEST(Scoap, ConstantsAreOneSided) {
  Netlist nl;
  const CellId zero = nl.add_const(false, "zero");
  const CellId a = nl.add_input("a");
  const CellId g = nl.add_gate(CellKind::kOr, "g", {zero, a});
  nl.mark_output(g);
  nl.finalize();
  const auto r = compute_scoap(nl);
  EXPECT_DOUBLE_EQ(r.cc0[zero], 0.0);
  EXPECT_GT(r.cc1[zero], 1e12);  // cannot set a tied-low net to 1
}

TEST(Scoap, FlipFlopAddsSequentialIncrement) {
  Netlist nl;
  const CellId a = nl.add_input("a");
  const CellId ff = nl.add_dff("ff", a);
  const CellId g = nl.add_gate(CellKind::kNot, "g", {ff});
  nl.mark_output(g);
  nl.finalize();
  ScoapOptions opt;
  opt.sequential_increment = 7.0;
  const auto r = compute_scoap(nl, opt);
  EXPECT_DOUBLE_EQ(r.cc0[ff], 1.0 + 7.0);
  EXPECT_DOUBLE_EQ(r.co[a], 0.0 + 1.0 + 7.0);  // through ff then inverter
}

TEST(Scoap, SequentialLoopConverges) {
  const Netlist nl = embedded_netlist("s27");
  const auto r = compute_scoap(nl);
  for (const CellId id : nl.topo_order()) {
    EXPECT_GE(r.cc0[id], 0.0);
    EXPECT_GE(r.cc1[id], 0.0);
    // Every cell in s27 is controllable both ways and observable.
    EXPECT_LT(r.cc0[id], 1e6) << nl.cell(id).name;
    EXPECT_LT(r.cc1[id], 1e6) << nl.cell(id).name;
    EXPECT_LT(r.co[id], 1e6) << nl.cell(id).name;
  }
}

TEST(Scoap, DeterministicAndIdempotent) {
  const Netlist nl = generate_circuit({"sc", 8, 6, 6, 120, 8}, 3);
  const auto r1 = compute_scoap(nl);
  const auto r2 = compute_scoap(nl);
  EXPECT_EQ(r1.cc0, r2.cc0);
  EXPECT_EQ(r1.cc1, r2.cc1);
  EXPECT_EQ(r1.co, r2.co);
}

TEST(Scoap, AttackerViewPenalizesLutNeighbourhood) {
  // Lock a middle gate; in the attacker view the cells behind it become
  // expensive to control and the cells before it expensive to observe.
  Netlist nl("chain");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId g1 = nl.add_gate(CellKind::kAnd, "g1", {a, b});
  const CellId g2 = nl.add_gate(CellKind::kOr, "g2", {g1, b});
  const CellId g3 = nl.add_gate(CellKind::kXor, "g3", {g2, a});
  nl.mark_output(g3);
  nl.finalize();
  Netlist hybrid = nl;
  hybrid.replace_with_lut(g2);

  ScoapOptions attacker;
  attacker.attacker_view = true;
  const auto before = compute_scoap(nl, attacker);
  const auto after = compute_scoap(hybrid, attacker);
  EXPECT_GT(after.cc1[g2], before.cc1[g2]);  // output uncontrollable
  EXPECT_GT(after.co[g1], before.co[g1]);    // upstream unobservable
  // Designer view is unaffected by LUT-ness (configured function known).
  const auto designer = compute_scoap(hybrid);
  EXPECT_DOUBLE_EQ(designer.cc1[g2], compute_scoap(nl).cc1[g2]);
}

TEST(Scoap, ResolvabilityRanksLockedRegionsHarder) {
  const CircuitProfile profile{"res", 10, 8, 8, 200, 9};
  const Netlist original = generate_circuit(profile, 5);
  Netlist hybrid = original;
  const TechLibrary lib = TechLibrary::cmos90_stt();
  GateSelector selector(lib);
  SelectionOptions sopt;
  sopt.seed = 5;
  const auto sel = selector.run(hybrid, SelectionAlgorithm::kDependent, sopt);
  ASSERT_GT(sel.replaced.size(), 1u);

  ScoapOptions attacker;
  attacker.attacker_view = true;
  const auto r = compute_scoap(hybrid, attacker);
  // At least one missing gate must be (near-)unresolvable for the testing
  // adversary: dependent LUTs gate each other's justification/propagation.
  double worst = 0;
  for (const CellId id : sel.replaced) {
    worst = std::max(worst, r.resolvability(hybrid, id));
  }
  EXPECT_GT(worst, attacker.unknown_lut_cost / 2);
}

TEST(Scoap, MatchesFullSweepReference) {
  const struct {
    const char* profile;
    std::uint64_t seed;
  } cases[] = {{"s641", 1},   {"s641", 2},   {"s820", 1},  {"s820", 2},
               {"s1196", 1},  {"s1196", 2},  {"s5378a", 1}, {"s5378a", 2},
               {"s38584", 1}, {"b14", 1}};
  for (const auto& tc : cases) {
    for (const bool luts : {false, true}) {
      const CircuitProfile profile = *find_profile(tc.profile);
      const Netlist nl = luts ? with_random_luts(profile, tc.seed)
                              : generate_circuit(profile, tc.seed);
      for (const bool attacker : {false, true}) {
        for (const int sweeps : {16, 3}) {
          ScoapOptions opt;
          opt.attacker_view = attacker;
          opt.max_iterations = sweeps;
          expect_matches_reference(
              nl, opt,
              std::string(tc.profile) + " seed " + std::to_string(tc.seed) +
                  (luts ? " random LUTs" : "") +
                  (attacker ? " attacker" : " designer") + " cap " +
                  std::to_string(sweeps));
        }
      }
    }
  }
}

TEST(Scoap, TruncatedSweepsOnFlipFlopChain) {
  // a -> n1 -> ff1 -> n2 -> ff2 -> n3 -> ff3 -> out. Flip-flops are created
  // in chain order, so the topological order visits the last stage first
  // and each sweep settles one more stage: two sweeps leave the tail of the
  // chain (forward) and its head (backward) unresolved.
  Netlist nl("chain");
  const CellId a = nl.add_input("a");
  const CellId n1 = nl.add_gate(CellKind::kNot, "n1", {a});
  const CellId ff1 = nl.add_dff("ff1", n1);
  const CellId n2 = nl.add_gate(CellKind::kNot, "n2", {ff1});
  const CellId ff2 = nl.add_dff("ff2", n2);
  const CellId n3 = nl.add_gate(CellKind::kNot, "n3", {ff2});
  const CellId ff3 = nl.add_dff("ff3", n3);
  const CellId out = nl.add_gate(CellKind::kNot, "out", {ff3});
  nl.mark_output(out);
  nl.finalize();

  ScoapOptions opt;
  opt.max_iterations = 2;
  const ScoapResult r = compute_scoap(nl, opt);
  expect_matches_reference(nl, opt, "chain cap 2");
  EXPECT_EQ(r.sweeps, 4);
  EXPECT_EQ(r.cc0[n1], 2.0);
  EXPECT_EQ(r.cc0[ff1], 7.0);
  EXPECT_EQ(r.cc0[n2], 8.0);
  EXPECT_EQ(r.cc0[ff2], 1e17);  // not reached within two sweeps
  EXPECT_EQ(r.cc0[out], 1e17);
  EXPECT_EQ(r.co[ff3], 1.0);
  EXPECT_EQ(r.co[n3], 6.0);
  EXPECT_EQ(r.co[ff2], 7.0);
  EXPECT_EQ(r.co[n2], 12.0);
  EXPECT_EQ(r.co[ff1], 1e17);
  EXPECT_EQ(r.co[a], 1e17);

  // Uncapped, every stage settles.
  const ScoapResult full = compute_scoap(nl);
  expect_matches_reference(nl, {}, "chain");
  EXPECT_EQ(full.cc0[out], 20.0);
  EXPECT_EQ(full.co[a], 19.0);
}

}  // namespace
}  // namespace stt
