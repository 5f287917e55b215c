#include "verify/keydep.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "obs/obs.hpp"
#include "sim/partial_eval.hpp"
#include "util/strings.hpp"
#include "verify/dataflow.hpp"

namespace stt {

namespace {

// Combinational fanout cone of one key cell as a bitset over topo rank. A
// reader always ranks after its driver, so every member ranks at or after
// the root: only the words from the root's to the deepest member's are
// stored, and two cones can share a cell only from the later root's word on.
class RankCone {
 public:
  RankCone(std::uint32_t first, std::vector<std::uint64_t> words)
      : first_(first), words_(std::move(words)) {}
  std::uint32_t begin() const { return first_; }
  std::uint32_t end() const {
    return first_ + static_cast<std::uint32_t>(words_.size());
  }
  /// Word `w` of the bitset; requires begin() <= w < end().
  const std::uint64_t* word(std::uint32_t w) const {
    return words_.data() + (w - first_);
  }
  bool test(std::uint32_t rank) const {
    const std::uint32_t w = rank >> 6;
    return w >= begin() && w < end() && ((*word(w) >> (rank & 63)) & 1ull);
  }
  int popcount() const {
    int n = 0;
    for (const std::uint64_t w : words_) n += __builtin_popcountll(w);
    return n;
  }

 private:
  std::uint32_t first_;
  std::vector<std::uint64_t> words_;
};

// Fanout cone of `root` (cone includes the root; traversal stops at DFF D
// pins — those are observation points, not cone members). `scratch` is an
// all-zero rank bitset covering the netlist, left all-zero on return;
// `work` is an empty stack, left empty.
RankCone fanout_cone(const Netlist& nl, CellId root,
                     const std::vector<std::uint32_t>& rank,
                     std::vector<std::uint64_t>& scratch,
                     std::vector<CellId>& work) {
  const auto test_and_set = [&scratch](std::uint32_t r) {
    std::uint64_t& w = scratch[r >> 6];
    const std::uint64_t bit = 1ull << (r & 63);
    const bool was = (w & bit) != 0;
    w |= bit;
    return was;
  };
  std::uint32_t last = rank[root];
  test_and_set(rank[root]);
  work.push_back(root);
  while (!work.empty()) {
    const CellId u = work.back();
    work.pop_back();
    for (const CellId reader : nl.cell(u).fanouts) {
      if (nl.cell(reader).kind == CellKind::kDff) continue;
      if (test_and_set(rank[reader])) continue;
      last = std::max(last, rank[reader]);
      work.push_back(reader);
    }
  }
  const auto first = scratch.begin() + (rank[root] >> 6);
  const auto stop = scratch.begin() + (last >> 6) + 1;
  std::vector<std::uint64_t> words(first, stop);
  std::fill(first, stop, 0);
  return RankCone(rank[root] >> 6, std::move(words));
}

// The `const` defense's injected-constant template: a 1-input LUT `lc` whose
// sole fanout is an XOR reading both `lc` and lc's own driver. The injection
// is value-preserving by construction (x = d XOR lc(d) must equal d for
// every d), which pins lc to the constant-0 function — the actual key mask,
// unit-propagated from the foundry view with zero oracle queries. The
// detection is purely structural, so the oracle-free `static` attack needs
// no annotations to fire it.
bool injected_constant_template(const Netlist& nl, CellId id) {
  const Cell& c = nl.cell(id);
  if (c.kind != CellKind::kLut || c.fanin_count() != 1) return false;
  if (c.fanouts.size() != 1) return false;
  const Cell& g = nl.cell(c.fanouts[0]);
  if (g.kind != CellKind::kXor || g.fanin_count() != 2) return false;
  const CellId driver = c.fanins[0];
  const CellId other = g.fanins[0] == id ? g.fanins[1] : g.fanins[0];
  return (g.fanins[0] == id || g.fanins[1] == id) && other == driver;
}

struct UnionFind {
  std::vector<int> parent;
  explicit UnionFind(int n) : parent(n) {
    for (int i = 0; i < n; ++i) parent[i] = i;
  }
  int find(int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }
  void unite(int a, int b) { parent[find(a)] = find(b); }
};

}  // namespace

std::string_view key_verdict_name(KeyVerdict v) {
  switch (v) {
    case KeyVerdict::kConstant: return "constant";
    case KeyVerdict::kRemovable: return "removable";
    case KeyVerdict::kMutable: return "mutable";
    case KeyVerdict::kPairwiseSecure: return "pairwise_secure";
    case KeyVerdict::kHard: return "hard";
  }
  return "?";
}

std::string_view key_construct_name(KeyConstruct c) {
  switch (c) {
    case KeyConstruct::kCamouflaged: return "camouflaged";
    case KeyConstruct::kKeyGate: return "key_gate";
    case KeyConstruct::kDecoyLatch: return "decoy_latch";
    case KeyConstruct::kLockedConstant: return "locked_constant";
    case KeyConstruct::kInjectedConstant: return "injected_constant";
  }
  return "?";
}

std::string KeydepResult::verdict() const {
  if (key_cells == 0) return "empty";
  if (eff_key_bits == 0) return "broken";
  if (eff_key_bits < key_bits) return "degraded";
  return "secure";
}

KeydepResult analyze_keydep(const Netlist& nl, const KeydepOptions& opt) {
  // Same evaluability bar as the audit: the dataflow passes simulate and
  // topologically order the netlist.
  for (CellId id = 0; id < nl.size(); ++id) {
    const Cell& c = nl.cell(id);
    const FaninRange range = fanin_range(c.kind);
    if (c.fanin_count() < range.min || c.fanin_count() > range.max) {
      throw std::runtime_error("keydep: illegal arity on '" +
                               std::string(c.name) + "'");
    }
    for (const CellId f : c.fanins) {
      if (f == kNullCell || f >= nl.size()) {
        throw std::runtime_error("keydep: unresolved fan-in on '" +
                                 std::string(c.name) + "'");
      }
    }
  }

  STTLOCK_SPAN("verify", "keydep");
  KeydepResult result;
  std::vector<CellId> luts;
  for (CellId id = 0; id < nl.size(); ++id) {
    if (nl.cell(id).kind == CellKind::kLut) luts.push_back(id);
  }
  result.key_cells = static_cast<int>(luts.size());
  if (luts.empty()) return result;

  // -- dataflow passes ------------------------------------------------------
  // All-X ternary evaluation with zero LUT knowledge (attacker view, every
  // LUT output X): definite wave values are static constants; they restrict
  // each LUT's reachable truth-table rows. The same evaluator backs the
  // audit's force probe below.
  const LutKnowledgeMap knowledge = unknown_luts(nl);
  const PartialEvaluator evaluator(nl, knowledge);
  const std::vector<Tri> wave = evaluator.eval(
      std::vector<Tri>(nl.inputs().size() + nl.dffs().size(), Tri::kX));
  // The one topological order every pass below sweeps.
  const std::vector<CellId>& order = evaluator.order();

  // Backward structural observability: a 0 is a sound proof the cell's
  // value never reaches a primary output or flip-flop D pin.
  const std::vector<char> reaches_obs = observable_cells(nl, order);

  // The audit's ternary force probe over the same attacker-view wave.
  ForceProbe probe(evaluator);
  probe.rebase(wave);
  const std::vector<CellId>& obs_points = probe.observation_points();
  const bool have_obs = !obs_points.empty();

  // Forward support functions: exact Boolean functions over a small cut
  // vocabulary; a key variable absent from every observation function (and
  // never absorbed into a cut) is functionally vacuous.
  SupportCuts cuts;
  std::vector<char> observed_var(nl.size(), 0);
  {
    STTLOCK_SPAN("verify", "keydep_support");
    const std::vector<SupportFunction> support =
        support_functions(nl, order, cuts);
    for (const CellId p : obs_points) {
      for (const CellId v : support[p].vars) observed_var[v] = 1;
    }
  }

  std::vector<std::uint32_t> rank(nl.size(), 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    rank[order[i]] = static_cast<std::uint32_t>(i);
  }

  // -- per-cell facts -------------------------------------------------------
  std::vector<RankCone> cones;
  cones.reserve(luts.size());
  {
    STTLOCK_SPAN("verify", "keydep_cells");
    std::vector<std::uint64_t> scratch((nl.size() + 63) / 64, 0);
    std::vector<CellId> work;
    for (const CellId id : luts) {
      const Cell& c = nl.cell(id);
      const int k = c.fanin_count();
      KeyCellReport rep;
      rep.cell = id;
      rep.name = c.name;
      rep.fanin = k;
      rep.nominal_bits = static_cast<int>(num_rows(k));

      for (std::uint32_t row = 0; row < num_rows(k); ++row) {
        bool reachable = true;
        for (int i = 0; i < k; ++i) {
          const Tri v = wave[c.fanins[static_cast<std::size_t>(i)]];
          const bool bit = row & (1u << i);
          if ((v == Tri::kOne && !bit) || (v == Tri::kZero && bit)) {
            reachable = false;
            break;
          }
        }
        if (reachable) rep.reachable_rows |= (1ull << row);
      }
      rep.reachable_count = __builtin_popcountll(rep.reachable_rows);

      // Masked: the cheap structural proof first, then the force probe
      // (forcing the cell to 0 vs 1 leaves every observation point at the
      // same definite value).
      if (have_obs) {
        if (!reaches_obs[id]) {
          rep.masked = true;
        } else {
          probe.force(id);
          rep.masked = probe.masked();
        }
      }
      if (have_obs && !cuts.absorbed[id]) rep.vacuous = !observed_var[id];

      if (injected_constant_template(nl, id)) {
        rep.construct = KeyConstruct::kInjectedConstant;
        rep.unit_propagated = true;
        rep.propagated_mask = 0;
      } else if (opt.defense.key_gates.count(std::string(c.name)) != 0) {
        rep.construct = KeyConstruct::kKeyGate;
      } else if (opt.defense.decoy_latches.count(std::string(c.name)) != 0) {
        rep.construct = KeyConstruct::kDecoyLatch;
      } else if (opt.defense.locked_constants.count(std::string(c.name)) !=
                 0) {
        rep.construct = KeyConstruct::kLockedConstant;
      }

      cones.push_back(fanout_cone(nl, id, rank, scratch, work));
      rep.cone_size = cones.back().popcount();
      result.cells.push_back(std::move(rep));
    }
  }

  // -- key-interference graph ----------------------------------------------
  // First hit over rank-ordered words: the first shared word decides
  // `intersects`, and its lowest set bit is the earliest shared cell in
  // topo order — the convergence point. A degrees-only request stops at
  // the intersection test.
  const bool want_edges = opt.interference == InterferenceRequest::kEdges;
  std::uint64_t pairs_scanned = 0;
  std::uint64_t interfering = 0;
  {
    STTLOCK_SPAN("verify", "keydep_pairs");
    for (std::size_t i = 0; i < luts.size(); ++i) {
      const RankCone& ci = cones[i];
      for (std::size_t j = i + 1; j < luts.size(); ++j) {
        const RankCone& cj = cones[j];
        const std::uint32_t lo = std::max(ci.begin(), cj.begin());
        const std::uint32_t hi = std::min(ci.end(), cj.end());
        if (lo >= hi) continue;
        ++pairs_scanned;
        const std::uint64_t* a = ci.word(lo);
        const std::uint64_t* b = cj.word(lo);
        std::uint32_t w = 0;
        while (w < hi - lo && (a[w] & b[w]) == 0) ++w;
        if (w == hi - lo) continue;
        ++interfering;
        ++result.cells[i].interference_degree;
        ++result.cells[j].interference_degree;
        if (!want_edges) continue;
        const std::uint32_t first_shared =
            ((lo + w) << 6) + static_cast<std::uint32_t>(
                                  __builtin_ctzll(a[w] & b[w]));
        KeyInterferenceEdge edge;
        edge.a = luts[i];
        edge.b = luts[j];
        edge.series = ci.test(rank[luts[j]]) || cj.test(rank[luts[i]]);
        edge.converge = order[first_shared];
        result.edges.push_back(edge);
      }
    }
  }
  // Deterministic in value, but runtime-tagged: the campaign's stable
  // metrics block predates these counters and stays byte-identical.
  static obs::Counter& probes =
      obs::Metrics::global().counter("verify.keydep.probes", /*stable=*/false);
  static obs::Counter& probe_cells = obs::Metrics::global().counter(
      "verify.keydep.probe_cells", /*stable=*/false);
  static obs::Counter& pairs = obs::Metrics::global().counter(
      "verify.keydep.pairs_scanned", /*stable=*/false);
  static obs::Counter& edges =
      obs::Metrics::global().counter("verify.keydep.edges", /*stable=*/false);
  probes.add(probe.probes());
  probe_cells.add(probe.cells_evaluated());
  pairs.add(pairs_scanned);
  edges.add(interfering);

  // -- series key-gate chains ----------------------------------------------
  // A declared key gate whose output reaches another declared key gate
  // through nothing but single-fanout BUF/NOT cells forms a series chain:
  // each member is BUF or NOT (scheme knowledge), so the composite is BUF
  // or NOT — one bit for the whole chain.
  std::vector<int> lut_index(nl.size(), -1);
  for (std::size_t i = 0; i < luts.size(); ++i) {
    lut_index[luts[i]] = static_cast<int>(i);
  }
  const auto is_declared_key_gate = [&](std::size_t i) {
    return result.cells[i].construct == KeyConstruct::kKeyGate;
  };
  UnionFind chains(static_cast<int>(luts.size()));
  for (std::size_t i = 0; i < luts.size(); ++i) {
    if (!is_declared_key_gate(i)) continue;
    const Cell& c = nl.cell(luts[i]);
    if (c.fanouts.size() != 1) continue;
    CellId w = c.fanouts[0];
    while (true) {
      const Cell& wc = nl.cell(w);
      const int wi = lut_index[w];
      if (wi >= 0 && is_declared_key_gate(static_cast<std::size_t>(wi))) {
        chains.unite(static_cast<int>(i), wi);
        break;
      }
      if ((wc.kind != CellKind::kBuf && wc.kind != CellKind::kNot) ||
          wc.fanouts.size() != 1) {
        break;
      }
      w = wc.fanouts[0];
    }
  }
  std::vector<int> chain_id(luts.size(), -1);
  std::vector<int> chain_head(luts.size(), 0);  // by chain index
  {
    std::vector<int> root_to_chain(luts.size(), -1);
    std::vector<int> members(luts.size(), 0);
    for (std::size_t i = 0; i < luts.size(); ++i) {
      if (!is_declared_key_gate(i)) continue;
      ++members[static_cast<std::size_t>(chains.find(static_cast<int>(i)))];
    }
    int next_chain = 0;
    for (std::size_t i = 0; i < luts.size(); ++i) {
      if (!is_declared_key_gate(i)) continue;
      const int root = chains.find(static_cast<int>(i));
      if (members[static_cast<std::size_t>(root)] < 2) continue;
      if (root_to_chain[static_cast<std::size_t>(root)] < 0) {
        root_to_chain[static_cast<std::size_t>(root)] = next_chain;
        // First member in ascending CellId order is the chain head.
        chain_head[static_cast<std::size_t>(next_chain)] =
            static_cast<int>(i);
        ++next_chain;
      }
      chain_id[i] = root_to_chain[static_cast<std::size_t>(root)];
    }
    for (std::size_t i = 0; i < luts.size(); ++i) {
      result.cells[i].chain = chain_id[i];
    }
  }

  // -- verdicts, entropy, findings ------------------------------------------
  std::vector<LintFinding>& findings = result.findings;
  for (std::size_t i = 0; i < luts.size(); ++i) {
    KeyCellReport& rep = result.cells[i];
    const bool declared_construct =
        rep.construct != KeyConstruct::kCamouflaged;

    if (rep.unit_propagated) {
      rep.verdict = KeyVerdict::kConstant;
      rep.effective_bits = 0;
    } else if (rep.masked || rep.vacuous) {
      rep.verdict = KeyVerdict::kRemovable;
      rep.effective_bits = 0;
    } else if (declared_construct) {
      rep.verdict = rep.interference_degree == 0
                        ? KeyVerdict::kMutable
                        : KeyVerdict::kPairwiseSecure;
      if (rep.chain >= 0) {
        rep.effective_bits =
            chain_head[static_cast<std::size_t>(rep.chain)] ==
                    static_cast<int>(i)
                ? 1
                : 0;
      } else {
        rep.effective_bits = 1;
      }
    } else {
      // A camouflaged LUT whose cone meets no other key cell's is
      // independently resolvable (Rajendran's mutable class); interference
      // is what makes it hard for the static layer.
      rep.verdict = rep.interference_degree == 0 ? KeyVerdict::kMutable
                                                 : KeyVerdict::kHard;
      rep.effective_bits = rep.reachable_count;
    }

    result.key_bits += rep.nominal_bits;
    result.eff_key_bits += rep.effective_bits;
    switch (rep.verdict) {
      case KeyVerdict::kConstant:
        ++result.constant_cells;
        result.key_bits_static += rep.nominal_bits;
        break;
      case KeyVerdict::kRemovable:
        ++result.removable_cells;
        result.key_bits_static += rep.nominal_bits;
        break;
      case KeyVerdict::kMutable: ++result.mutable_cells; break;
      case KeyVerdict::kPairwiseSecure: ++result.pairwise_cells; break;
      case KeyVerdict::kHard: ++result.hard_cells; break;
    }

    // Per-cell findings. KEY001/KEY002 are warnings (statically recovered
    // key material), the classification notes are info.
    if (rep.unit_propagated) {
      findings.push_back(make_finding(
          nl, LintRule::kKeyConstant, rep.cell,
          strformat("key cell '%s' unit-propagates to the constant-0 "
                    "function through its XOR companion '%s': %d key bit(s) "
                    "recovered with zero oracle queries",
                    rep.name.c_str(),
                    std::string(nl.cell(nl.cell(rep.cell).fanouts[0]).name).c_str(),
                    rep.nominal_bits)));
    } else if (rep.masked) {
      findings.push_back(make_finding(
          nl, LintRule::kKeyRemovable, rep.cell,
          strformat("key cell '%s' is statically blocked from every "
                    "observation point: its %d key bit(s) are free "
                    "(any value preserves the interface)",
                    rep.name.c_str(), rep.nominal_bits)));
    } else if (rep.vacuous) {
      findings.push_back(make_finding(
          nl, LintRule::kKeyVacuous, rep.cell,
          strformat("key cell '%s' vanishes from every observation point's "
                    "support function: %d key bit(s) are functionally "
                    "removable",
                    rep.name.c_str(), rep.nominal_bits)));
    } else if (declared_construct && rep.interference_degree == 0) {
      findings.push_back(make_finding(
          nl, LintRule::kKeyMutable, rep.cell,
          strformat("key construct '%s' (%s) interferes with no other key "
                    "cell: resolvable independently (mutable)",
                    rep.name.c_str(),
                    std::string(key_construct_name(rep.construct)).c_str())));
    } else if (declared_construct) {
      findings.push_back(make_finding(
          nl, LintRule::kKeyPairwise, rep.cell,
          strformat("key construct '%s' (%s) interferes with %d other key "
                    "cell(s): pairwise-secure against isolated resolution",
                    rep.name.c_str(),
                    std::string(key_construct_name(rep.construct)).c_str(),
                    rep.interference_degree)));
    }
    if (!rep.unit_propagated && !rep.masked && !rep.vacuous &&
        rep.reachable_count < rep.nominal_bits) {
      findings.push_back(make_finding(
          nl, LintRule::kKeyDeadRows, rep.cell,
          strformat("key cell '%s': only %d of %d truth-table rows are "
                    "reachable — %d key bit(s) carry no entropy",
                    rep.name.c_str(), rep.reachable_count, rep.nominal_bits,
                    rep.nominal_bits - rep.reachable_count)));
    }
  }

  // Chain findings, one per chain, anchored at the head.
  {
    std::vector<std::vector<std::size_t>> by_chain;
    for (std::size_t i = 0; i < luts.size(); ++i) {
      const int ch = result.cells[i].chain;
      if (ch < 0) continue;
      if (static_cast<std::size_t>(ch) >= by_chain.size()) {
        by_chain.resize(static_cast<std::size_t>(ch) + 1);
      }
      by_chain[static_cast<std::size_t>(ch)].push_back(i);
    }
    for (const std::vector<std::size_t>& members : by_chain) {
      if (members.size() < 2) continue;
      std::string names;
      int nominal = 0;
      for (const std::size_t m : members) {
        if (!names.empty()) names += " -> ";
        names += "'" + result.cells[m].name + "'";
        nominal += result.cells[m].nominal_bits;
      }
      findings.push_back(make_finding(
          nl, LintRule::kKeyChain, result.cells[members.front()].cell,
          strformat("series key-gate chain %s collapses to one composite "
                    "key bit (%d nominal bit(s))",
                    names.c_str(), nominal)));
    }
  }

  if (result.eff_key_bits < result.key_bits) {
    findings.push_back(make_finding(
        nl, LintRule::kKeySpace, kNullCell,
        strformat("effective key space is %d bit(s) against %d nominal: %d "
                  "recovered statically, the rest collapsed by construct "
                  "templates, dead rows or series chains",
                  result.eff_key_bits, result.key_bits,
                  result.key_bits_static)));
  }

  std::stable_sort(findings.begin(), findings.end(),
                   [](const LintFinding& a, const LintFinding& b) {
                     return std::tie(a.rule, a.cell_name, a.message) <
                            std::tie(b.rule, b.cell_name, b.message);
                   });
  return result;
}

std::string keydep_json(const Netlist& nl, const KeydepResult& r) {
  std::string out = "{\n";
  out += "  \"netlist\": \"" + json_escape(nl.name()) + "\",\n";
  out += "  \"verdict\": \"" + r.verdict() + "\",\n";
  out += strformat("  \"key_cells\": %d,\n", r.key_cells);
  out += strformat("  \"key_bits\": %d,\n", r.key_bits);
  out += strformat("  \"key_bits_static\": %d,\n", r.key_bits_static);
  out += strformat("  \"eff_key_bits\": %d,\n", r.eff_key_bits);
  out += strformat(
      "  \"cells_by_verdict\": {\"constant\": %d, \"removable\": %d, "
      "\"mutable\": %d, \"pairwise_secure\": %d, \"hard\": %d},\n",
      r.constant_cells, r.removable_cells, r.mutable_cells, r.pairwise_cells,
      r.hard_cells);
  out += "  \"cells\": [\n";
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    const KeyCellReport& c = r.cells[i];
    out += "    {\"cell\": \"" + json_escape(c.name) + "\", ";
    out += strformat("\"fanin\": %d, \"nominal_bits\": %d, ", c.fanin,
                     c.nominal_bits);
    out += strformat("\"reachable_rows\": %d, ", c.reachable_count);
    out += "\"construct\": \"" + std::string(key_construct_name(c.construct)) +
           "\", ";
    out += "\"verdict\": \"" + std::string(key_verdict_name(c.verdict)) +
           "\", ";
    out += strformat(
        "\"masked\": %s, \"vacuous\": %s, \"unit_propagated\": %s, ",
        c.masked ? "true" : "false", c.vacuous ? "true" : "false",
        c.unit_propagated ? "true" : "false");
    if (c.unit_propagated) {
      out += strformat("\"propagated_mask\": %llu, ",
                       static_cast<unsigned long long>(c.propagated_mask));
    }
    out += strformat(
        "\"interference_degree\": %d, \"cone_size\": %d, \"chain\": %d, "
        "\"effective_bits\": %d}",
        c.interference_degree, c.cone_size, c.chain, c.effective_bits);
    if (i + 1 < r.cells.size()) out += ",";
    out += "\n";
  }
  out += "  ],\n";
  out += "  \"interference\": [\n";
  for (std::size_t i = 0; i < r.edges.size(); ++i) {
    const KeyInterferenceEdge& e = r.edges[i];
    out += "    {\"a\": \"" + json_escape(nl.cell(e.a).name) + "\", ";
    out += "\"b\": \"" + json_escape(nl.cell(e.b).name) + "\", ";
    out += "\"converge\": \"" +
           (e.converge == kNullCell ? std::string()
                                    : json_escape(nl.cell(e.converge).name)) +
           "\", ";
    out += strformat("\"series\": %s}", e.series ? "true" : "false");
    if (i + 1 < r.edges.size()) out += ",";
    out += "\n";
  }
  out += "  ],\n";
  out += "  \"findings\": [\n";
  for (std::size_t i = 0; i < r.findings.size(); ++i) {
    const LintFinding& f = r.findings[i];
    out += "    {\"rule\": \"" + std::string(rule_id(f.rule)) + "\", ";
    out += "\"severity\": \"" + std::string(severity_name(f.severity)) +
           "\", ";
    out += "\"cell\": \"" + json_escape(f.cell_name) + "\", ";
    out += "\"message\": \"" + json_escape(f.message) + "\"}";
    if (i + 1 < r.findings.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace stt
